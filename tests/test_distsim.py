import dataclasses
import gc
import weakref
from pathlib import Path

import numpy as np
import pytest

from looptile import distsim
from looptile.chain import AccessMode
from looptile.cli import build_mesh
from looptile.config import parse_config
from looptile.distsim import (POISON, HaloEndpoint, check_exchange_tables,
                              exchanged_dataset_names, gather,
                              run_distributed, run_subchain, setup_ranks)
from looptile.errors import DepthExceededError, InvalidChainError, PartitionBugError
from looptile.executor import execute_schedule, execute_untiled, flat_slots
from looptile.inspector import ExecMode, Region, inspect_chain
from looptile.mesh import generate_rect_mesh, rcm_renumber
from looptile.partition import partition_for_ranks
from looptile.problems import (EIGHT_LOOP, FIG2, AccessSpec, DatasetSpec,
                               LoopSpec, Problem, global_setup, local_setup)

from conftest import dataset_values, halo_exchange


def serial_reference(mesh, registry, depth=3):
    chain, datasets, bindings = global_setup(mesh, FIG2, depth)
    execute_untiled(chain, bindings, datasets, registry)
    return dataset_values(datasets)


def build_endpoints(mesh, nranks, depth, registry):
    local_meshes = partition_for_ranks(mesh, nranks, depth)
    exchanged = exchanged_dataset_names(FIG2.loops)
    endpoints = []
    setups = []
    for lm in local_meshes:
        chain, datasets, bindings = local_setup(lm, FIG2, depth)
        endpoints.append(HaloEndpoint(lm, datasets, exchanged))
        setups.append((lm, chain, datasets, bindings))
    for e in endpoints:
        e.link(endpoints)
    return endpoints, setups


def test_single_rank_equals_shared_memory_run(registry):
    mesh = rcm_renumber(generate_rect_mesh(4, 2))
    expected = serial_reference(mesh, registry)
    result = run_distributed(mesh, FIG2, 1, 4, depth=3, registry=registry)
    for name in expected:
        np.testing.assert_array_equal(result.datasets[name], expected[name])


@pytest.mark.parametrize("nranks", [2, 4])
def test_gather_matches_serial_oracle(registry, nranks):
    mesh = rcm_renumber(generate_rect_mesh(8, 4))
    expected = serial_reference(mesh, registry)
    result = run_distributed(mesh, FIG2, nranks, 3, depth=3, registry=registry)
    for name in expected:
        np.testing.assert_array_equal(result.datasets[name], expected[name],
                                      err_msg=name)
    assert result.exchange_counts == [1] * nranks


@pytest.mark.parametrize("ts", [3, 8])
def test_four_ranks_with_poisoned_halos(registry, ts):
    # core tiles must not read halo data: garbage there may only be healed
    # by the one exchange
    mesh = rcm_renumber(generate_rect_mesh(8, 4))
    expected = serial_reference(mesh, registry)
    result = run_distributed(mesh, FIG2, 4, ts, depth=3, registry=registry)
    for name in expected:
        np.testing.assert_array_equal(result.datasets[name], expected[name])


@pytest.mark.parametrize("with_initial", [False, True])
def test_every_halo_slot_is_poisoned_before_the_exchange(with_initial):
    mesh = rcm_renumber(generate_rect_mesh(8, 4))
    problem = Problem("eight[0:4]", EIGHT_LOOP.loops[:4], EIGHT_LOOP.datasets)
    initial = None
    if with_initial:
        _, datasets, _ = global_setup(mesh, problem, 4)
        initial = {name: np.arange(len(ds.values), dtype=float) + 1.0
                   for name, ds in datasets.items()}
    ranks, = setup_ranks(mesh, problem, 4, [(0, 4, 8)], 4, initial=initial)
    for vr in ranks:
        vr.endpoint.begin()
    for vr in ranks:
        for name, ds in vr.datasets.items():
            k = ds.values_per_element
            owned = vr.local_mesh.sizes[ds.space.name].owned_total * k
            assert len(ds.values) > owned, (vr.rank, name)
            assert np.all(ds.values[owned:] == POISON), (vr.rank, name)
            assert not np.any(ds.values[:owned] == POISON), (vr.rank, name)
            if initial is not None:
                gids = vr.local_mesh.global_ids[ds.space.name][:owned // k]
                np.testing.assert_array_equal(
                    ds.values[:owned], initial[name].reshape(-1, k)[gids].ravel())


def test_one_setup_runs_every_subchain_for_several_steps(registry, monkeypatch):
    # the ranks' datasets carry values from sub-chain to sub-chain and from
    # step to step; every exchange poisons the halos again before it commits
    mesh = rcm_renumber(generate_rect_mesh(8, 4))
    chain, datasets, bindings = global_setup(mesh, EIGHT_LOOP, 4)
    rng = np.random.default_rng(7)
    for ds in datasets.values():
        ds.values[:] = rng.integers(-50, 50, len(ds.values))
    by_subchain = setup_ranks(mesh, EIGHT_LOOP, 4, [(0, 4, 16), (4, 6, 8), (6, 8, 16)],
                              4, initial=dataset_values(datasets))

    commits = []  # (halo slots, all POISON) per dataset at each commit
    end = HaloEndpoint.end

    def checked_end(self):
        for ds in self.datasets.values():
            owned = self.local_mesh.sizes[ds.space.name].owned_total
            halo = ds.values[owned * ds.values_per_element:]
            commits.append((len(halo), bool(np.all(halo == POISON))))
        end(self)

    monkeypatch.setattr(HaloEndpoint, "end", checked_end)
    for _ in range(3):
        for ranks in by_subchain:
            run_subchain(ranks, registry)
        execute_untiled(chain, bindings, datasets, registry)

    # steps x sub-chains x ranks x datasets
    assert len(commits) == 3 * 3 * 4 * len(EIGHT_LOOP.datasets)
    assert all(n > 0 and poisoned for n, poisoned in commits)
    for ranks in by_subchain:
        assert [vr.endpoint.exchange_count for vr in ranks] == [3] * 4
    gathered = gather(mesh, EIGHT_LOOP, by_subchain[-1])
    for name, ds in datasets.items():
        np.testing.assert_array_equal(gathered[name].view(np.int64),
                                      ds.values.view(np.int64), err_msg=name)


def test_setup_checks_the_exchange_tables_once(monkeypatch):
    # every sub-chain's endpoints share one partition's exchange tables
    cfg = parse_config(str(Path(__file__).resolve().parents[1] / "configs"
                           / "eight_loop.ini"))
    calls = []

    def counted(endpoints):
        calls.append(len(endpoints))
        check_exchange_tables(endpoints)

    monkeypatch.setattr(distsim, "check_exchange_tables", counted)
    by_subchain = setup_ranks(build_mesh(cfg), cfg.problem, cfg.nranks, cfg.fusion,
                              cfg.depth)
    assert len(by_subchain) == 3
    assert calls == [cfg.nranks]


def test_reports_carry_exchange_bytes(registry):
    mesh = rcm_renumber(generate_rect_mesh(4, 2))
    result = run_distributed(mesh, FIG2, 2, 4, depth=3, registry=registry)
    for vr in result.ranks:
        assert vr.report.bytes_exchanged > 0
        assert set(vr.report.phase_seconds) == {"core", "exchange_wait", "boundary"}


def test_each_step_reports_its_own_exchange_bytes(registry):
    # every step moves the same halo bytes, so every step reports the same
    # number, not the endpoint's running total
    mesh = rcm_renumber(generate_rect_mesh(16, 8))
    by_subchain = setup_ranks(mesh, EIGHT_LOOP, 4, [(0, 4, 16), (4, 8, 16)], 4)
    steps = []
    for _ in range(3):
        for ranks in by_subchain:
            run_subchain(ranks, registry)
        steps.append([vr.report.bytes_exchanged for ranks in by_subchain for vr in ranks])
    assert all(b > 0 for b in steps[0])
    assert steps[0] == steps[1] == steps[2]


def test_depth_shorter_than_chain_rejected(registry):
    mesh = generate_rect_mesh(4, 2)
    with pytest.raises(DepthExceededError):
        run_distributed(mesh, FIG2, 2, 4, depth=2, registry=registry)


def test_setup_without_subchains_rejected():
    with pytest.raises(InvalidChainError, match="at least one sub-chain"):
        setup_ranks(generate_rect_mesh(4, 2), FIG2, 2, [], 3)


def test_setup_range_past_the_chain_rejected():
    # (0, 9) on three loops must not run loops 0-2 as if it were (0, 3)
    mesh = generate_rect_mesh(4, 2)
    with pytest.raises(InvalidChainError, match=r"\[0, 9\) is not a range of 3 loops"):
        setup_ranks(mesh, FIG2, 2, [(0, 9, 4)], 3)
    chain, _, _ = global_setup(mesh, FIG2, 3)
    for start, stop in ((-1, 2), (2, 2), (2, 1)):
        with pytest.raises(InvalidChainError, match="not a range of 3 loops"):
            chain.subchain(start, stop)


def test_no_neighbors_means_noop_exchange(registry):
    mesh = generate_rect_mesh(3, 1)
    endpoints, setups = build_endpoints(mesh, 1, 3, registry)
    before = dataset_values(setups[0][2])
    halo_exchange(endpoints)
    after = dataset_values(setups[0][2])
    for name in before:
        np.testing.assert_array_equal(before[name], after[name])
    assert endpoints[0].exchange_count == 1
    assert endpoints[0].bytes_exchanged == 0


def test_exchange_copies_owner_values_to_matching_global_ids(registry):
    mesh = rcm_renumber(generate_rect_mesh(4, 2))
    endpoints, setups = build_endpoints(mesh, 2, 3, registry)
    # make each owner's values recognizably its own
    for lm, chain, datasets, _ in setups:
        datasets["edge_w"].values[:] = 100 * (lm.rank + 1)
    halo_exchange(endpoints)
    for lm, chain, datasets, _ in setups:
        sizes = lm.sizes["edges"]
        for i in range(sizes.owned_total, sizes.total):
            g = lm.global_ids["edges"][i]
            owner = 0 if g in setups[0][0].global_ids["edges"][
                :setups[0][0].sizes["edges"].owned_total] else 1
            assert datasets["edge_w"].values[i] == 100 * (owner + 1)


def test_exchange_twice_is_a_fixed_point(registry):
    mesh = generate_rect_mesh(4, 2)
    endpoints, setups = build_endpoints(mesh, 2, 3, registry)
    halo_exchange(endpoints)
    snapshot = [dataset_values(s[2]) for s in setups]
    halo_exchange(endpoints)
    for (lm, chain, datasets, _), before in zip(setups, snapshot):
        for name in before:
            np.testing.assert_array_equal(datasets[name].values, before[name])
    assert [e.exchange_count for e in endpoints] == [2, 2]


def test_begin_end_must_alternate(registry):
    mesh = generate_rect_mesh(3, 1)
    endpoints, _ = build_endpoints(mesh, 1, 3, registry)
    e = endpoints[0]
    with pytest.raises(PartitionBugError):
        e.end()
    e.begin()
    with pytest.raises(PartitionBugError):
        e.begin()
    e.end()


def broken_tables(endpoints, edit):
    """Give rank 0 a copy of its exchange tables with ``edit`` applied."""
    broken = {key: table.copy() for key, table in
              endpoints[0].local_mesh.exchange_table.items()}
    edit(broken)
    object.__setattr__(endpoints[0].local_mesh, "exchange_table", broken)


def test_asymmetric_tables_detected(registry):
    # one halo element listed twice and another not at all: the row count
    # still matches the halo
    mesh = generate_rect_mesh(4, 2)
    endpoints, _ = build_endpoints(mesh, 2, 3, registry)

    def repeat_first_row(tables):
        table = next(iter(tables.values()))
        table[-1] = table[0]

    broken_tables(endpoints, repeat_first_row)
    with pytest.raises(PartitionBugError, match="exactly once"):
        check_exchange_tables(endpoints)


def test_dropped_table_row_detected(registry):
    mesh = generate_rect_mesh(4, 2)
    endpoints, _ = build_endpoints(mesh, 2, 3, registry)

    def drop_last_row(tables):
        key = next(iter(tables))
        tables[key] = tables[key][:-1]

    broken_tables(endpoints, drop_last_row)
    with pytest.raises(PartitionBugError,
                       match=r"rank 0's exchange tables do not list each cells "
                             r"halo element exactly once"):
        check_exchange_tables(endpoints)


def test_row_pairing_different_global_ids_detected(registry):
    # the owner-side id of one row names another of the owner's elements
    mesh = generate_rect_mesh(4, 2)
    endpoints, _ = build_endpoints(mesh, 2, 3, registry)

    def shift_owner_id(tables):
        table = tables[("edges", 1)]
        table[0, 1] = table[1, 1]

    broken_tables(endpoints, shift_owner_id)
    with pytest.raises(PartitionBugError,
                       match="rank 0's exchange table for edges owned by rank 1 "
                             "pairs different global ids"):
        check_exchange_tables(endpoints)


def test_row_outside_the_halo_detected(registry):
    # a row naming an owned element, with the row count unchanged
    mesh = generate_rect_mesh(4, 2)
    endpoints, _ = build_endpoints(mesh, 2, 3, registry)

    def point_at_owned(tables):
        tables[("verts", 1)][0, 0] = 0

    broken_tables(endpoints, point_at_owned)
    with pytest.raises(PartitionBugError,
                       match=r"rank 0's exchange tables do not list each verts "
                             r"halo element exactly once"):
        check_exchange_tables(endpoints)


def test_owner_row_outside_its_owned_elements_detected(registry):
    # a missing owner copy (-1) and one past the owner's owned elements
    mesh = generate_rect_mesh(4, 2)
    endpoints, _ = build_endpoints(mesh, 2, 3, registry)
    past = endpoints[1].local_mesh.sizes["cells"].owned_total
    for there in (-1, past):
        def point_past_owned(tables):
            tables[("cells", 1)][-1, 1] = there

        broken_tables(endpoints, point_past_owned)
        with pytest.raises(PartitionBugError,
                           match="rank 0's exchange table for cells owned by "
                                 "rank 1 pairs different global ids"):
            check_exchange_tables(endpoints)


def test_exchange_rounds_resolve_no_slots(registry, monkeypatch):
    # link() fixes every route; begin() and end() only poison, stage, commit
    mesh = rcm_renumber(generate_rect_mesh(8, 4))
    ranks, = setup_ranks(mesh, EIGHT_LOOP, 4, [(0, 4, 8)], 4)
    calls = []

    def counted(*args):
        calls.append(args)
        return flat_slots(*args)

    monkeypatch.setattr(distsim, "flat_slots", counted)
    for _ in range(2):
        halo_exchange([vr.endpoint for vr in ranks])
    assert calls == []
    assert [vr.endpoint.exchange_count for vr in ranks] == [2] * 4
    assert all(vr.endpoint.bytes_exchanged > 0 for vr in ranks)


def test_gather_detects_overlapping_ownership(registry):
    mesh = rcm_renumber(generate_rect_mesh(4, 2))
    result = run_distributed(mesh, FIG2, 2, 4, depth=3, registry=registry)
    vr = result.ranks[0]
    sizes = dict(vr.local_mesh.sizes)
    bumped = dataclasses.replace(sizes["verts"], owned=sizes["verts"].owned + 1)
    sizes["verts"] = bumped  # claims one exec vertex as owned
    object.__setattr__(vr.local_mesh, "sizes", sizes)
    with pytest.raises(PartitionBugError, match="overlap"):
        gather(mesh, FIG2, result.ranks)


def test_no_core_tile_holds_boundary_iterations(registry):
    mesh = rcm_renumber(generate_rect_mesh(8, 4))
    result = run_distributed(mesh, FIG2, 3, 3, depth=3, registry=registry)
    for vr in result.ranks:
        spaces = {j: loop.space for j, loop in enumerate(vr.chain.loops)}
        core_colors, boundary_colors = [], []
        for t in vr.schedule.tiles:
            if t.region is Region.CORE:
                core_colors.append(t.color)
                for j, lst in t.iteration_lists.items():
                    assert np.all(lst < spaces[j].core_size)
            elif t.region is Region.BOUNDARY:
                boundary_colors.append(t.color)
                for j, lst in t.iteration_lists.items():
                    assert np.all(lst < spaces[j].executable_size)
        if core_colors and boundary_colors:
            assert max(core_colors) < min(boundary_colors)
        assert vr.schedule.nonexec_tile.color > max(
            core_colors + boundary_colors)


def test_executed_iterations_stay_within_local_executable(registry):
    mesh = rcm_renumber(generate_rect_mesh(6, 3))
    result = run_distributed(mesh, FIG2, 3, 5, depth=3, registry=registry)
    for vr in result.ranks:
        for j, loop in enumerate(vr.chain.loops):
            for t in vr.schedule.executable_tiles():
                lst = t.iteration_lists[j]
                assert np.all(lst < loop.space.executable_size)


def test_exchange_through_executor_phases(registry):
    # the caller begins the exchange; execute_schedule only ends it, between
    # the core and boundary phases
    mesh = rcm_renumber(generate_rect_mesh(4, 2))
    endpoints, setups = build_endpoints(mesh, 2, 3, registry)
    check_exchange_tables(endpoints)
    order = []
    lm, chain, datasets, bindings = setups[0]

    class Spy:
        def begin(self):
            order.append("begin")
            endpoints[0].begin()

        def end(self):
            order.append("end")
            endpoints[0].end()

        @property
        def bytes_exchanged(self):
            return endpoints[0].bytes_exchanged

    spy = Spy()
    spy.begin()
    schedule = inspect_chain(chain, 4, ExecMode.DISTRIBUTED)
    report = execute_schedule(schedule, chain, bindings, datasets, registry,
                              exchange=spy)
    assert order == ["begin", "end"]
    assert endpoints[0].exchange_count == 1
    assert report.bytes_exchanged == endpoints[0].bytes_exchanged > 0


def test_dropped_result_frees_without_the_cycle_collector(registry):
    # endpoints must not hold each other, or every rank's arrays outlive the
    # result until a gc pass happens to run
    mesh = generate_rect_mesh(6, 3)
    gc.disable()
    try:
        result = run_distributed(mesh, FIG2, 3, 8, 3, registry)
        endpoint = weakref.ref(result.ranks[0].endpoint)
        del result
        assert endpoint() is None
    finally:
        gc.enable()


# an edge loop that reads vertices, then one that increments them: no
# dependence joins the two, but loop 1 is tiled through loop 0's projection
STRANDING = Problem(
    "stranding",
    (LoopSpec("edges", "edge_read",
              (AccessSpec(None, AccessMode.WRITE, "edge_mid"),
               AccessSpec("e2v", AccessMode.READ, "vertex_acc"))),
     LoopSpec("edges", "edge_inc",
              (AccessSpec(None, AccessMode.READ, "edge_w"),
               AccessSpec("e2v", AccessMode.INC, "vertex_acc2")))),
    (DatasetSpec("edge_w", "edges", 1, "ramp"),
     DatasetSpec("edge_mid", "edges", 1, "zeros"),
     DatasetSpec("vertex_acc", "verts", 1, "ramp"),
     DatasetSpec("vertex_acc2", "verts", 1, "zeros")))


@pytest.mark.parametrize("nranks", [2, 3])
def test_no_executable_iteration_stranded_on_the_nonexec_tile(registry, nranks):
    # on a 9x1 strip, iterations next to a rank's non-exec halo must not
    # inherit the non-exec tile through the projection: it never runs
    mesh = generate_rect_mesh(9, 1)
    chain, datasets, bindings = global_setup(mesh, STRANDING, 2)
    execute_untiled(chain, bindings, datasets, registry)
    result = run_distributed(mesh, STRANDING, nranks, 4, depth=2, registry=registry)
    for name, ds in datasets.items():
        np.testing.assert_array_equal(result.datasets[name], ds.values, err_msg=name)
    for vr in result.ranks:
        for j, loop in enumerate(vr.chain.loops):
            on_nonexec = vr.schedule.nonexec_tile.iteration_lists[j]
            assert np.all(on_nonexec >= loop.space.executable_size)
