"""Whole-list kernels against the per-element reference executor."""

import dataclasses
import functools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from looptile.chain import AccessMode
from looptile.cli import main, run_config
from looptile.config import parse_config
from looptile.distsim import gather, run_distributed, run_subchain, setup_ranks
from looptile.executor import KernelRegistry, execute_schedule, execute_untiled
from looptile.inspector import ExecMode, inspect_chain
from looptile.mesh import generate_rect_mesh, rcm_renumber
from looptile.problems import (EIGHT_LOOP, FIG2, AccessSpec, LoopSpec, Problem,
                               default_registry, global_setup)

from conftest import dataset_values, numpy_registry
from reference_executor import run_per_element

REGISTRY = default_registry()


def assert_bitwise_equal(expected, actual):
    for name in expected:
        np.testing.assert_array_equal(actual[name].view(np.int64),
                                      expected[name].view(np.int64), err_msg=name)


def draw_mesh(draw, min_nx=1, min_ny=1):
    mesh = generate_rect_mesh(draw(st.integers(min_nx, 9)), draw(st.integers(min_ny, 6)))
    return rcm_renumber(mesh) if draw(st.booleans()) else mesh


@st.composite
def shared_memory_cases(draw):
    mesh = draw_mesh(draw)
    problem = draw(st.sampled_from([FIG2, EIGHT_LOOP]))
    mode = draw(st.sampled_from([ExecMode.SEQUENTIAL, ExecMode.SHARED]))
    return mesh, problem, mode, draw(st.integers(1, 48)), draw(st.integers(0, 2**32 - 1))


@given(shared_memory_cases())
@settings(max_examples=60)
def test_batch_equals_per_element_on_float_data(case):
    # np.add.at adds in index order, the per-element order of each target
    mesh, problem, mode, ts, seed = case
    chain, datasets, bindings = global_setup(mesh, problem, len(problem.loops))
    rng = np.random.default_rng(seed)
    for ds in datasets.values():
        ds.values[:] = rng.uniform(-1.0, 1.0, len(ds.values))
    runs = {kind: {name: ds.copy() for name, ds in datasets.items()}
            for kind in ("untiled", "untiled_ref", "tiled", "tiled_ref")}
    schedule = inspect_chain(chain, ts, mode)
    execute_untiled(chain, bindings, runs["untiled"], REGISTRY)
    run_per_element(chain, bindings, runs["untiled_ref"])
    execute_schedule(schedule, chain, bindings, runs["tiled"], REGISTRY)
    run_per_element(chain, bindings, runs["tiled_ref"], schedule)
    for kind in ("untiled", "tiled"):
        assert_bitwise_equal(dataset_values(runs[kind + "_ref"]),
                             dataset_values(runs[kind]))


@st.composite
def distributed_cases(draw):
    mesh = draw_mesh(draw, min_nx=2, min_ny=2)
    n_loops = draw(st.sampled_from([3, 4]))
    problem = Problem(f"eight_loop_{n_loops}", EIGHT_LOOP.loops[:n_loops],
                      EIGHT_LOOP.datasets)
    problem = draw(st.sampled_from([FIG2, problem]))
    depth = len(problem.loops) + draw(st.integers(0, 1))
    return (mesh, problem, draw(st.integers(1, 4)), draw(st.integers(1, 24)),
            depth, draw(st.integers(0, 2**32 - 1)))


def run_ranks(mesh, problem, nranks, fusion, depth, initial, registry=None):
    """Set up the ranks once, run every sub-chain once, gather.

    Without a registry every rank's schedule runs in the reference; every
    exchange poisons the halo slots until it commits.
    """
    by_subchain = setup_ranks(mesh, problem, nranks, fusion, depth, initial)
    for ranks in by_subchain:
        if registry is not None:
            run_subchain(ranks, registry)
            continue
        for vr in ranks:
            vr.endpoint.begin()
        for vr in ranks:
            run_per_element(vr.chain, vr.bindings, vr.datasets, vr.schedule,
                            exchange=vr.endpoint)
    return gather(mesh, problem, by_subchain[-1])


def per_element_distributed(mesh, problem, nranks, ts, depth, initial):
    """``run_distributed`` with every rank's schedule run by the reference."""
    return run_ranks(mesh, problem, nranks, [(0, len(problem.loops), ts)],
                     depth, initial)


@given(distributed_cases())
@settings(max_examples=40)
def test_distributed_batch_run_matches_per_element_and_oracle(case):
    mesh, problem, nranks, ts, depth, seed = case
    chain, datasets, bindings = global_setup(mesh, problem, depth)
    rng = np.random.default_rng(seed)
    for ds in datasets.values():
        ds.values[:] = rng.integers(-50, 50, len(ds.values))
    initial = dataset_values(datasets)
    batch = run_distributed(mesh, problem, nranks, ts, depth, REGISTRY, initial=initial)
    per_element = per_element_distributed(mesh, problem, nranks, ts, depth, initial)
    assert_bitwise_equal(per_element, batch.datasets)
    run_per_element(chain, bindings, datasets)
    assert_bitwise_equal(dataset_values(datasets), batch.datasets)


WIDE_INI = """
[mesh]
nx = 6
ny = 4
renumber = rcm

[chain]
depth = 4

[loops]
0 = edges edge_inc r@-:edge_w, i@e2v:vertex_acc
1 = cells cell_inc r@-:cell_w, i@c2v:vertex_acc
2 = edges edge_read w@-:edge_out, r@e2v:vertex_acc

[datasets]
edge_w = edges 3 ramp
cell_w = cells 1 ramp
vertex_acc = verts 3 zeros
edge_out = edges 3 zeros

[run]
mode = {mode}
tile_size = 5
nranks = 3
"""


# kernel id -> the preset kernel it runs; edge_sum is PROBE's fourth loop
PRESET_OF = {"edge_inc": "edge_inc", "cell_inc": "cell_inc",
             "edge_read": "edge_read", "edge_sum": "edge_read"}


def recording_registry(record):
    """The preset kernels, each call passed to ``record(kernel_id, args)`` first."""
    registry = KernelRegistry()
    for kernel_id, preset in PRESET_OF.items():
        body, nargs = REGISTRY.get(preset)

        def recorded(*args, kernel_id=kernel_id, body=body):
            record(kernel_id, args)
            return body(*args)

        registry.register(kernel_id, recorded, nargs)
    return registry


@pytest.mark.parametrize("mode", ["sequential", "shared", "distributed"])
def test_three_values_per_element_verify(tmp_path, capsys, mode):
    path = tmp_path / "wide.ini"
    path.write_text(WIDE_INI.format(mode=mode))
    assert main(["verify", str(path)]) == 0
    record = json.loads(capsys.readouterr().out.splitlines()[0])
    assert record["verify"] == "pass"
    # the tiled run alone calls every kernel
    calls = []
    run_config(parse_config(str(path)),
               registry=recording_registry(lambda kernel_id, _: calls.append(kernel_id)))
    assert set(calls) == {"edge_inc", "cell_inc", "edge_read"}


WIDE = {"edge_w", "vertex_acc", "edge_out"}
FIG2_WIDE = Problem("fig2_wide", FIG2.loops, tuple(
    dataclasses.replace(d, values_per_element=3) if d.name in WIDE else d
    for d in FIG2.datasets))


@st.composite
def wide_cases(draw):
    mesh = draw_mesh(draw, min_nx=2, min_ny=2)
    return (mesh, draw(st.integers(1, 4)), draw(st.integers(1, 24)),
            draw(st.integers(3, 4)), draw(st.integers(0, 2**32 - 1)))


@given(wide_cases())
@settings(max_examples=25)
def test_three_values_per_element_bitwise_on_float_data(case):
    mesh, nranks, ts, depth, seed = case
    chain, datasets, bindings = global_setup(mesh, FIG2_WIDE, depth)
    rng = np.random.default_rng(seed)
    for ds in datasets.values():
        ds.values[:] = rng.uniform(-1.0, 1.0, len(ds.values))
    initial = dataset_values(datasets)

    def fresh():
        return {name: ds.copy() for name, ds in datasets.items()}

    got, ref = fresh(), fresh()
    execute_untiled(chain, bindings, got, REGISTRY)
    run_per_element(chain, bindings, ref)
    assert_bitwise_equal(dataset_values(ref), dataset_values(got))
    for mode in (ExecMode.SEQUENTIAL, ExecMode.SHARED):
        schedule = inspect_chain(chain, ts, mode)
        got, ref = fresh(), fresh()
        execute_schedule(schedule, chain, bindings, got, REGISTRY)
        run_per_element(chain, bindings, ref, schedule)
        assert_bitwise_equal(dataset_values(ref), dataset_values(got))
    batch = run_distributed(mesh, FIG2_WIDE, nranks, ts, depth, REGISTRY,
                            initial=initial)
    per_element = per_element_distributed(mesh, FIG2_WIDE, nranks, ts, depth,
                                          initial)
    assert_bitwise_equal(per_element, batch.datasets)


R, I = AccessMode.READ, AccessMode.INC
# FIG2 plus a loop that increments edge_out directly, so every legal pair of
# mode and access kind reaches a kernel
PROBE = Problem("probe", FIG2.loops + (
    LoopSpec("edges", "edge_sum", (AccessSpec(None, I, "edge_out"),
                                   AccessSpec("e2v", R, "vertex_acc"))),),
    FIG2.datasets)
PROBE_WIDE = dataclasses.replace(PROBE, datasets=FIG2_WIDE.datasets)


@pytest.mark.parametrize("problem", [PROBE, PROBE_WIDE], ids=["k1", "k3"])
def test_kernel_arguments_follow_the_contract(problem):
    mesh = generate_rect_mesh(5, 3)
    k_of = {d.name: d.values_per_element for d in problem.datasets}
    arity = {"e2v": 2, "c2v": 3}
    expected = {spec.kernel: [(a.mode, a.map, k_of[a.dataset]) for a in spec.accesses]
                for spec in problem.loops}

    depth = len(problem.loops)
    chain, datasets, bindings = global_setup(mesh, problem, depth)
    runs = {"untiled": functools.partial(execute_untiled, chain, bindings, datasets),
            "distributed": functools.partial(run_distributed, mesh, problem, 2, 4, depth)}
    for mode in (ExecMode.SEQUENTIAL, ExecMode.SHARED):
        runs[mode.value] = functools.partial(
            execute_schedule, inspect_chain(chain, 4, mode), chain, bindings, datasets)

    for name, run in runs.items():
        calls = []

        def probe(kernel_id, args):
            calls.append(kernel_id)
            n = len(args[0])
            for arg, (mode, map_name, k) in zip(args, expected[kernel_id], strict=True):
                shape = (n, k) if map_name is None else (n, arity[map_name], k)
                assert arg.shape == shape, (name, kernel_id)
                assert arg.dtype == np.float64
                assert arg.flags.c_contiguous
                assert arg.flags.writeable == (mode is not R), (name, kernel_id, mode)

        run(recording_registry(probe))
        assert set(calls) == set(expected), name


NUMPY = numpy_registry()
EIGHT_WIDE = dataclasses.replace(EIGHT_LOOP, datasets=tuple(
    d if d.name == "edge_w" else dataclasses.replace(d, values_per_element=3)
    for d in EIGHT_LOOP.datasets))


@st.composite
def backend_cases(draw):
    return (draw_mesh(draw, min_nx=2, min_ny=2), draw(st.integers(1, 24)),
            draw(st.integers(1, 4)), draw(st.integers(0, 2**32 - 1)))


@pytest.mark.parametrize("mode", list(ExecMode), ids=lambda m: m.value)
@pytest.mark.parametrize("problem", [FIG2, FIG2_WIDE, EIGHT_LOOP, EIGHT_WIDE],
                         ids=["fig2", "fig2-k3", "eight", "eight-k3"])
@given(case=backend_cases())
@settings(max_examples=8)
def test_c_plan_equals_numpy_plan_and_reference_bitwise(problem, mode, case):
    # k = 3 runs broadcast a k = 1 input; the data is uniform floats
    mesh, ts, nranks, seed = case
    n = len(problem.loops)
    depth = min(n, 4)
    chain, datasets, bindings = global_setup(mesh, problem, depth)
    rng = np.random.default_rng(seed)
    for ds in datasets.values():
        ds.values[:] = rng.uniform(-1.0, 1.0, len(ds.values))
    if mode is ExecMode.DISTRIBUTED:
        initial = dataset_values(datasets)
        fusion = [(start, min(start + depth, n), ts) for start in range(0, n, depth)]
        runs = {backend: run_ranks(mesh, problem, nranks, fusion, depth, initial,
                                   registry)
                for backend, registry in (("c", REGISTRY), ("numpy", NUMPY),
                                          ("reference", None))}
    else:
        schedule = inspect_chain(chain, ts, mode)
        runs = {}
        for backend, registry in (("c", REGISTRY), ("numpy", NUMPY)):
            runs[backend] = {name: ds.copy() for name, ds in datasets.items()}
            report = execute_schedule(schedule, chain, bindings, runs[backend],
                                      registry)
            assert report.backend == backend
            runs[backend] = dataset_values(runs[backend])
        run_per_element(chain, bindings, datasets, schedule)
        runs["reference"] = dataset_values(datasets)
    assert_bitwise_equal(runs["reference"], runs["c"])
    assert_bitwise_equal(runs["numpy"], runs["c"])


def test_empty_color_run_loop_pairs_equal_reference_bitwise():
    # at ts 1 some shared colors hold seed edges only, so their runs of the
    # cell and edge_read loops are empty
    chain, datasets, bindings = global_setup(generate_rect_mesh(4, 2), FIG2, 3)
    rng = np.random.default_rng(5)
    for ds in datasets.values():
        ds.values[:] = rng.uniform(-1.0, 1.0, len(ds.values))
    schedule = inspect_chain(chain, 1, ExecMode.SHARED)
    nonempty = [tiling.bounds[edges[r]] < tiling.bounds[edges[r + 1]]
                for edges in schedule.runs.values() for r in range(len(edges) - 1)
                for tiling in schedule.tilings]
    assert any(nonempty) and not all(nonempty)
    assert max(schedule.tiles_per_color.values()) > 1
    runs = {}
    for backend, registry in (("c", REGISTRY), ("numpy", NUMPY)):
        values = {name: ds.copy() for name, ds in datasets.items()}
        assert execute_schedule(schedule, chain, bindings, values,
                                registry).backend == backend
        runs[backend] = dataset_values(values)
    run_per_element(chain, bindings, datasets, schedule)
    for backend in runs:
        assert_bitwise_equal(dataset_values(datasets), runs[backend])
