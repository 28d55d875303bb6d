"""Acceptance criteria, one test per criterion, one PASS line each.

Run as ``pytest -s tests/test_acceptance.py`` to see the lines.
"""

import dataclasses
import time

import numpy as np
import pytest

from looptile.cli import run_config
from looptile.config import RunConfig, SubChain
from looptile.distsim import run_distributed
from looptile.executor import (KernelRegistry, execute_schedule,
                               execute_untiled)
from looptile.inspector import ExecMode, InspectionStats, Region, inspect_chain
from looptile.chain import IterationSpace, MeshMap, invert_map
from looptile.mesh import generate_rect_mesh, rcm_renumber
from looptile.problems import FIG2, default_registry, global_setup
from looptile.vtk import export_vtk, parse_vtk

from conftest import map_row, sources_of
from legality import check_legality, count_pairs, footprint_conflicts

MESHES = [(1, 1), (2, 1), (4, 2), (8, 4), (16, 8)]
TILE_SIZES = [1, 4, 16, 64]
MODES = [ExecMode.SEQUENTIAL, ExecMode.SHARED]


def _passed(n, text):
    print(f"\nACCEPTANCE {n}: PASS - {text}")


@pytest.fixture(scope="module")
def registry():
    return default_registry()


def oracle(mesh, registry):
    chain, datasets, bindings = global_setup(mesh, FIG2, depth=3)
    execute_untiled(chain, bindings, datasets, registry)
    return {name: ds.values.copy() for name, ds in datasets.items()}


def test_criterion_1_fig2_oracle_sweep(registry):
    t0 = time.perf_counter()
    checked = 0
    for dims in MESHES:
        mesh = rcm_renumber(generate_rect_mesh(*dims))
        expected = oracle(mesh, registry)
        for ts in TILE_SIZES:
            for mode in MODES:
                chain, datasets, bindings = global_setup(mesh, FIG2, depth=3)
                schedule = inspect_chain(chain, ts, mode)
                execute_schedule(schedule, chain, bindings, datasets, registry)
                for name in expected:
                    np.testing.assert_array_equal(
                        datasets[name].values, expected[name],
                        err_msg=f"{dims} ts={ts} {mode.value} {name}")
                checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"sweep took {elapsed:.1f}s"
    _passed(1, f"tiled == untiled bitwise on {checked} configurations "
               f"({elapsed:.1f}s)")


def test_criterion_2_dependence_legality(registry):
    total_pairs = 0
    for dims in ((4, 4), (4, 8)):  # 32 and 64 cells
        mesh = rcm_renumber(generate_rect_mesh(*dims))
        chain, _, _ = global_setup(mesh, FIG2, depth=3)
        pairs = count_pairs(chain)
        assert pairs > 0
        for ts in (1, 4, 16):
            for mode in MODES:
                schedule = inspect_chain(chain, ts, mode)
                violations = check_legality(chain, schedule)
                assert violations == [], violations[:5]
                total_pairs += pairs
    _passed(2, f"{total_pairs} enumerated dependence/reduction pairs checked, "
               f"zero violations")


def test_criterion_3_conflict_backtracking_regression():
    mesh = rcm_renumber(generate_rect_mesh(4, 1))
    chain, _, _ = global_setup(mesh, FIG2, depth=3)
    schedule = inspect_chain(chain, 2, ExecMode.SHARED)
    assert schedule.recolor_rounds >= 2, "expected a recoloring round"
    assert footprint_conflicts(chain, schedule) == []
    assert check_legality(chain, schedule) == []
    _passed(3, f"two equal-colored tiles met during tiling; "
               f"{schedule.recolor_rounds} coloring rounds, final schedule "
               f"conflict-free")


def test_criterion_4_distributed_equivalence(registry):
    mesh = rcm_renumber(generate_rect_mesh(8, 4))
    expected = oracle(mesh, registry)
    for nranks in (2, 4):
        result = run_distributed(mesh, FIG2, nranks, 4, depth=3,
                                 registry=registry)
        for name in expected:
            np.testing.assert_array_equal(result.datasets[name], expected[name],
                                          err_msg=f"nranks={nranks} {name}")
        assert result.exchange_counts == [1] * nranks
    _passed(4, "gathered core+owned values equal the serial run exactly; "
               "one halo exchange per rank per chain execution")


def test_criterion_5_local_map_equivalence():
    # tiled execution reads mapped accesses through local maps only, so
    # criteria 1 and 4 check them against the oracle; here each local map
    # must be its global map restricted to the tile's list, in list order
    checked = 0
    for dims in MESHES:
        mesh = rcm_renumber(generate_rect_mesh(*dims))
        chain, _, _ = global_setup(mesh, FIG2, depth=3)
        for ts in TILE_SIZES:
            for mode in MODES:
                schedule = inspect_chain(chain, ts, mode)
                for t in schedule.tiles:
                    for j, loop in enumerate(chain.loops):
                        for d in loop.descriptors:
                            if d.is_direct:
                                continue
                            m = d.map
                            rows = m.values.reshape(-1, m.arity)
                            np.testing.assert_array_equal(
                                t.local_maps[(j, m.name)],
                                rows[t.iteration_lists[j]].ravel(),
                                err_msg=f"{dims} ts={ts} {mode.value} "
                                        f"tile {t.id} loop {j} {m.name}")
                            checked += 1
    _passed(5, f"{checked} local maps equal their global rows at the tile's "
               f"iteration list on the full criterion-1 matrix")


def test_criterion_6_structural_invariants(registry):
    # partition completeness and disjointness per loop
    mesh = rcm_renumber(generate_rect_mesh(8, 4))
    chain, _, _ = global_setup(mesh, FIG2, depth=3)
    schedule = inspect_chain(chain, 5, ExecMode.SHARED)
    for j, loop in enumerate(chain.loops):
        lists = [t.iteration_lists[j] for t in schedule.tiles]
        joined = np.concatenate(lists)
        assert len(joined) == loop.space.total
        assert len(np.unique(joined)) == loop.space.total

    # region confinement and color monotonicity need real halo regions
    result = run_distributed(mesh, FIG2, 3, 4, depth=3, registry=registry)
    for vr in result.ranks:
        core_colors, boundary_colors = [], []
        for t in vr.schedule.tiles:
            for j, loop in enumerate(vr.chain.loops):
                lst = t.iteration_lists[j]
                if t.region is Region.CORE and len(lst):
                    assert np.all(lst < loop.space.core_size)
            if t.region is Region.CORE:
                core_colors.append(t.color)
            elif t.region is Region.BOUNDARY:
                boundary_colors.append(t.color)
        tne = vr.schedule.nonexec_tile
        assert max(core_colors) < min(boundary_colors) < tne.color

    # T_ne iterations never execute: count the rows kernels get on one rank
    vr = result.ranks[0]
    counter = {"n": 0}

    def tick(first, _second):
        counter["n"] += len(first)

    counting = KernelRegistry()
    for kid in ("edge_inc", "cell_inc", "edge_read"):
        counting.register(kid, tick, 2)
    execute_schedule(vr.schedule, vr.chain, vr.bindings, vr.datasets, counting)
    executable = sum(len(t.iteration_lists[j])
                     for t in vr.schedule.executable_tiles() for j in range(3))
    assert counter["n"] == executable
    assert sum(len(vr.schedule.nonexec_tile.iteration_lists[j])
               for j in range(3)) > 0  # T_ne is populated yet never ran

    # inverse-map roundtrip on 100 random maps
    rng = np.random.default_rng(2024)
    for _ in range(100):
        ns, nt = int(rng.integers(1, 40)), int(rng.integers(1, 20))
        arity = int(rng.integers(1, 4))
        src = IterationSpace("src", ns)
        tgt = IterationSpace("tgt", nt)
        m = MeshMap("m", src, tgt, arity, rng.integers(0, nt, size=ns * arity))
        inv = invert_map(m)
        forward = sorted((s, int(t)) for s in range(ns) for t in map_row(m, s))
        backward = sorted((int(s), t) for t in range(nt)
                          for s in sources_of(inv, t))
        assert forward == backward
    _passed(6, "partition, region confinement, color monotonicity, T_ne "
               "exclusion, and 100 inverse-map roundtrips all hold")


def test_criterion_7_determinism(registry):
    mesh = rcm_renumber(generate_rect_mesh(8, 4))
    chain, _, _ = global_setup(mesh, FIG2, depth=3)
    blobs = {inspect_chain(chain, 6, ExecMode.SHARED).serialize()
             for _ in range(2)}
    assert len(blobs) == 1, "cold inspections differ"

    cfg = RunConfig(nx=8, ny=4, renumber=True, problem=FIG2, depth=3,
                    mode=ExecMode.SHARED, nranks=2,
                    fusion=(SubChain(0, 2, 8), SubChain(2, 3, 8)))
    cache = {}
    cold = run_config(cfg, cache)
    assert len(cache) == len(cfg.fusion) and cold.inspect_seconds > 0
    warm = run_config(cfg, cache)
    assert len(cache) == len(cfg.fusion) and warm.inspect_seconds == 0
    assert [e.schedule for e in cold.inspected] == [
        e.schedule for e in warm.inspected]
    for name in cold.values:
        np.testing.assert_array_equal(cold.values[name], warm.values[name])
    _passed(7, "cold inspections serialize byte-identically; cached runs "
               "match cold runs")


def test_criterion_8_vtk_validity(tmp_path):
    mesh = rcm_renumber(generate_rect_mesh(8, 4))
    chain, _, _ = global_setup(mesh, FIG2, depth=3)
    schedule = inspect_chain(chain, 6, ExecMode.SHARED)
    path = tmp_path / "tiles.vtk"
    export_vtk(schedule, chain, mesh, str(path))
    parsed = parse_vtk(str(path))
    assert len(parsed["points"]) == mesh.num_vertices
    assert len(parsed["cells"]) == mesh.num_cells
    tile_of = schedule.tile_of(1, mesh.num_cells)
    colors = np.array([schedule.tiles[t].color for t in tile_of.tolist()])
    assert np.array_equal(parsed["cell_data"]["tile_id"], tile_of)
    assert np.array_equal(parsed["cell_data"]["color"], colors)
    assert np.array_equal(parsed["cells"],
                          mesh.cells_to_vertices.reshape(-1, 3))
    _passed(8, "exported VTK reparses with correct counts and fields matching "
               "the in-memory schedule")


def test_criterion_9_projection_tiling_dominates():
    mesh = rcm_renumber(generate_rect_mesh(16, 8))
    chain, _, _ = global_setup(mesh, FIG2, depth=3)
    inspect_chain(chain, 16, ExecMode.SHARED)  # warm-up
    # each phase summed over the repeated inspections of a mode, so that one
    # sub-millisecond timing cannot decide the dominant phase
    totals = {mode: InspectionStats() for mode in MODES}
    for _ in range(3):
        for mode in MODES:
            stats = inspect_chain(chain, 16, mode).stats
            for f in dataclasses.fields(stats):
                setattr(totals[mode], f.name,
                        getattr(totals[mode], f.name) + getattr(stats, f.name))
    shares = []
    for mode, total in totals.items():
        name, share = total.dominant_phase()
        assert name == "projection_tiling", (
            f"dominant phase in {mode.value} mode was {name} ({share:.1%})")
        shares.append(share)
    _passed(9, f"projection+tiling dominates inspection on the 16x8 mesh "
               f"(shares {min(shares):.1%}..{max(shares):.1%})")
