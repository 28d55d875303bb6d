import dataclasses

import numpy as np
import pytest

from looptile.chain import AccessMode, IterationSpace
from looptile.distsim import setup_ranks
from looptile.errors import ExecutionError, StaleScheduleError
from looptile.executor import (Dataset, KernelRegistry, execute_schedule,
                               execute_untiled, integer_valued)
from looptile.inspector import (ExecMode, LoopTiling, compute_local_maps,
                                inspect_chain)
from looptile.mesh import generate_rect_mesh
from looptile.problems import (FIG2, AccessSpec, DatasetSpec, LoopSpec, Problem,
                               default_registry, global_setup)

from conftest import assert_values_equal, dataset_values, numpy_registry

R, W, I = AccessMode.READ, AccessMode.WRITE, AccessMode.INC


def ones_inputs(datasets):
    datasets["edge_w"].values[:] = 1.0
    datasets["cell_w"].values[:] = 1.0
    datasets["vertex_acc"].values[:] = 0.0
    datasets["edge_out"].values[:] = 0.0


def test_duplicate_kernel_registration_rejected():
    registry = KernelRegistry()
    registry.register("k", lambda a: None, 1)
    with pytest.raises(ExecutionError, match="already registered"):
        registry.register("k", lambda a: None, 1)


def _assert_rejected_before_any_write(mesh, loop, match):
    """FIG2's first loop, then ``loop``: every run raises and changes nothing."""
    def spread(src, dst):
        dst += src.sum(axis=1, keepdims=True)

    def scatter(x, verts):
        verts[:] = x[:, None]

    registry = default_registry()
    registry.register("spread", spread, 2)
    registry.register("scatter", scatter, 2)
    problem = Problem("rejected", (FIG2.loops[0], loop), FIG2.datasets + (
        DatasetSpec("v", "verts", 1, "ramp"), DatasetSpec("ew", "edges", 1, "ramp")))
    chain, datasets, bindings = global_setup(mesh, problem, depth=2)
    before = dataset_values(datasets)
    with pytest.raises(ExecutionError, match=match):
        execute_untiled(chain, bindings, datasets, registry)
    assert_values_equal(before, dataset_values(datasets))
    for ts in (4, 16):
        schedule = inspect_chain(chain, ts, ExecMode.SHARED)
        with pytest.raises(ExecutionError, match=match):
            execute_schedule(schedule, chain, bindings, datasets, registry)
        assert_values_equal(before, dataset_values(datasets))


def test_dataset_incremented_and_read_in_one_loop_rejected(mesh_8x4):
    # cell c would read vertex values that cells before it in the same loop
    # have already incremented; tiles would see other orders of those updates
    loop = LoopSpec("cells", "spread", (AccessSpec("c2v", R, "v"),
                                        AccessSpec("c2v", I, "v")))
    _assert_rejected_before_any_write(mesh_8x4, loop, "'v' is written and bound")


def test_mapped_write_rejected(mesh_8x4):
    # edges sharing a vertex would each store to it; the last store wins,
    # and which store is last depends on the tiling
    loop = LoopSpec("edges", "scatter", (AccessSpec(None, R, "ew"),
                                         AccessSpec("e2v", W, "v")))
    _assert_rejected_before_any_write(mesh_8x4, loop, "'v' is written through map 'e2v'")


def _edge_chain(out_mode):
    """FIG2's first and last loops, edge_read's output bound in ``out_mode``."""
    problem = Problem("edge_pair", (
        FIG2.loops[0],
        LoopSpec("edges", "edge_read", (AccessSpec(None, out_mode, "edge_out"),
                                        AccessSpec("e2v", R, "vertex_acc")))),
        FIG2.datasets)
    return global_setup(generate_rect_mesh(4, 3), problem, depth=2)


@pytest.mark.parametrize("out_mode", [W, I])
def test_edge_read_output_bound_as_write_or_increment(registry, out_mode):
    # a write stores the vertex sum; an increment adds it to the live value
    chain, datasets, bindings = _edge_chain(out_mode)
    datasets["edge_out"].values[:] = 5.0
    expected = {n: ds.copy() for n, ds in datasets.items()}
    execute_untiled(chain, bindings, expected, registry)
    pairs = chain.loops[1].descriptors[1].map.values.reshape(-1, 2)
    vertex_sum = expected["vertex_acc"].values[pairs].sum(axis=1)
    base = 5.0 if out_mode is I else 0.0
    np.testing.assert_array_equal(expected["edge_out"].values, base + vertex_sum)

    schedule = inspect_chain(chain, 5, ExecMode.SHARED)
    execute_schedule(schedule, chain, bindings, datasets, registry)
    assert_values_equal(dataset_values(expected), dataset_values(datasets))


def test_untiled_hand_check_on_unit_mesh(registry):
    # all-ones inputs: each vertex collects one unit per incident edge and
    # cell; each edge output sums its two vertex values
    mesh = generate_rect_mesh(1, 1)
    chain, datasets, bindings = global_setup(mesh, FIG2, depth=3)
    ones_inputs(datasets)
    execute_untiled(chain, bindings, datasets, registry)
    tri = mesh.cells_to_vertices.reshape(-1, 3)
    pairs = mesh.edges_to_vertices.reshape(-1, 2)
    for v in range(mesh.num_vertices):
        incident_edges = int(np.count_nonzero(pairs == v))
        incident_cells = int(np.count_nonzero(tri == v))
        assert datasets["vertex_acc"].values[v] == incident_edges + incident_cells
    for e, (a, b) in enumerate(pairs.tolist()):
        expected = (datasets["vertex_acc"].values[a]
                    + datasets["vertex_acc"].values[b])
        assert datasets["edge_out"].values[e] == expected


def test_zero_inputs_stay_zero(registry):
    mesh = generate_rect_mesh(2, 2)
    chain, datasets, bindings = global_setup(mesh, FIG2, depth=3)
    for ds in datasets.values():
        ds.values[:] = 0.0
    execute_untiled(chain, bindings, datasets, registry)
    for ds in datasets.values():
        assert np.all(ds.values == 0.0)


def test_increment_chains_accumulate_linearly(registry):
    mesh = generate_rect_mesh(3, 2)
    chain, datasets, bindings = global_setup(mesh, FIG2, depth=3)
    execute_untiled(chain, bindings, datasets, registry)
    once = dataset_values(datasets)
    execute_untiled(chain, bindings, datasets, registry)
    np.testing.assert_array_equal(datasets["vertex_acc"].values,
                                  2 * once["vertex_acc"])
    np.testing.assert_array_equal(datasets["edge_out"].values,
                                  2 * once["edge_out"])
    # pure inputs are untouched
    np.testing.assert_array_equal(datasets["edge_w"].values, once["edge_w"])


def test_single_tile_schedule_matches_untiled_bitwise(registry):
    mesh = generate_rect_mesh(4, 2)
    chain, datasets, bindings = global_setup(mesh, FIG2, depth=3)
    execute_untiled(chain, bindings, datasets, registry)
    expected = dataset_values(datasets)

    chain2, datasets2, bindings2 = global_setup(mesh, FIG2, depth=3)
    schedule = inspect_chain(chain2, 10_000, ExecMode.SEQUENTIAL)
    execute_schedule(schedule, chain2, bindings2, datasets2, registry)
    assert_values_equal(expected, dataset_values(datasets2))


def test_tiled_matches_untiled_on_8x4(registry, mesh_8x4):
    chain, datasets, bindings = global_setup(mesh_8x4, FIG2, depth=3)
    execute_untiled(chain, bindings, datasets, registry)
    expected = dataset_values(datasets)

    chain2, datasets2, bindings2 = global_setup(mesh_8x4, FIG2, depth=3)
    schedule = inspect_chain(chain2, 6, ExecMode.SHARED)
    report = execute_schedule(schedule, chain2, bindings2, datasets2, registry)
    assert_values_equal(expected, dataset_values(datasets2))
    assert set(report.phase_seconds) == {"core", "exchange_wait", "boundary"}
    assert sum(schedule.tiles_per_color.values()) == len(schedule.executable_tiles())


def test_kernel_invocations_match_executable_list_lengths(mesh_8x4):
    rows = [0, 0, 0]

    def counter(j):
        def tick(first, _second):
            rows[j] += len(first)
        return tick

    registry = KernelRegistry()
    for j, kernel_id in enumerate(("edge_inc", "cell_inc", "edge_read")):
        registry.register(kernel_id, counter(j), 2)
    chain, datasets, bindings = global_setup(mesh_8x4, FIG2, depth=3)
    schedule = inspect_chain(chain, 7, ExecMode.SHARED)
    execute_schedule(schedule, chain, bindings, datasets, registry)
    for j in range(3):
        executed = sum(len(t.iteration_lists[j])
                       for t in schedule.executable_tiles())
        assert rows[j] == executed
    # nothing from the non-exec tile ever ran
    tne = schedule.nonexec_tile
    assert sum(rows) == sum(len(t.iteration_lists[j])
                            for t in schedule.executable_tiles()
                            for j in range(3))
    assert all(len(tne.iteration_lists[j]) == 0 for j in range(3))


def _counting_registry(counts):
    """FIG2's kernel ids, each counting its calls and the rows it was given."""
    registry = KernelRegistry()
    for kernel_id in ("edge_inc", "cell_inc", "edge_read"):
        def tick(*args, key=kernel_id):
            counts[key, "calls"] = counts.get((key, "calls"), 0) + 1
            counts[key, "rows"] = counts.get((key, "rows"), 0) + len(args[0])

        registry.register(kernel_id, tick, 2)
    return registry


@pytest.mark.parametrize("mode", ["sequential", "shared", "distributed"])
def test_one_batch_call_per_nonempty_region_color_loop(mesh_8x4, mode):
    if mode == "distributed":
        # a rank's schedule, whose non-exec tile holds iterations
        vr = setup_ranks(mesh_8x4, FIG2, 2, [(0, 3, 5)], depth=3)[0][0]
        schedule, chain, bindings, datasets = (vr.schedule, vr.chain,
                                               vr.bindings, vr.datasets)
        assert any(len(lst) for lst in schedule.nonexec_tile.iteration_lists.values())
    else:
        chain, datasets, bindings = global_setup(mesh_8x4, FIG2, depth=3)
        schedule = inspect_chain(chain, 7, ExecMode(mode))
    counts = {}
    registry = _counting_registry(counts)
    execute_schedule(schedule, chain, bindings, datasets, registry)
    for j, loop in enumerate(chain.loops):
        lists = [(t.region, t.color, t.iteration_lists[j])
                 for t in schedule.executable_tiles()]
        nonempty = [(region, color) for region, color, lst in lists if len(lst)]
        assert counts[loop.kernel, "calls"] == len(set(nonempty))
        assert counts[loop.kernel, "rows"] == sum(len(lst) for _, _, lst in lists)
        if mode != "shared":
            # every tile has its own color
            assert len(set(nonempty)) == len(nonempty)

    # the unfused baseline runs each loop as one call over its executable elements
    counts.clear()
    execute_untiled(chain, bindings, datasets, registry)
    assert counts == {key: value for loop in chain.loops
                      for key, value in (((loop.kernel, "calls"), 1),
                                         ((loop.kernel, "rows"),
                                          loop.space.executable_size))}


def test_shared_plan_joins_same_colored_tiles(mesh_8x4):
    chain, datasets, bindings = global_setup(mesh_8x4, FIG2, depth=3)
    schedule = inspect_chain(chain, 7, ExecMode.SHARED)
    counts = {}
    execute_schedule(schedule, chain, bindings, datasets, _counting_registry(counts))
    calls = sum(counts[loop.kernel, "calls"] for loop in chain.loops)
    tile_loops = sum(1 for t in schedule.executable_tiles()
                     for lst in t.iteration_lists.values() if len(lst))
    runs = sum(int(tiling.bounds[edges[r]] < tiling.bounds[edges[r + 1]])
               for edges in schedule.runs.values() for r in range(len(edges) - 1)
               for tiling in schedule.tilings)
    assert calls == runs
    assert calls < tile_loops <= len(schedule.executable_tiles()) * len(chain.loops)


def test_stale_schedule_rejected(registry):
    mesh_a = generate_rect_mesh(2, 2)
    mesh_b = generate_rect_mesh(3, 2)
    chain_a, _, _ = global_setup(mesh_a, FIG2, depth=3)
    chain_b, datasets, bindings = global_setup(mesh_b, FIG2, depth=3)
    schedule = inspect_chain(chain_a, 4, ExecMode.SEQUENTIAL)
    with pytest.raises(StaleScheduleError):
        execute_schedule(schedule, chain_b, bindings, datasets, registry)


def test_missing_binding_rejected(registry):
    mesh = generate_rect_mesh(2, 1)
    chain, datasets, bindings = global_setup(mesh, FIG2, depth=3)
    with pytest.raises(ExecutionError):
        execute_untiled(chain, bindings[:-1], datasets, registry)
    del datasets["edge_out"]
    with pytest.raises(ExecutionError, match="edge_out"):
        execute_untiled(chain, bindings, datasets, registry)


@pytest.mark.parametrize("tiled", [False, True])
def test_unregistered_kernel_leaves_datasets_unchanged(tiled, mesh_8x4):
    # the third loop's kernel is missing: nothing may run, not even loops
    # 0-1, whose bodies would change vertex_acc
    def bump(x, verts):
        verts += 1.0

    registry = KernelRegistry()
    for kernel_id in ("edge_inc", "cell_inc"):
        registry.register(kernel_id, bump, 2)
    chain, datasets, bindings = global_setup(mesh_8x4, FIG2, depth=3)
    for ds in datasets.values():
        ds.values[:] = np.arange(len(ds.values))
    schedule = inspect_chain(chain, 6, ExecMode.SHARED)
    before = dataset_values(datasets)
    with pytest.raises(ExecutionError, match="edge_read"):
        if tiled:
            execute_schedule(schedule, chain, bindings, datasets, registry)
        else:
            execute_untiled(chain, bindings, datasets, registry)
    assert_values_equal(before, dataset_values(datasets))


@pytest.mark.parametrize("path", ["c", "numpy", "untiled", "untiled-wrong-size"])
def test_rejected_widths_leave_datasets_unchanged(path):
    chain, datasets, bindings = global_setup(generate_rect_mesh(4, 2), FIG2, depth=3)
    if path == "untiled-wrong-size":
        # edge_out on a 5-edge space of the right name: loop 2 would index
        # past it, after loops 0-1 have changed vertex_acc
        datasets["edge_out"] = Dataset("edge_out", IterationSpace("edges", 5), 1,
                                       np.zeros(5))
        match = "loop 2: argument 0 binds dataset 'edge_out'"
    else:
        # cell_w widened to 3 values per element: loop 1's cell_inc cannot add
        # them into 1-wide vertex values, after loop 0 has changed vertex_acc
        space = datasets["cell_w"].space
        datasets["cell_w"] = Dataset("cell_w", space, 3,
                                     np.arange(3 * space.total, dtype=np.float64))
        match = "loop 1: kernel 'cell_inc' rejects"
    registry = numpy_registry() if path == "numpy" else default_registry()
    before = dataset_values(datasets)
    with pytest.raises(ExecutionError, match=match):
        if path.startswith("untiled"):
            execute_untiled(chain, bindings, datasets, registry)
        else:
            schedule = inspect_chain(chain, 4, ExecMode.SEQUENTIAL)
            execute_schedule(schedule, chain, bindings, datasets, registry)
    assert_values_equal(before, dataset_values(datasets))


def test_width_probe_accepts_a_body_that_reads_a_fixed_row():
    # a new key's probe runs each numpy body on one element, so a body that
    # reads row 0, as it may on every real list, is not refused
    def edge_read(out, verts):
        out[:] = verts[:, 0] + verts[:, 1] + 0.0 * verts[0, 0, 0]

    c_registry = default_registry()
    registry = KernelRegistry()
    for kernel_id in ("edge_inc", "cell_inc", "edge_read", "cell_read"):
        body, nargs = c_registry.get(kernel_id)
        registry.register(kernel_id, edge_read if kernel_id == "edge_read" else body,
                          nargs, c=c_registry.c_body(kernel_id))
    runs = []
    for reg in (registry, c_registry):
        chain, datasets, bindings = global_setup(generate_rect_mesh(4, 2), FIG2, depth=3)
        schedule = inspect_chain(chain, 4, ExecMode.SEQUENTIAL)
        assert execute_schedule(schedule, chain, bindings, datasets, reg).backend == "c"
        runs.append(dataset_values(datasets))
    assert_values_equal(*runs)


def test_list_changed_without_local_maps_is_stale(registry, mesh_8x4):
    chain, datasets, bindings = global_setup(mesh_8x4, FIG2, depth=3)
    schedule = inspect_chain(chain, 6, ExecMode.SHARED)
    # drop the first iteration of loop 2's first non-empty tile, keep its local maps
    tiling = schedule.tilings[2]
    p = int(np.flatnonzero(np.diff(tiling.bounds))[0])
    bounds = tiling.bounds.copy()
    bounds[p + 1:] -= 1
    elements = np.delete(tiling.elements, tiling.bounds[p])
    with pytest.raises(StaleScheduleError, match="local map"):
        # the schedule checks its tilings when built, so no kernel can run it
        dataclasses.replace(schedule, tilings=(
            *schedule.tilings[:2], LoopTiling(elements, bounds, dict(tiling.rows))))

    # recomputing the local maps makes the (now incomplete) schedule runnable
    rows = compute_local_maps([*(t.elements for t in schedule.tilings[:2]), elements],
                              chain)[2]
    shorter = dataclasses.replace(schedule, tilings=(
        *schedule.tilings[:2], LoopTiling(elements, bounds, rows)))
    counts = {}
    execute_schedule(shorter, chain, bindings, datasets, _counting_registry(counts))
    assert counts[chain.loops[2].kernel, "rows"] == chain.loops[2].space.total - 1


def test_read_views_are_immutable():
    # read arguments are read-only gathered arrays
    def misbehaving(out, verts):
        verts[0][...] = 99.0

    registry = KernelRegistry()
    registry.register("edge_inc", lambda x, v: None, 2)
    registry.register("cell_inc", lambda r, v: None, 2)
    registry.register("edge_read", misbehaving, 2)
    for tiled in (False, True):
        chain, datasets, bindings = global_setup(generate_rect_mesh(1, 1), FIG2, depth=3)
        with pytest.raises(ExecutionError, match="read-only"):
            if tiled:
                schedule = inspect_chain(chain, 10_000, ExecMode.SEQUENTIAL)
                execute_schedule(schedule, chain, bindings, datasets, registry)
            else:
                execute_untiled(chain, bindings, datasets, registry)


def test_integer_valued_detection():
    assert integer_valued(np.array([1.0, -3.0, 0.0]))
    assert not integer_valued(np.array([1.0, 0.5]))
