import numpy as np
import pytest

from looptile.errors import ExecutionError, StaleScheduleError
from looptile.executor import (KernelRegistry, execute_schedule,
                               execute_untiled, integer_valued)
from looptile.inspector import ExecMode, compute_local_maps, inspect_chain
from looptile.mesh import generate_rect_mesh
from looptile.problems import FIG2, global_setup

from conftest import assert_values_equal, dataset_values


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
    assert sum(report.tiles_per_color.values()) == len(schedule.executable_tiles())


def test_kernel_invocations_match_executable_list_lengths(mesh_8x4):
    counts = [0, 0, 0]
    registry = KernelRegistry()
    registry.register("edge_inc", lambda x, v: counts.__setitem__(0, counts[0] + 1), 2)
    registry.register("cell_inc", lambda r, v: counts.__setitem__(1, counts[1] + 1), 2)
    registry.register("edge_read", lambda o, v: counts.__setitem__(2, counts[2] + 1), 2)
    chain, datasets, bindings = global_setup(mesh_8x4, FIG2, depth=3)
    schedule = inspect_chain(chain, 7, ExecMode.SHARED)
    execute_schedule(schedule, chain, bindings, datasets, registry)
    for j, expected in enumerate(counts):
        executed = sum(len(t.iteration_lists[j])
                       for t in schedule.executable_tiles())
        assert counts[j] == executed
    # nothing from the non-exec tile ever ran
    tne = schedule.nonexec_tile
    assert sum(counts) == sum(len(t.iteration_lists[j])
                              for t in schedule.executable_tiles()
                              for j in range(3))
    assert all(len(tne.iteration_lists[j]) == 0 for j in range(3))


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
    # the third loop's kernel is missing: nothing may run, not even loops 0-1
    registry = KernelRegistry()
    registry.register("edge_inc", lambda x, v: None, 2)
    registry.register("cell_inc", lambda r, v: None, 2)
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


def test_list_changed_without_local_maps_is_stale(registry, mesh_8x4):
    chain, datasets, bindings = global_setup(mesh_8x4, FIG2, depth=3)
    schedule = inspect_chain(chain, 6, ExecMode.SHARED)
    tile = next(t for t in schedule.executable_tiles()
                if len(t.iteration_lists[2]))
    tile.iteration_lists[2] = tile.iteration_lists[2][1:]
    before = dataset_values(datasets)
    with pytest.raises(StaleScheduleError, match="local map"):
        execute_schedule(schedule, chain, bindings, datasets, registry)
    assert_values_equal(before, dataset_values(datasets))

    # recomputing the local maps makes the (now incomplete) schedule runnable
    compute_local_maps(schedule.tiles, chain)
    execute_schedule(schedule, chain, bindings, datasets, registry)


def test_read_views_are_immutable():
    registry = KernelRegistry()

    def misbehaving(out, verts):
        verts[0][...] = 99.0

    registry.register("edge_inc", lambda x, v: None, 2)
    registry.register("cell_inc", lambda r, v: None, 2)
    registry.register("edge_read", misbehaving, 2)
    mesh = generate_rect_mesh(1, 1)
    chain, datasets, bindings = global_setup(mesh, FIG2, depth=3)
    with pytest.raises(ValueError, match="read-only"):
        execute_untiled(chain, bindings, datasets, registry)


def test_integer_valued_detection():
    assert integer_valued(np.array([1.0, -3.0, 0.0]))
    assert not integer_valued(np.array([1.0, 0.5]))
