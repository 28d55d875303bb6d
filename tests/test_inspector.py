import dataclasses
import functools
import hashlib
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from looptile import inspector
from looptile.chain import (AccessMode, Descriptor, IterationSpace, Loop,
                            MeshMap, Region, build_chain)
from looptile.cli import build_mesh
from looptile.config import parse_config
from looptile.distsim import setup_ranks
from looptile.errors import InspectionError
from looptile.executor import (Dataset, KernelBinding, KernelRegistry,
                               execute_schedule, execute_untiled)
from looptile.inspector import (NO_TILE, ConflictKeys, ExecMode, Passes,
                                assign, build_schedule, color_tiles,
                                find_seed_map, inspect_chain, partition_seed,
                                project, seed_adjacency, tile_loop)
from looptile.mesh import generate_rect_mesh, rcm_renumber
from looptile.partition import partition_for_ranks
from looptile.problems import (EIGHT_LOOP, FIG2, PRESETS, Problem,
                               global_setup, local_setup)

from conftest import map_row
from legality import check_legality, footprint_conflicts
from reference_inspector import project_reference, tile_loop_reference


# -- seeding ------------------------------------------------------------------

def test_seed_chunks_of_four():
    space = IterationSpace("s", 10)
    seed, regions = partition_seed(space, 4)
    sizes = [np.count_nonzero(seed == t) for t in range(len(regions))]
    assert sizes == [4, 4, 2, 0]  # last tile is the empty non-exec tile
    assert regions.tolist() == [Region.CORE] * 3 + [Region.NONEXEC]


def test_seed_single_chunk_when_ts_covers_everything():
    space = IterationSpace("s", 5, 3, 2)
    seed, regions = partition_seed(space, 100)
    assert regions.tolist() == [Region.CORE, Region.BOUNDARY, Region.NONEXEC]
    assert np.count_nonzero(seed == 0) == 5
    assert np.count_nonzero(seed == 1) == 3
    assert np.count_nonzero(seed == 2) == 2


def test_seed_region_chunking_formula():
    space = IterationSpace("s", 9, 4, 3)
    seed, regions = partition_seed(space, 3)
    assert regions.tolist() == ([Region.CORE] * 3 + [Region.BOUNDARY] * 2
                                + [Region.NONEXEC])
    for e in range(9):
        assert seed[e] == e // 3
    for e in range(9, 13):
        assert seed[e] == 3 + (e - 9) // 3
    assert np.all(seed[13:] == 5)


def test_seed_rejects_zero_tile_size():
    with pytest.raises(ValueError):
        partition_seed(IterationSpace("s", 4), 0)


# -- coloring -----------------------------------------------------------------

NO_PAIRS = np.empty(0, dtype=np.int64)


def test_greedy_coloring_reuses_colors_across_unconnected_tiles():
    # four single-edge tiles; targets arranged so tile 0 and tile 3 never meet
    edges = IterationSpace("edges", 4)
    verts = IterationSpace("verts", 4)
    seed_map = MeshMap("e2v", edges, verts, 2,
                       np.array([0, 1, 0, 2, 1, 2, 2, 3]))
    seed, regions = partition_seed(edges, 1)
    colors = color_tiles(regions, seed_adjacency(seed, len(regions), seed_map),
                         ExecMode.SHARED).tolist()
    assert colors[0] == colors[3]
    assert len(set(colors[:-1])) == 3
    assert colors[-1] > max(colors[:-1])


def test_single_tile_gets_color_zero():
    space = IterationSpace("s", 7)
    seed, regions = partition_seed(space, 100)
    colors = color_tiles(regions, seed_adjacency(seed, len(regions), None),
                         ExecMode.SHARED)
    assert colors[0] == 0


def test_distributed_colors_follow_region_order():
    space = IterationSpace("s", 8, 8, 3)
    _, regions = partition_seed(space, 4)  # 2 core + 2 boundary + T_ne
    colors = color_tiles(regions, NO_PAIRS, ExecMode.DISTRIBUTED)
    assert colors.tolist() == [0, 1, 2, 3, 4]
    core_max = colors[regions == Region.CORE].max()
    boundary = colors[regions == Region.BOUNDARY]
    assert boundary.min() > core_max
    assert colors[-1] > boundary.max()


def test_fake_connections_force_distinct_colors():
    edges = IterationSpace("edges", 4)
    _, regions = partition_seed(edges, 1)
    colors = color_tiles(regions, NO_PAIRS, ExecMode.SHARED)
    assert colors[0] == colors[3]  # no adjacency at all
    colors = color_tiles(regions, np.array([3]), ExecMode.SHARED)  # key of (0, 3)
    assert colors[0] != colors[3]


# -- projection ---------------------------------------------------------------

def projected(loop, sigma, phi, colors):
    """The projections after loop's projection of ``sigma`` over (a copy of)
    ``phi``, bound and run once, and the conflict keys it wrote."""
    passes = Passes(colors, phi)
    step = passes.projection(loop, sigma)
    conflicts = ConflictKeys(step.max_keys)
    project(step, conflicts)
    passes.check()
    return passes.phi, conflicts


def tiled(loop, phi, colors):
    """Loop's tiling array over every element from the projections ``phi``,
    bound and run once, and the conflict keys it wrote."""
    passes = Passes(colors, phi)
    step = passes.tiling(loop)
    conflicts = ConflictKeys(step.max_keys)
    sigma = tile_loop(step, conflicts)
    passes.check()
    return sigma, conflicts


def degree_seven_vertex():
    """Vertex 0 with seven incident edges: two in tile 0, five in tile 1.

    Tile 2 is the non-exec tile; tile i has color i."""
    edges = IterationSpace("edges", 7)
    verts = IterationSpace("verts", 8)
    values = np.array([[0, i + 1] for i in range(7)]).ravel()
    e2v = MeshMap("e2v", edges, verts, 2, values)
    colors = np.array([0, 1, 2])
    sigma = np.array([0, 0, 1, 1, 1, 1, 1])
    loop = Loop(0, edges, (Descriptor(e2v, AccessMode.INC),), "k")
    return loop, sigma, colors, e2v


def test_projection_keeps_last_writing_tile():
    loop, sigma, colors, e2v = degree_seven_vertex()
    phi, conflicts = projected(loop, sigma, {}, colors)
    assert phi["verts"][0] == 1  # the higher-priority toucher wins
    assert not conflicts.count


def test_projection_constant_when_one_tile_touches_everything():
    loop, _, colors, e2v = degree_seven_vertex()
    phi, _ = projected(loop, np.zeros(7, dtype=np.int64), {}, colors)
    touched = phi["verts"][phi["verts"] >= 0]
    assert np.all(touched == 0)


@given(st.integers(0, 10_000))
@settings(max_examples=25)
def test_projection_matches_bruteforce_max(seed):
    rng = np.random.default_rng(seed)
    edges = IterationSpace("edges", 30)
    verts = IterationSpace("verts", 12)
    e2v = MeshMap("e2v", edges, verts, 2, rng.integers(0, 12, size=60))
    n_tiles = 5
    colors = np.append(rng.integers(0, 4, size=n_tiles), 10)  # + non-exec tile
    sigma = rng.integers(0, n_tiles, size=30)
    loop = Loop(0, edges, (Descriptor(e2v, AccessMode.INC),), "k")
    got = projected(loop, sigma, {}, colors)[0]["verts"]
    for v in range(12):
        touchers = [int(sigma[e]) for e in range(30) if v in map_row(e2v, e)]
        if not touchers:
            assert got[v] == NO_TILE
        else:
            best = max(touchers, key=lambda t: colors[t])
            assert colors[int(got[v])] == colors[best]


def test_projection_never_decreases_across_loops():
    # second loop's writers all sit in a lower-color tile; projection keeps max
    loop, sigma, colors, e2v = degree_seven_vertex()
    passes = Passes(colors)
    project(passes.projection(loop, sigma))
    before = passes.phi["verts"].copy()
    project(passes.projection(Loop(1, loop.space, loop.descriptors, "k"),
                              np.zeros(7, dtype=np.int64)))
    after = passes.phi["verts"]
    for v in range(8):
        if before[v] >= 0:
            assert colors[int(after[v])] >= colors[int(before[v])]


# -- tiling -------------------------------------------------------------------

def test_tiling_takes_max_color_over_footprint():
    # cell reading vertices projected (B, G, G) must join the B tile
    cells = IterationSpace("cells", 1)
    verts = IterationSpace("verts", 3)
    c2v = MeshMap("c2v", cells, verts, 3, np.array([0, 1, 2]))
    colors = np.array([0, 1, 2])
    phi = {"verts": np.array([1, 0, 0])}
    loop = Loop(1, cells, (Descriptor(c2v, AccessMode.INC),), "k")
    assert tiled(loop, phi, colors)[0][0] == 1


def test_tiling_is_constant_with_one_tile():
    cells = IterationSpace("cells", 4)
    verts = IterationSpace("verts", 4)
    c2v = MeshMap("c2v", cells, verts, 3, np.zeros(12, dtype=np.int64))
    phi = {"verts": np.zeros(4, dtype=np.int64)}
    loop = Loop(1, cells, (Descriptor(c2v, AccessMode.READ),), "k")
    assert np.all(tiled(loop, phi, np.array([0, 1]))[0] == 0)


def test_tiling_without_any_projection_is_an_error():
    cells = IterationSpace("cells", 2)
    loop = Loop(1, cells, (Descriptor(None, AccessMode.READ),), "k")
    with pytest.raises(InspectionError):
        tiled(loop, {}, np.array([0]))


def test_cell_tiling_matches_bruteforce_on_4x2_mesh():
    # replay the first inspection steps and compare the cells loop's tiling
    # against a direct max-color evaluation over each cell's vertices
    mesh = generate_rect_mesh(4, 2)
    chain, _, _ = global_setup(mesh, FIG2, depth=3)
    seed, regions = partition_seed(chain.loops[0].space, 4)
    colors = color_tiles(
        regions, seed_adjacency(seed, len(regions), find_seed_map(chain)),
        ExecMode.SHARED)
    passes = Passes(colors)
    project(passes.projection(chain.loops[0], seed))
    sigma1 = tile_loop(passes.tiling(chain.loops[1]))
    passes.check()

    c2v = next(m for m in chain.maps if m.name == "c2v")
    phi_v = passes.phi["verts"]
    for c in range(mesh.num_cells):
        candidates = [int(phi_v[v]) for v in map_row(c2v, c)]
        best_color = max(colors[t] for t in candidates)
        assert colors[int(sigma1[c])] == best_color


def test_direct_descriptor_over_untouched_space_is_skipped():
    # the mapped descriptor still provides a total assignment
    cells = IterationSpace("cells", 2)
    verts = IterationSpace("verts", 2)
    c2v = MeshMap("c2v", cells, verts, 3, np.array([0, 1, 0, 1, 0, 1]))
    phi = {"verts": np.zeros(2, dtype=np.int64)}
    loop = Loop(1, cells, (Descriptor(None, AccessMode.READ),
                           Descriptor(c2v, AccessMode.INC)), "k")
    assert np.all(tiled(loop, phi, np.array([0, 1]))[0] == 0)


# -- assignment ---------------------------------------------------------------

def test_assign_splits_space_across_tiles():
    sigma = np.array([2, 0, 1, 0, 2, 1, 0, 0, 2])

    def runs(position):
        elements, bounds = assign(sigma, position)
        return [elements[a:b].tolist() for a, b in zip(bounds[:-1], bounds[1:])]

    assert runs(np.arange(3)) == [[1, 3, 6, 7], [2, 5], [0, 4, 8]]
    # tile 2 runs first, then tile 0, then tile 1
    assert runs(np.array([1, 2, 0])) == [[0, 4, 8], [1, 3, 6, 7], [2, 5]]


@given(st.integers(0, 10_000))
@settings(max_examples=25)
def test_assign_partitions_whole_space(seed):
    rng = np.random.default_rng(seed)
    n, n_tiles = 40, 6
    sigma = rng.integers(0, n_tiles, size=n)
    position = rng.permutation(n_tiles)
    elements, bounds = assign(sigma, position)
    assert sorted(elements.tolist()) == list(range(n))
    for p in range(n_tiles):
        lst = elements[bounds[p]:bounds[p + 1]].tolist()
        assert lst == sorted(lst)
        assert all(position[sigma[e]] == p for e in lst)


# -- local maps ---------------------------------------------------------------

def test_local_map_restricts_rows_in_list_order():
    mesh = generate_rect_mesh(2, 2)
    chain, _, _ = global_setup(mesh, FIG2, depth=3)
    schedule = inspect_chain(chain, 4, ExecMode.SEQUENTIAL)
    e2v = chain.maps[1] if chain.maps[1].name == "e2v" else chain.maps[0]
    for tile in schedule.tiles:
        elements = tile.iteration_lists[0]
        expected = e2v.values.reshape(-1, 2)[elements].ravel()
        assert np.array_equal(tile.local_maps[(0, "e2v")], expected)


def test_local_map_of_empty_list_is_empty():
    space = IterationSpace("edges", 4)
    verts = IterationSpace("verts", 4)
    e2v = MeshMap("e2v", space, verts, 2, np.array([0, 1, 1, 2, 2, 3, 3, 0]))
    loop = Loop(0, space, (Descriptor(e2v, AccessMode.INC),), "k")
    chain = build_chain((space, verts), (e2v,), (loop,), depth=1)
    schedule = build_schedule(chain, ExecMode.SEQUENTIAL,
                              np.array([Region.CORE, Region.NONEXEC]), np.arange(2),
                              [np.zeros(4, dtype=np.int64)], recolor_rounds=1)
    assert len(schedule.nonexec_tile.local_maps[(0, "e2v")]) == 0
    assert np.array_equal(schedule.tiles[0].local_maps[(0, "e2v")], e2v.values)


def test_tile_views_are_read_only():
    chain, _, _ = global_setup(generate_rect_mesh(4, 2), FIG2, depth=3)
    tile = inspect_chain(chain, 4, ExecMode.SHARED).tiles[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        tile.color = 5
    with pytest.raises(TypeError):
        tile.iteration_lists[0] = np.arange(2)
    with pytest.raises(TypeError):
        tile.local_maps[(0, "e2v")] = np.arange(2)
    with pytest.raises(ValueError, match="read-only"):
        tile.iteration_lists[0][0] = 0
    with pytest.raises(ValueError, match="read-only"):
        tile.local_maps[(0, "e2v")][0] = 0


# -- full inspection ----------------------------------------------------------

def test_single_tile_inspection_is_conflict_free_in_one_round():
    mesh = generate_rect_mesh(2, 1)
    chain, _, _ = global_setup(mesh, FIG2, depth=3)
    schedule = inspect_chain(chain, 1000, ExecMode.SHARED)
    assert schedule.recolor_rounds == 1
    assert len(schedule.executable_tiles()) == 1


def test_conflict_regression_two_same_colored_tiles_meet():
    # thin strip + tiny tiles: two same-colored tiles grow adjacent while
    # tiling the last loop, forcing a fake connection and a recoloring round
    mesh = rcm_renumber(generate_rect_mesh(4, 1))
    chain, _, _ = global_setup(mesh, FIG2, depth=3)
    schedule = inspect_chain(chain, 2, ExecMode.SHARED)
    assert schedule.recolor_rounds >= 2
    assert footprint_conflicts(chain, schedule) == []
    assert check_legality(chain, schedule) == []


def test_tiles_are_filled_once_after_the_last_round(monkeypatch):
    # the recoloring rounds pass tile arrays; only the converged round's
    # arrays become the schedule's tilings, one assign call per loop
    calls = []
    original = inspector.assign

    def counted(sigma, position):
        calls.append(len(sigma))
        return original(sigma, position)

    monkeypatch.setattr(inspector, "assign", counted)
    mesh = rcm_renumber(generate_rect_mesh(4, 1))
    chain, _, _ = global_setup(mesh, FIG2, depth=3)
    schedule = inspector.inspect_chain(chain, 2, ExecMode.SHARED)
    assert schedule.recolor_rounds >= 2
    assert calls == [loop.space.total for loop in chain.loops]


def counted_passes(monkeypatch):
    """The (name, loop index) of every ``project`` and ``tile_loop`` call
    made from now on through the module's own names."""
    calls = []
    for name in ("project", "tile_loop"):
        def counted(step, conflicts=None, name=name, original=getattr(inspector, name)):
            calls.append((name, step.loop.index))
            return original(step, conflicts)
        monkeypatch.setattr(inspector, name, counted)
    return calls


def test_each_round_projects_and_tiles_every_loop_once(monkeypatch):
    # the passes are bound once, but every round still runs each projection
    # and tiling through the module's own names, in chain order
    calls = counted_passes(monkeypatch)
    mesh = rcm_renumber(generate_rect_mesh(4, 1))
    chain, _, _ = global_setup(mesh, FIG2, depth=3)
    schedule = inspector.inspect_chain(chain, 2, ExecMode.SHARED)
    assert schedule.recolor_rounds >= 2
    one_round = [call for j in range(1, len(chain.loops))
                 for call in (("project", j - 1), ("tile_loop", j))]
    assert calls == one_round * schedule.recolor_rounds


@pytest.mark.parametrize("mode", [ExecMode.SEQUENTIAL, ExecMode.SHARED],
                         ids=lambda m: m.value)
def test_a_scattering_last_loop_is_projected_every_shared_round(mode, monkeypatch):
    # FIG2's loop 1 increments vertices through c2v and nothing projects it
    # after: shared mode projects it once more at the end of every round
    calls = counted_passes(monkeypatch)
    mesh = rcm_renumber(generate_rect_mesh(8, 4))
    chain, _, _ = global_setup(mesh, Problem("sub", FIG2.loops[:2], FIG2.datasets), 2)
    schedule = inspector.inspect_chain(chain, 4, mode)
    one_round = [("project", 0), ("tile_loop", 1)]
    if mode is ExecMode.SHARED:
        assert schedule.recolor_rounds >= 2
        one_round.append(("project", 1))
    assert calls == one_round * schedule.recolor_rounds


class _KeysRecorder:
    """Wraps the compiled passes and records the keys argument of each
    projection and tiling call."""

    def __init__(self, lib):
        self.lib, self.keys = lib, []

    def __getattr__(self, name):
        fn = getattr(self.lib, name)

        def call(*args):
            if name != "looptile_color":
                self.keys.append(args[-1])
            return fn(*args)
        return call


@pytest.mark.parametrize("mode", list(ExecMode), ids=lambda m: m.value)
def test_key_buffers_exist_only_where_colors_repeat(mode, monkeypatch):
    # every tile has its own color in sequential and distributed modes, so
    # no pass may be handed a conflict key buffer there
    mesh = rcm_renumber(generate_rect_mesh(8, 4))
    if mode is ExecMode.DISTRIBUTED:
        chain, _, _ = local_setup(partition_for_ranks(mesh, 2, 3)[0], FIG2, 3)
    else:
        chain, _, _ = global_setup(mesh, FIG2, depth=3)
    recorder = _KeysRecorder(inspector._lib())
    monkeypatch.setattr(inspector, "_LIB", recorder)
    inspect_chain(chain, 4, mode)
    assert recorder.keys
    if mode is ExecMode.SHARED:
        assert all(k is not None for k in recorder.keys)
    else:
        assert all(k is None for k in recorder.keys)


def test_inspection_is_deterministic():
    mesh = generate_rect_mesh(8, 4)
    chain, _, _ = global_setup(mesh, FIG2, depth=3)
    a = inspect_chain(chain, 4, ExecMode.SHARED)
    b = inspect_chain(chain, 4, ExecMode.SHARED)
    assert a.serialize() == b.serialize()


def test_partition_invariant_holds_for_every_loop():
    mesh = generate_rect_mesh(8, 4)
    chain, _, _ = global_setup(mesh, FIG2, depth=3)
    schedule = inspect_chain(chain, 6, ExecMode.SHARED)
    for j, loop in enumerate(chain.loops):
        concatenated = np.concatenate(
            [t.iteration_lists[j] for t in schedule.tiles])
        assert sorted(concatenated.tolist()) == list(range(loop.space.total))


@functools.cache
def legality_mesh(name):
    """The meshes the legality property draws from, built once each."""
    nx, ny, rcm = {"4x2": (4, 2, False), "8x4": (8, 4, False),
                   "8x4-rcm": (8, 4, True)}[name]
    mesh = generate_rect_mesh(nx, ny)
    return rcm_renumber(mesh) if rcm else mesh


@st.composite
def preset_subchains(draw):
    """(preset name, start, stop): loops [start, stop) of FIG2 or EIGHT_LOOP."""
    name = draw(st.sampled_from(sorted(PRESETS)))
    n = len(PRESETS[name].loops)
    start = draw(st.integers(0, n - 1))
    return name, start, draw(st.integers(start + 1, n))


@given(subchain=preset_subchains(), mesh=st.sampled_from(["4x2", "8x4", "8x4-rcm"]),
       ts=st.integers(1, 40), shared=st.booleans())
@example(subchain=("fig2", 0, 3), mesh="4x2", ts=4, shared=True)
# two same-colored cell tiles increment one vertex in the last loop
@example(subchain=("fig2", 0, 2), mesh="8x4-rcm", ts=4, shared=True)
@settings(max_examples=60)
def test_inspection_legality_property(subchain, mesh, ts, shared):
    name, start, stop = subchain
    problem = PRESETS[name]
    sub = Problem(name, problem.loops[start:stop], problem.datasets)
    chain, _, _ = global_setup(legality_mesh(mesh), sub, depth=stop - start)
    mode = ExecMode.SHARED if shared else ExecMode.SEQUENTIAL
    schedule = inspect_chain(chain, ts, mode)
    assert check_legality(chain, schedule) == []
    assert footprint_conflicts(chain, schedule) == []


def self_map_chain():
    """Loop 0 runs A[nbr(e)] += B[e], its mapped increment listed first, over
    20 elements with nbr(e) = (e + 7) mod 20; loop 1 copies A to C.
    Returns the chain, bindings, registry and a maker of fresh datasets."""
    space = IterationSpace("v", 20)
    nbr = MeshMap("nbr", space, space, 1, (np.arange(20) + 7) % 20)
    loops = (Loop(0, space, (Descriptor(nbr, AccessMode.INC),
                             Descriptor(None, AccessMode.READ)), "scatter"),
             Loop(1, space, (Descriptor(None, AccessMode.WRITE),
                             Descriptor(None, AccessMode.READ)), "copy"))
    chain = build_chain((space,), (nbr,), loops, depth=2)
    bindings = (KernelBinding("scatter", ("A", "B")), KernelBinding("copy", ("C", "A")))

    def scatter(a, b):
        a[:, 0] += b

    def copy(c, a):
        c[:] = a

    registry = KernelRegistry()
    registry.register("scatter", scatter, 2)
    registry.register("copy", copy, 2)

    def fresh():
        return {name: Dataset(name, space, 1, values) for name, values in
                (("A", np.zeros(20)), ("B", np.arange(20) + 1.0), ("C", np.zeros(20)))}
    return chain, bindings, registry, fresh


@pytest.mark.parametrize("mode", [ExecMode.SEQUENTIAL, ExecMode.SHARED],
                         ids=lambda m: m.value)
@pytest.mark.parametrize("ts", [1, 3, 4, 7])
def test_map_into_its_own_space_projects_over_the_direct_access(mode, ts):
    # the loop's direct access must not replace what its self map projected:
    # loop 1 reads A[e] only after the tile of (e - 7) mod 20 increments it
    chain, bindings, registry, fresh = self_map_chain()
    want = fresh()
    execute_untiled(chain, bindings, want, registry)
    got = fresh()
    execute_schedule(inspect_chain(chain, ts, mode), chain, bindings, got, registry)
    for name in want:
        np.testing.assert_array_equal(got[name].values, want[name].values, err_msg=name)


# -- compiled passes against the per-element reference -----------------------

@st.composite
def projection_inputs(draw):
    """A loop over ``src`` with mixed descriptors, tile colors, a tiling
    array and held projections.  Colors repeat, maps have arity 1-3,
    descriptors may be direct, mapped (to ``dst`` or back to ``src``) or
    repeated."""
    def space(name):
        sizes = draw(st.tuples(st.integers(0, 8), st.integers(0, 3), st.integers(0, 3)))
        return IterationSpace(name, *sizes)

    src, dst = space("src"), space("dst")
    if dst.total == 0:
        dst = IterationSpace("dst", 1)
    n_tiles = draw(st.integers(1, 6))
    colors = np.array(draw(st.lists(st.integers(0, 3), min_size=n_tiles,
                                    max_size=n_tiles)), dtype=np.int64)

    def mesh_map(name, target):
        arity = draw(st.integers(1, 3))
        values = draw(st.lists(st.integers(0, target.total - 1),
                               min_size=src.total * arity, max_size=src.total * arity))
        return MeshMap(name, src, target, arity, np.array(values, dtype=np.int64))

    maps = [mesh_map("m0", dst), mesh_map("m1", dst)]
    if src.total:
        maps.append(mesh_map("m2", src))
    choices = [None, *maps]
    picked = draw(st.lists(st.integers(0, len(choices) - 1), min_size=1, max_size=4))
    loop = Loop(0, src, tuple(Descriptor(choices[i], AccessMode.INC) for i in picked), "k")

    def tile_ids(n, low):
        return np.array(draw(st.lists(st.integers(low, n_tiles - 1),
                                      min_size=n, max_size=n)), dtype=np.int64)

    sigma = tile_ids(src.total, NO_TILE)
    phi = {sp.name: tile_ids(sp.total, NO_TILE)
           for sp in (src, dst) if draw(st.booleans())}
    return loop, sigma, phi, colors


def pair_set(keys: ConflictKeys, n_tiles: int) -> set[tuple[int, int]]:
    """The (low, high) tile pairs of the conflict keys written."""
    low, high = np.divmod(keys.written(), n_tiles)
    return set(zip(low.tolist(), high.tolist()))


@given(projection_inputs())
@settings(max_examples=300)
def test_vectorized_passes_match_per_element_reference(inputs):
    loop, sigma, phi, colors = inputs

    want_phi, want_c = dict(phi), set()
    got_phi, got_c = projected(loop, sigma, phi, colors)
    project_reference(loop, sigma, want_phi, colors, want_c, {})
    assert got_phi.keys() == want_phi.keys()
    for name in want_phi:
        assert np.array_equal(got_phi[name], want_phi[name])
    assert pair_set(got_c, len(colors)) == want_c

    want_c = set()
    try:
        want = tile_loop_reference(loop, phi, colors, want_c)
    except InspectionError as exc:
        with pytest.raises(InspectionError, match=f"^{re.escape(str(exc))}$"):
            tiled(loop, phi, colors)
        return
    got, got_c = tiled(loop, phi, colors)
    assert np.array_equal(got, want)
    assert pair_set(got_c, len(colors)) == want_c

    # a direct projection replaces the held tiles without a scan: the tiling
    # must already pair each executable element's held and new tiles that
    # differ but share a color
    held = phi.get(loop.space.name)
    if held is not None and any(d.is_direct for d in loop.descriptors):
        n_exec, pairs = loop.space.executable_size, pair_set(got_c, len(colors))
        for a, b in zip(held[:n_exec].tolist(), got[:n_exec].tolist()):
            if a >= 0 and a != b and colors[a] == colors[b]:
                assert (min(a, b), max(a, b)) in pairs


def test_passes_match_reference_past_small_sizes():
    # sizes the drawn examples never reach: one target element with 320
    # sources, and a loop with 1 + 3 * 25 candidates per element.  Only
    # tiles 7 and 8 have the top color, and they come last: through sources
    # 300-319 and through the last two columns of the last wide map
    rng = np.random.default_rng(7)
    src, dst = IterationSpace("src", 300, 12, 8), IterationSpace("dst", 40)
    n_tiles = 9
    colors = np.append(rng.integers(0, 2, 7), [2, 2])
    sigma = np.append(rng.integers(NO_TILE, 7, 300), np.tile([7, 8], 10))
    star = MeshMap("star", src, dst, 2, np.column_stack(
        (np.zeros(src.total, dtype=np.int64), rng.integers(1, 40, src.total))).ravel())
    phi = {"dst": np.append(rng.integers(NO_TILE, 7, 38), [7, 8])}

    loop = Loop(0, src, (Descriptor(None, AccessMode.READ),
                         Descriptor(star, AccessMode.INC)), "k")
    want_phi, want_c = dict(phi), set()
    got_phi, got_c = projected(loop, sigma, phi, colors)
    project_reference(loop, sigma, want_phi, colors, want_c, {})
    assert want_phi["dst"][0] == 7
    for name in want_phi:
        assert np.array_equal(got_phi[name], want_phi[name])
    assert pair_set(got_c, n_tiles) == want_c

    columns = [rng.integers(0, 38, (src.total, 25)) for _ in range(3)]
    columns[2][:, -2:] = [38, 39]
    wide = [MeshMap(f"wide{i}", src, dst, 25, c.ravel()) for i, c in enumerate(columns)]
    loop = Loop(1, src, (Descriptor(None, AccessMode.READ),
                         *(Descriptor(m, AccessMode.READ) for m in wide)), "k")
    phi["src"] = rng.integers(0, 7, src.total)
    want_c = set()
    want = tile_loop_reference(loop, phi, colors, want_c)
    got, got_c = tiled(loop, phi, colors)
    assert np.all(want == 7) and want_c == {(7, 8)}
    assert np.array_equal(got, want)
    assert pair_set(got_c, n_tiles) == want_c


class _NoC:
    """Stands in for the compiled passes: calling any of them fails."""

    def __getattr__(self, name):
        def ran(*args):
            raise AssertionError(f"{name} ran")
        return ran


def _bad_inputs():
    """(call, message) pairs whose inputs C must never see; each call takes
    the degree-seven vertex's loop, tiling array and colors."""
    def verts(values, dtype=np.int64):
        return {"verts": np.array(values, dtype=dtype)}

    short, high = [0] * 7, [0, 1, 2, 3, 0, 0, 0, 0]  # 8 verts, 3 tiles
    return {
        "project-short-phi": (lambda loop, sigma, colors: projected(
            loop, sigma, verts(short), colors), "has 7 entries, not 8"),
        "project-high-phi": (lambda loop, sigma, colors: projected(
            loop, sigma, verts(high), colors), r"outside \[-1, 3\)"),
        "project-high-sigma": (lambda loop, sigma, colors: projected(
            loop, np.where(sigma == 1, 3, sigma), {}, colors),
            r"outside \[-1, 3\)"),
        "project-int32-sigma": (lambda loop, sigma, colors: projected(
            loop, sigma.astype(np.int32), {}, colors), "int64"),
        "tile-short-phi": (lambda loop, sigma, colors: tiled(
            loop, verts(short), colors), "has 7 entries, not 8"),
        "tile-high-phi": (lambda loop, sigma, colors: tiled(
            loop, verts(high), colors), r"outside \[-1, 3\)"),
        "tile-strided-phi": (lambda loop, sigma, colors: tiled(
            loop, {"verts": np.zeros(16, dtype=np.int64)[::2]}, colors), "contiguous"),
        "tile-small-keys": (lambda loop, sigma, colors: tile_loop(
            Passes(colors, verts([0] * 8)).tiling(loop), ConflictKeys(13)),
            "13 free conflict keys, the pass may write 14"),
        "color-high-pair": (lambda loop, sigma, colors: color_tiles(
            np.zeros(3, dtype=np.int64), np.array([9]), ExecMode.SHARED),
            r"outside \[0, 9\)"),
    }


@pytest.mark.parametrize("case", sorted(_bad_inputs()))
def test_bad_arrays_are_rejected_before_any_c_runs(case, monkeypatch):
    call, message = _bad_inputs()[case]
    loop, sigma, colors, _ = degree_seven_vertex()
    monkeypatch.setattr(inspector, "_LIB", _NoC())
    with pytest.raises(InspectionError, match=message):
        call(loop, sigma, colors)


# -- byte identity of whole schedules -----------------------------------------

def golden_ladder():
    """(chain, ts, mode) for the fixed ladder of 60 schedules whose
    serializations GOLDEN_DIGESTS records, in that order."""
    for nx, ny in ((4, 2), (16, 8)):
        for rcm in (False, True):
            mesh = generate_rect_mesh(nx, ny)
            if rcm:
                mesh = rcm_renumber(mesh)
            for problem in (FIG2, EIGHT_LOOP):
                chain, _, _ = global_setup(mesh, problem, len(problem.loops))
                for mode in (ExecMode.SEQUENTIAL, ExecMode.SHARED):
                    for ts in (1, 16, 64):
                        yield chain, ts, mode
    # the sub-chains of configs/eight_loop.ini on each of 4 ranks
    mesh = rcm_renumber(generate_rect_mesh(16, 8))
    for start, stop, ts in ((0, 4, 16), (4, 6, 8), (6, 8, 16)):
        sub = Problem("sub", EIGHT_LOOP.loops[start:stop], EIGHT_LOOP.datasets)
        for lm in partition_for_ranks(mesh, 4, 4):
            chain, _, _ = local_setup(lm, sub, 4)
            yield chain, ts, ExecMode.DISTRIBUTED


GOLDEN_DIGESTS = (
    "f0ea7fcae9a109e509947ffb4209adb79084e316299adcdc7578dd618748aa14",
    "6f5784ec96c4e54f44632583931e9d5a4025b0d6426d3080ab46b7a3eef7648d",
    "7521840f6c4b32ada9ca4cde4d3e51dc13df26b50b39d226bc4cba1b91d2a8a1",
    "59ada2a64f812d7b9611c4061f6c6e82ee0215ab6645d7cac70014d1d7597492",
    "8db667f1ff3e3a8ac02bdec30a8f7f925d9a2458d1cb659543219ecee4e34d7c",
    "1d5ea01178919cb717e0c940fed27a769e09e74e24363e5c75ccb044550f3bfa",
    "135ddb6ffcbd8debfaa7c7b808bfd8eab3f2ffb5745eae23f2ac6614d9a39190",
    "a6f3b27019bfef3ac9fec20e718e0f5f728ad6b2c1a4dc4c9b1694f0ba331b21",
    "3b90680bcb0908c2c3204528e2c6104ef45b2bc3651d651e8442177d2a0927ec",
    "b2742af506be5aeaf1c23db4bb54af38e62fad6a234d500f948950e48adea188",
    "958633cd89f2288e4dd866afdaf16b92ba915d0761273bd5ace583e04b69728d",
    "8d6cdd897e512819efd539b398d8e7db78af84e2c55265cd4275ca7ffe3c16b8",
    "020b8562cada5d67f5f6c3798f095419b55790d252401cdab94ef9065f7a5389",
    "42e6bc9bcdcf66032262478f502761a04e63e44c7f67e23af2d6116f5599f12d",
    "025033b790bb3798924fe7d5fa61eb4ef690880f21882ff1af2308bde33e49ac",
    "3d36695e226213ee52775aa8fcb664c14e95a386519cc2c8661a6d465105ae32",
    "0c9766727db5d89332143f6d3b954f8c875cf659ee132856fccf0c689fbb42a8",
    "dee7034ed27aac5ceea21e159eace95a2f30626be85c420162d445c70819a1dc",
    "5ef24c73a54034d27ed6b86b028e373ece9038d01e3c509f354e01f52caaee51",
    "299ff8923eefe7d5a373678c76cea12eef3d33fcdfbbcce5e6ce54feecc5caee",
    "19ad843ae210fc120ba5e5788ec25ec2fa73fbefa75f859e412d6ebf59f77f7f",
    "b7ac9fac428a2e75e0d0a31fae7bb92c50ec2acf12f829e832e04d3baa25b621",
    "a5b75c7fedd49c2779a3eed5358f71ca8084793b4826107be7bbfe91c25cfc7d",
    "6db5aefbf6070a2222d264bf3fe0763210285bd087faab4f1666b838ca9c5ad0",
    "697b6404b53a68a38764b4720501823c5fff0b59d1a92e286118eb76c8e9ab8d",
    "80fb4e3e3023ea4394de60268dec686a807408a9b106b0929e77994fee86d57e",
    "d6d2ee7e02a87a7c0e18f7908d959f88e49bc7fc19bcc00dab85aa1f3bd24bd5",
    "ef3a38207a093eff1971ac73c1ed14f2c83eaaea52f1ef76a0cbde53bf17c2ad",
    "db41916cc643cd84c2a7e6d41aed87e918cdc272af090d6c07d7fdd7e4ff3337",
    "23908ceb7d55594b64f89164b4f5bb6ba703fb539788357ec0fa8af8e71baca5",
    "9b4e520ad966dc4ed6f59fb08bb28ed7174d249cb511e745f80b84270870b42f",
    "986f3dbc8186656ab5fcd712586d96de91b60ea22d38c052d1a12f91f3ba7bb2",
    "e9f275d20f354c593ed7bcd7b3dd7aa6e001dcf086f84fc0e96b35d3ed40872d",
    "5c3e2e30ec9e3bbda723b1c3a2790df0ad11e8c97149ea14674fb55beb620dbe",
    "bbb70bca4a904481ba625e6bc9f05dd67838636904a5432082901a30e42c235c",
    "e5b157ce1224b20b2b8e1d8656b64aa0c4f01d01ad9c0a973e2398dca6294db9",
    "c89559afa7bf42f981a77c6a068ae6d530c18dece937f88532cfa3b485a71223",
    "331726227ffa4470bcc3036cd0d183e7febc8f78281b0128ca09e3a0522c1d1d",
    "f31fad35cc70c15091fb99d91b86b0971f2d1a034b0b15b7d81bf9f5c11b2675",
    "0c554a7b69a117f8640b42750715791a9491d9a5e8252aa37772a117d0e28713",
    "2cc0f9f58ece3bf98b32da25a6930d0bd2177c8e602b589888122efd15618d56",
    "fad795c13965592912cdabe6b4b61a6c5135de8110675fd2169215bd127742be",
    "f06df01688ce8de04514fac3a59829974f52d0280cc0b4d46a8798bebc4ce3f4",
    "05f336f2316a1c84ef7066d28e32bec8d0174f868a480aa9f87193e96d701946",
    "0c1b578ae01695f7c031e3b82e4b289d480e0be45fb751160397a743182c0675",
    "89229325ca7d24d669e416fcf6c0f33c79c3b2adb6878be72da199c8f1efcbc0",
    "0fd955b4f73d6f88289f1ddb571e625e476ae5a3be8c3cccc42ca37b9ed55c6d",
    "babcf01508d31aaf198c61e90846dd7dd8905fd9683e83dc79a35709e90ca8d1",
    "b86247d1ea59543b90d33519d82bb3190504ecfe981b22ba34a5b9dc438cacd5",
    "f44af2e4ebd74008184ba43f6acb08f87bad10a37206858f52b383e622aee6ea",
    "5b5f3f927ebdff59a2a25aae906929a7bd374f9f7275668cc77c11707e2326cf",
    "1092104c39b3b86cdfdbfd1b447a1c53b0d1027766cf40e519429f285fc1af00",
    "1d132a6fc8715998b725841a795a1f1ba8513f4139e1d52c88edfa0b468ee8c6",
    "cbbe152213bc306d9036477235b6a16ee07609e6bfc9df30f06518d11f9c80d1",
    "837b2db51fd78cb068327bc7582bfe25052579010dfb58386683e5bbb72c0127",
    "46d8fb948fe3fe2a0987bfa54ad23ead6836f03c2cfebc24570a151da0867f4c",
    "9bf0a89f35d1cc8483d26080b43f913133ced0832d5b7bc30010616a9a55c52a",
    "3bfefeffe20edbb35d41c962e46bcd189f620af19fa97b19f895337e214bc44c",
    "b616fab69c2df940f05094d880f9432106d61a85c861982f2b8e94b2f37f3055",
    "e1e46f66c5d105950f83803dc5757f132b6042dda1bd52130ef3bd6cea6be206",
)


def test_schedules_match_golden_digests():
    digests = tuple(hashlib.sha256(inspect_chain(chain, ts, mode).serialize()).hexdigest()
                    for chain, ts, mode in golden_ladder())
    assert digests == GOLDEN_DIGESTS


def test_setup_ranks_schedules_match_golden_digests():
    # each rank slices configs/eight_loop.ini's sub-chains from its whole
    # chain; the schedules equal those of chains built per sub-chain
    cfg = parse_config(str(Path(__file__).resolve().parents[1] / "configs"
                           / "eight_loop.ini"))
    by_subchain = setup_ranks(build_mesh(cfg), cfg.problem, cfg.nranks, cfg.fusion,
                              cfg.depth)
    digests = tuple(hashlib.sha256(vr.schedule.serialize()).hexdigest()
                    for ranks in by_subchain for vr in ranks)
    assert digests == GOLDEN_DIGESTS[-12:]


def test_executable_iteration_on_the_nonexec_tile_is_rejected():
    chain, _, _ = global_setup(generate_rect_mesh(4, 2), FIG2, depth=3)
    schedule = inspect_chain(chain, 4, ExecMode.SEQUENTIAL)
    sigmas = [schedule.tile_of(j, loop.space.total)
              for j, loop in enumerate(chain.loops)]
    sigmas[1][0] = schedule.nonexec_tile.id
    with pytest.raises(InspectionError, match="non-exec tile"):
        build_schedule(chain, schedule.mode, schedule.regions, schedule.colors,
                       sigmas, schedule.recolor_rounds)


def test_regions_and_colors_must_describe_the_same_tiles():
    chain, _, _ = global_setup(generate_rect_mesh(4, 2), FIG2, depth=3)
    schedule = inspect_chain(chain, 4, ExecMode.SEQUENTIAL)
    sigmas = [schedule.tile_of(j, loop.space.total)
              for j, loop in enumerate(chain.loops)]
    with pytest.raises(InspectionError, match="tile regions for"):
        build_schedule(chain, schedule.mode, schedule.regions[1:], schedule.colors,
                       sigmas, schedule.recolor_rounds)
