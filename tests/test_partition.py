import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from looptile.mesh import CELLS, EDGES, VERTS, Mesh, generate_rect_mesh, rcm_renumber
from looptile.partition import partition_for_ranks

from reference_partition import partition_for_ranks_reference

SPACES = (CELLS, EDGES, VERTS)


def entity_vertices(mesh):
    """(space, id) -> vertex set, for shared-vertex adjacency walks."""
    table = {}
    for c, row in enumerate(mesh.cells_to_vertices.reshape(-1, 3).tolist()):
        table[(CELLS, c)] = set(row)
    for e, row in enumerate(mesh.edges_to_vertices.reshape(-1, 2).tolist()):
        table[(EDGES, e)] = set(row)
    for v in range(mesh.num_vertices):
        table[(VERTS, v)] = {v}
    return table


def test_single_rank_is_all_core():
    mesh = generate_rect_mesh(3, 2)
    (lm,) = partition_for_ranks(mesh, 1, 2)
    for space in SPACES:
        s = lm.sizes[space]
        assert (s.owned, s.exec, s.nonexec) == (0, 0, 0)
        assert s.core == len(lm.global_ids[space])
    assert lm.exchange_table == {}


def test_two_rank_halo_matches_cut_adjacency():
    # depth=1: rank 1 holds exactly the rank-0 cells that touch the cut
    mesh = generate_rect_mesh(4, 2)
    r0, r1 = partition_for_ranks(mesh, 2, 1)
    tri = mesh.cells_to_vertices.reshape(-1, 3)
    owned0 = set(r0.global_ids[CELLS][:r0.sizes[CELLS].owned_total].tolist())
    owned1 = set(r1.global_ids[CELLS][:r1.sizes[CELLS].owned_total].tolist())
    halo1 = set(r1.global_ids[CELLS][r1.sizes[CELLS].owned_total:].tolist())
    for c in sorted(owned0):
        touches_cut = any(set(tri[c]) & set(tri[d]) for d in owned1)
        assert (c in halo1) == touches_cut, f"cell {c}"


def test_exec_ids_are_owned_by_the_other_rank():
    mesh = generate_rect_mesh(4, 2)
    r0, r1 = partition_for_ranks(mesh, 2, 2)
    for space in SPACES:
        s0 = r0.sizes[space]
        exec_ids = r0.global_ids[space][s0.owned_total:s0.owned_total + s0.exec]
        owned1 = set(r1.global_ids[space][:r1.sizes[space].owned_total].tolist())
        assert set(exec_ids.tolist()) <= owned1
        # regions are disjoint by construction: sizes partition the local range
        assert s0.total == len(r0.global_ids[space])


def test_exchange_tables_pair_identical_global_ids_in_order():
    # each (space, owner) entry lists the halo elements this rank holds and
    # the owner owns, ascending by global id, next to the owner's local ids
    mesh = rcm_renumber(generate_rect_mesh(6, 3))
    locals_ = partition_for_ranks(mesh, 3, 2)
    by_rank = {lm.rank: lm for lm in locals_}
    for lm in locals_:
        listed = {space: [] for space in SPACES}
        for (space, owner), table in lm.exchange_table.items():
            assert owner != lm.rank and len(table)
            peer = by_rank[owner]
            here = lm.global_ids[space][table[:, 0]]
            assert np.array_equal(here, peer.global_ids[space][table[:, 1]])
            assert np.all(np.diff(here) > 0)
            assert np.all(table[:, 1] < peer.sizes[space].owned_total)
            listed[space] += table[:, 0].tolist()
        for space, rows in listed.items():
            sizes = lm.sizes[space]
            assert sorted(rows) == list(range(sizes.owned_total, sizes.total))


@given(nx=st.integers(2, 6), ny=st.integers(1, 4), nranks=st.integers(1, 4),
       depth=st.integers(1, 4))
@settings(max_examples=25)
def test_ownership_partitions_every_space(nx, ny, nranks, depth):
    mesh = generate_rect_mesh(nx, ny)
    if nranks > mesh.num_cells:
        nranks = mesh.num_cells
    locals_ = partition_for_ranks(mesh, nranks, depth)
    totals = {CELLS: mesh.num_cells, EDGES: mesh.num_edges, VERTS: mesh.num_vertices}
    for space in SPACES:
        owned = np.concatenate([
            lm.global_ids[space][:lm.sizes[space].owned_total] for lm in locals_])
        assert len(owned) == totals[space]
        assert len(np.unique(owned)) == totals[space]


@given(nx=st.integers(2, 5), ny=st.integers(1, 3), depth=st.integers(1, 3))
@settings(max_examples=15)
def test_depth_strips_cover_vertex_adjacency_hops(nx, ny, depth):
    # every element within `depth` shared-vertex hops of an owned element is local
    mesh = generate_rect_mesh(nx, ny)
    nranks = min(2, mesh.num_cells)
    locals_ = partition_for_ranks(mesh, nranks, depth)
    verts_of = entity_vertices(mesh)
    vertex_entities = {}
    for key, vs in verts_of.items():
        for v in vs:
            vertex_entities.setdefault(v, set()).add(key)
    for lm in locals_:
        frontier = {
            (space, int(g))
            for space in SPACES
            for g in lm.global_ids[space][:lm.sizes[space].owned_total]
        }
        seen = set(frontier)
        for _ in range(depth):
            grown = set()
            for key in frontier:
                for v in verts_of[key]:
                    grown |= vertex_entities[v]
            frontier = grown - seen
            seen |= grown
        local = {(space, int(g)) for space in SPACES
                 for g in lm.global_ids[space]}
        assert seen <= local


def test_local_connectivity_resolves_locally():
    mesh = generate_rect_mesh(5, 4)
    for lm in partition_for_ranks(mesh, 3, 3):
        nverts = lm.sizes[VERTS].total
        assert lm.cells_to_vertices.min() >= 0
        assert lm.cells_to_vertices.max() < nverts
        assert lm.edges_to_vertices.max() < nverts
        # local connectivity agrees with global connectivity through global ids
        tri_local = lm.global_ids[VERTS][lm.cells_to_vertices.reshape(-1, 3)]
        tri_global = mesh.cells_to_vertices.reshape(-1, 3)[lm.global_ids[CELLS]]
        assert np.array_equal(np.sort(tri_local, axis=1), np.sort(tri_global, axis=1))


def test_too_many_ranks_rejected():
    mesh = generate_rect_mesh(1, 1)
    with pytest.raises(ValueError):
        partition_for_ranks(mesh, 3, 1)
    with pytest.raises(ValueError):
        partition_for_ranks(mesh, 0, 1)
    with pytest.raises(ValueError):
        partition_for_ranks(mesh, 1, 0)


# -- the whole-array passes against the per-element reference -----------------

def assert_arrays_identical(got, want, what):
    assert got.dtype == want.dtype, what
    assert got.shape == want.shape, what
    assert np.array_equal(got, want), what


def assert_same_local_meshes(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.rank == w.rank
        assert list(g.sizes) == list(w.sizes)
        for space, sizes in w.sizes.items():
            assert g.sizes[space] == sizes, (g.rank, space)
            assert all(type(n) is int for n in (g.sizes[space].core, g.sizes[space].owned,
                                                g.sizes[space].exec, g.sizes[space].nonexec))
        for field in ("cells_to_vertices", "edges_to_vertices", "vertex_coords"):
            assert_arrays_identical(getattr(g, field), getattr(w, field), (g.rank, field))
        assert list(g.global_ids) == list(w.global_ids)
        for space, gids in w.global_ids.items():
            assert_arrays_identical(g.global_ids[space], gids, (g.rank, space))
        # insertion order too: the executor walks the tables in this order
        assert list(g.exchange_table) == list(w.exchange_table), g.rank
        for key, table in w.exchange_table.items():
            assert_arrays_identical(g.exchange_table[key], table, (g.rank, key))


@st.composite
def partition_cases(draw):
    nx, ny = draw(st.integers(1, 8)), draw(st.integers(1, 5))
    rcm = draw(st.booleans())
    nranks = draw(st.integers(1, min(6, 2 * nx * ny)))
    return nx, ny, rcm, nranks, draw(st.integers(1, 5))


@given(case=partition_cases())
@settings(max_examples=150)
def test_partition_matches_per_element_reference(case):
    nx, ny, rcm, nranks, depth = case
    mesh = generate_rect_mesh(nx, ny)
    if rcm:
        mesh = rcm_renumber(mesh)
    assert_same_local_meshes(partition_for_ranks(mesh, nranks, depth),
                             partition_for_ranks_reference(mesh, nranks, depth))


def test_benchmark_partition_matches_per_element_reference():
    # the eight-dist4 benchmark's mesh, ranks and depth
    mesh = rcm_renumber(generate_rect_mesh(64, 32))
    assert_same_local_meshes(partition_for_ranks(mesh, 4, 4),
                             partition_for_ranks_reference(mesh, 4, 4))


def test_sixteen_ranks_match_per_element_reference():
    # row-major numbering, so each rank's ids span rows of the grid
    mesh = generate_rect_mesh(32, 16)
    assert_same_local_meshes(partition_for_ranks(mesh, 16, 4),
                             partition_for_ranks_reference(mesh, 16, 4))


def test_depth_past_the_mesh_matches_per_element_reference():
    # the strips run out of cells long before depth
    mesh = rcm_renumber(generate_rect_mesh(6, 3))
    locals_ = partition_for_ranks(mesh, 3, 40)
    assert_same_local_meshes(locals_, partition_for_ranks_reference(mesh, 3, 40))
    assert all(lm.sizes[CELLS].total == mesh.num_cells for lm in locals_)


def test_local_mesh_arrays_own_exactly_their_rows():
    mesh = rcm_renumber(generate_rect_mesh(64, 32))
    for lm in partition_for_ranks(mesh, 4, 4):
        arrays = [lm.cells_to_vertices, lm.edges_to_vertices,
                  *lm.global_ids.values(), *lm.exchange_table.values()]
        for a in arrays:
            assert a.base is None or a.base.nbytes == a.nbytes


def test_vertex_in_no_cell_rejected():
    # validate accepts an isolated vertex; the partition has no owner for it
    mesh = Mesh(num_vertices=4, num_cells=1, num_edges=3,
                cells_to_vertices=np.array([0, 1, 2]),
                edges_to_vertices=np.array([0, 1, 0, 2, 1, 2]),
                vertex_coords=np.zeros((4, 2)))
    mesh.validate()
    with pytest.raises(ValueError, match="vertex 3 lies in no cell"):
        partition_for_ranks(mesh, 1, 1)


def test_edge_on_no_cell_side_rejected():
    mesh = Mesh(num_vertices=4, num_cells=2, num_edges=6,
                cells_to_vertices=np.array([0, 1, 2, 1, 3, 2]),
                edges_to_vertices=np.array([0, 1, 0, 2, 0, 3, 1, 2, 1, 3, 2, 3]),
                vertex_coords=np.zeros((4, 2)))
    with pytest.raises(ValueError, match=r"edge 2 \(0, 3\) is a side of no cell"):
        partition_for_ranks(mesh, 2, 1)


# -- connectivity checked before the compiled passes ---------------------------

def triangle_pair(cells=(0, 1, 2, 1, 3, 2), edges=(0, 1, 0, 2, 1, 2, 1, 3, 2, 3)):
    """Two triangles sharing edge (1, 2), from the given connectivity."""
    return Mesh(num_vertices=4, num_cells=2, num_edges=5,
                cells_to_vertices=np.array(cells), edges_to_vertices=np.array(edges),
                vertex_coords=np.zeros((4, 2)))


def test_negative_vertex_id_rejected():
    mesh = triangle_pair(cells=(0, 1, 2, 1, -1, 2))
    with pytest.raises(ValueError, match=r"cells_to_vertices holds vertex id -1, "
                                         r"outside \[0, 4\)"):
        partition_for_ranks(mesh, 2, 1)


def test_vertex_id_past_the_vertices_rejected():
    mesh = triangle_pair(edges=(0, 1, 0, 2, 1, 2, 1, 3, 2, 4))
    with pytest.raises(ValueError, match=r"edges_to_vertices holds vertex id 4, "
                                         r"outside \[0, 4\)"):
        partition_for_ranks(mesh, 2, 1)


def test_short_cells_to_vertices_rejected():
    mesh = triangle_pair(cells=(0, 1, 2, 1, 3))
    with pytest.raises(ValueError,
                       match=r"cells_to_vertices has 5 entries, not 3 \* 2"):
        partition_for_ranks(mesh, 2, 1)


def test_short_edges_to_vertices_rejected():
    mesh = triangle_pair(edges=(0, 1, 0, 2, 1, 2, 1, 3, 2))
    with pytest.raises(ValueError,
                       match=r"edges_to_vertices has 9 entries, not 2 \* 5"):
        partition_for_ranks(mesh, 2, 1)


def test_non_integer_connectivity_rejected():
    mesh = triangle_pair(cells=(0.0, 1, 2, 1, 3, 2))
    with pytest.raises(ValueError, match="cells_to_vertices is not a 1-D integer array"):
        partition_for_ranks(mesh, 2, 1)


@pytest.mark.parametrize("dtype", [np.int32, np.uint16])
def test_other_integer_dtypes_partition_alike(dtype):
    # converted to contiguous int64, strided views included
    mesh = generate_rect_mesh(6, 3)
    narrow = Mesh(num_vertices=mesh.num_vertices, num_cells=mesh.num_cells,
                  num_edges=mesh.num_edges,
                  cells_to_vertices=mesh.cells_to_vertices.astype(dtype),
                  edges_to_vertices=np.repeat(mesh.edges_to_vertices.astype(dtype), 2)[::2],
                  vertex_coords=mesh.vertex_coords)
    assert_same_local_meshes(partition_for_ranks(narrow, 3, 2),
                             partition_for_ranks(mesh, 3, 2))


def test_edge_stored_twice_rejected():
    mesh = Mesh(num_vertices=4, num_cells=2, num_edges=6,
                cells_to_vertices=np.array([0, 1, 2, 1, 3, 2]),
                edges_to_vertices=np.array([0, 1, 0, 2, 1, 2, 1, 3, 2, 3, 2, 1]),
                vertex_coords=np.zeros((4, 2)))
    with pytest.raises(ValueError, match=r"edge 5 \(2, 1\) is stored twice"):
        partition_for_ranks(mesh, 2, 1)
