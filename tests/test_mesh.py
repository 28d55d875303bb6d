import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from looptile import inspector
from looptile.mesh import (Mesh, adjacency_bandwidth, generate_rect_mesh,
                           rcm_ordering, rcm_renumber, sorted_distinct,
                           vertex_adjacency)

from reference_mesh import (csr_from_lists, edges_reference, lists_from_pairs,
                            rcm_ordering_reference, rcm_renumber_reference)


def test_unit_quad_splits_into_two_triangles():
    mesh = generate_rect_mesh(1, 1)
    assert (mesh.num_cells, mesh.num_vertices, mesh.num_edges) == (2, 4, 5)
    mesh.validate()


def test_two_quad_strip_counts():
    # hand enumeration: 2 bottom + 2 top + 3 vertical + 2 diagonal edges
    mesh = generate_rect_mesh(2, 1)
    assert (mesh.num_cells, mesh.num_vertices, mesh.num_edges) == (4, 6, 9)
    mesh.validate()


def test_cell_with_one_vertex_three_times_rejected():
    # a checked invariant, not an assert that python -O strips
    mesh = generate_rect_mesh(1, 1)
    c2v = mesh.cells_to_vertices.copy()
    c2v[:3] = c2v[0]
    bad = Mesh(mesh.num_vertices, mesh.num_cells, mesh.num_edges, c2v,
               mesh.edges_to_vertices, mesh.vertex_coords)
    with pytest.raises(ValueError, match="three distinct vertices per cell"):
        bad.validate()


def test_mesh_without_edges_names_the_edge_set_invariant():
    # one cell and no edges: the edge id check has nothing to reduce over
    mesh = generate_rect_mesh(1, 1)
    bad = Mesh(3, 1, 0, np.array([0, 1, 2], dtype=np.int64),
               np.empty(0, dtype=np.int64), mesh.vertex_coords[:3])
    with pytest.raises(ValueError, match="expected edge set equals the cell sides"):
        bad.validate()


@given(nx=st.integers(1, 8), ny=st.integers(1, 8))
@settings(max_examples=30)
def test_euler_formula_for_planar_disc(nx, ny):
    mesh = generate_rect_mesh(nx, ny)
    faces = 2 * nx * ny
    assert mesh.num_cells == faces
    assert mesh.num_vertices - mesh.num_edges + faces == 1
    mesh.validate()


@pytest.mark.parametrize("nx,ny", [(0, 1), (1, 0), (-2, 3)])
def test_zero_dimension_rejected(nx, ny):
    with pytest.raises(ValueError):
        generate_rect_mesh(nx, ny)


def test_rcm_fixed_point_on_ordered_path_graph():
    # a path already in RCM order relabels to itself
    path = [[1], [0, 2], [1, 3], [2, 4], [3]]
    order = rcm_ordering(csr_from_lists(path))
    perm = np.empty(len(path), dtype=np.int64)
    perm[order] = np.arange(len(path))
    relabeled = [[] for _ in path]
    for v, nbrs in enumerate(path):
        relabeled[perm[v]] = sorted(perm[w] for w in nbrs)
    assert relabeled == path


def test_rcm_reduces_bandwidth_on_4x4():
    mesh = generate_rect_mesh(4, 4)
    before = adjacency_bandwidth(vertex_adjacency(mesh))
    after = adjacency_bandwidth(vertex_adjacency(rcm_renumber(mesh)))
    assert after <= before


@given(nx=st.integers(1, 6), ny=st.integers(1, 6))
@settings(max_examples=20)
def test_renumbering_roundtrip_recovers_connectivity(nx, ny):
    mesh = generate_rect_mesh(nx, ny)
    new = rcm_renumber(mesh)
    new.validate()
    # rect mesh coordinates are distinct, so they recover the vertex relabeling
    old_id = {xy: v for v, xy in enumerate(map(tuple, mesh.vertex_coords.tolist()))}
    inv_v = np.array([old_id[xy] for xy in map(tuple, new.vertex_coords.tolist())])
    assert sorted(inv_v.tolist()) == list(range(mesh.num_vertices))

    def rows_in_order(rows):
        return rows[np.lexsort(rows.T[::-1])]

    # cells keep their vertex order; edges are stored ascending
    tri = inv_v[new.cells_to_vertices.reshape(-1, 3)]
    assert np.array_equal(rows_in_order(tri),
                          rows_in_order(mesh.cells_to_vertices.reshape(-1, 3)))
    pairs = new.edges_to_vertices.reshape(-1, 2)
    assert np.all(pairs[:, 0] < pairs[:, 1])
    assert np.array_equal(rows_in_order(np.sort(inv_v[pairs], axis=1)),
                          rows_in_order(mesh.edges_to_vertices.reshape(-1, 2)))


def test_disconnected_graph_rejected():
    with pytest.raises(ValueError, match="disconnected"):
        rcm_ordering(csr_from_lists([[1], [0], [3], [2]]))


@pytest.mark.parametrize("offsets,neighbors,match", [
    ([0, 1, 3, 4], [1, 0, 99, 1], r"neighbor ids must lie in \[0, 3\)"),
    ([0, 3, 1, 4], [1, 0, 2, 1], "offsets decrease"),
    ([0, 1, 3], [1, 0, 2, 1], "offsets must run from 0 to len"),
], ids=["neighbor-out-of-range", "decreasing-offsets", "offsets-one-short"])
def test_malformed_csr_rejected_before_the_walk(offsets, neighbors, match):
    # the path 0-1-2 with one fault each; the C walk indexes without checks
    adjacency = (np.array(offsets, dtype=np.int64), np.array(neighbors, dtype=np.int64))
    with pytest.raises(ValueError, match=match):
        rcm_ordering(adjacency)


def test_mesh_with_an_unused_vertex_rejected_as_disconnected():
    # the extra vertex has degree 0, so the search starts and ends there
    mesh = generate_rect_mesh(3, 2)
    padded = Mesh(mesh.num_vertices + 1, mesh.num_cells, mesh.num_edges,
                  mesh.cells_to_vertices, mesh.edges_to_vertices,
                  np.vstack([mesh.vertex_coords, [[9.0, 9.0]]]))
    with pytest.raises(ValueError, match="disconnected"):
        rcm_renumber(padded)


@st.composite
def relabeled_rect_meshes(draw):
    """A 1-12 x 1-12 rect mesh with its vertex ids shuffled."""
    mesh = generate_rect_mesh(draw(st.integers(1, 12)), draw(st.integers(1, 12)))
    perm = np.array(draw(st.permutations(range(mesh.num_vertices))), dtype=np.int64)
    return Mesh(mesh.num_vertices, mesh.num_cells, mesh.num_edges,
                perm[mesh.cells_to_vertices], perm[mesh.edges_to_vertices],
                mesh.vertex_coords)


@given(mesh=relabeled_rect_meshes())
@settings(max_examples=40)
def test_rcm_ordering_matches_sequential_reference_on_rect_meshes(mesh):
    pairs = mesh.edges_to_vertices.reshape(-1, 2).tolist()
    lists = lists_from_pairs(mesh.num_vertices, pairs)
    adjacency = vertex_adjacency(mesh)
    for got, want in zip(adjacency, csr_from_lists(lists)):
        assert np.array_equal(got, want)
    assert np.array_equal(rcm_ordering(adjacency), rcm_ordering_reference(lists))


@st.composite
def connected_graphs(draw):
    """(num_vertices, edge pairs): a random spanning tree plus extra edges."""
    n = draw(st.integers(1, 40))
    label = draw(st.permutations(range(n)))
    pairs = [(label[v], label[draw(st.integers(0, v - 1))]) for v in range(1, n)]
    if n > 1:
        vertex = st.integers(0, n - 1)
        extra = draw(st.lists(st.tuples(vertex, vertex), max_size=2 * n))
        pairs += [(a, b) for a, b in extra if a != b]
    return n, pairs


@given(graph=connected_graphs())
@settings(max_examples=100)
def test_rcm_ordering_matches_sequential_reference_on_random_graphs(graph):
    n, pairs = graph
    lists = lists_from_pairs(n, pairs)
    adjacency = csr_from_lists(lists)
    want = rcm_ordering_reference(lists)
    assert np.array_equal(rcm_ordering(adjacency), want)
    # the walk sorts each row by (degree, id) itself, so row order is free
    reversed_rows = csr_from_lists([nbrs[::-1] for nbrs in lists])
    assert np.array_equal(rcm_ordering(reversed_rows), want)
    assert adjacency_bandwidth(adjacency) == max(
        (abs(v - w) for v, nbrs in enumerate(lists) for w in nbrs), default=0)


def test_long_descending_star_row_matches_reference():
    # the hub's row arrives in reverse (degree, id) order, from the CSR and
    # from an edge list that names its leaves in descending order
    leaves = 2000
    lists = [list(range(leaves, 0, -1))] + [[0]] * leaves
    want = rcm_ordering_reference(lists)
    assert np.array_equal(rcm_ordering(csr_from_lists(lists)), want)
    e2v = np.column_stack((np.zeros(leaves, dtype=np.int64),
                           np.arange(leaves, 0, -1))).ravel()
    star = Mesh(leaves + 1, 0, leaves, np.empty(0, dtype=np.int64), e2v,
                np.zeros((leaves + 1, 2)))
    adjacency = vertex_adjacency(star)
    for got, want_csr in zip(adjacency, csr_from_lists([sorted(a) for a in lists])):
        assert np.array_equal(got, want_csr)
    assert np.array_equal(rcm_ordering(adjacency), want)


def test_mesh_writes_as_vtk_unstructured_grid(tmp_path):
    from looptile.vtk import parse_vtk, write_mesh_vtk
    mesh = generate_rect_mesh(3, 2)
    path = tmp_path / "mesh.vtk"
    write_mesh_vtk(mesh, str(path))
    text = path.read_text()
    assert "DATASET UNSTRUCTURED_GRID" in text
    assert text.count("\n5") >= mesh.num_cells - 1  # triangle cell type
    parsed = parse_vtk(str(path))
    assert len(parsed["points"]) == mesh.num_vertices
    assert len(parsed["cells"]) == mesh.num_cells


def test_renumbered_mesh_keeps_entity_counts():
    mesh = generate_rect_mesh(5, 3)
    new = rcm_renumber(mesh)
    assert new.num_vertices == mesh.num_vertices
    assert new.num_cells == mesh.num_cells
    assert new.num_edges == mesh.num_edges
    new.validate()


# -- byte identity of generated meshes ----------------------------------------

def mesh_digest(mesh):
    """sha256 over dtype, shape and bytes of c2v, e2v and the coordinates."""
    h = hashlib.sha256()
    for a in (mesh.cells_to_vertices, mesh.edges_to_vertices, mesh.vertex_coords):
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


# recorded from the per-element generator and RCM relabelling these replaced
GOLDEN_MESH_DIGESTS = {
    ((1, 1), False): "a6ca273c39a66323875732e916eb7f0d254a268067ffe8b85cbcdbe612cd1d0a",
    ((1, 1), True): "f891e56a66bfa0b757431b78d7b5efd3a22e01350d7366b05c269800daa0b717",
    ((9, 1), False): "f94bcef404fe41c909a978151f2f5c51c7b354f501595f3472ed8732acf25924",
    ((9, 1), True): "fe76733e0c7008566313120de544a6a6b1a06273cde3d2c6b7d9b9583570e5ab",
    ((3, 7), False): "b10dfbfd52f9d68053bc023486849710d6b5cbf39c0c1ce1f2cbfb71112480a4",
    ((3, 7), True): "da0eb69dbc629cda41046dbc57138ca77884ffd87b141ce3f623d1f36b727ca9",
    ((16, 8), False): "dfc7c00f9a15f8197d8e4568633cf4d25a5542ef69b378a8a8ad86a2f2af7198",
    ((16, 8), True): "b35c5d791e74e71324ebc371fe73499347f8a150c57a139bb50fa674dd2a1498",
    ((64, 32), False): "fa13c1b30978892fca2ceff459675571b7553e93811dfc553415bf608a32bcd8",
    ((64, 32), True): "59348614dff4793d91a35b36f0460b06e78ce766b66429fd534505f61226ffda",
    # the fig2-seq-steps benchmark mesh, recorded from the sequential BFS
    ((128, 64), False): "b2f0839ecb310634d2c8fc9da715d842d0d6c82dd86bf3f8223d4f22bb5e1cc6",
    ((128, 64), True): "ed5857be39b6c4e66ec936dd133322873463ceb90a591276e11b6846b8a2bda2",
}


@pytest.mark.parametrize("dims,rcm", list(GOLDEN_MESH_DIGESTS))
def test_meshes_match_golden_digests(dims, rcm):
    mesh = generate_rect_mesh(*dims)
    if rcm:
        mesh = rcm_renumber(mesh)
    assert mesh_digest(mesh) == GOLDEN_MESH_DIGESTS[(dims, rcm)]


def test_vertex_adjacency_lists_sorted_distinct_neighbors():
    # a repeated edge adds no repeated neighbor
    mesh = generate_rect_mesh(2, 1)
    e2v = np.concatenate([mesh.edges_to_vertices, mesh.edges_to_vertices[:2][::-1]])
    doubled = Mesh(mesh.num_vertices, mesh.num_cells, mesh.num_edges + 1,
                   mesh.cells_to_vertices, e2v, mesh.vertex_coords)
    expected = [[1, 3, 4], [0, 2, 4, 5], [1, 5], [0, 4], [0, 1, 3, 5], [1, 2, 4]]
    expected_offsets, expected_neighbors = csr_from_lists(expected)
    for m in (mesh, doubled):
        offsets, neighbors = vertex_adjacency(m)
        assert offsets.dtype == neighbors.dtype == np.int64
        assert np.array_equal(offsets, expected_offsets)
        assert np.array_equal(neighbors, expected_neighbors)


def with_edges(mesh, e2v, num_edges=None):
    """``mesh`` with its edge list replaced, num_edges unchanged by default."""
    return Mesh(mesh.num_vertices, mesh.num_cells,
                mesh.num_edges if num_edges is None else num_edges,
                mesh.cells_to_vertices, e2v, mesh.vertex_coords)


@pytest.mark.parametrize("e2v,match", [
    (lambda e2v: np.append(e2v[:-1], 6),
     r"edges_to_vertices holds vertex id 6, outside \[0, 6\), in row 8 \(4, 6\)"),
    (lambda e2v: np.append(e2v[:-1], -1),
     r"edges_to_vertices holds vertex id -1, outside \[0, 6\), in row 8 \(4, -1\)"),
    (lambda e2v: e2v[:-1], r"edges_to_vertices has 17 entries, not 2 \* 9"),
    (lambda e2v: e2v.astype(float), "edges_to_vertices is not a 1-D integer array"),
], ids=["vertex-past-the-end", "negative-vertex", "odd-length", "float"])
def test_malformed_edge_list_rejected_before_the_adjacency(e2v, match):
    # the compiled counting sort indexes by vertex id without checks
    mesh = generate_rect_mesh(2, 1)
    with pytest.raises(ValueError, match=match):
        vertex_adjacency(with_edges(mesh, e2v(mesh.edges_to_vertices)))


@pytest.mark.parametrize("dtype", [np.int32, np.uint16])
def test_other_integer_edge_lists_give_the_same_adjacency(dtype):
    # converted to contiguous int64, strided views included
    mesh = generate_rect_mesh(3, 2)
    narrow = np.repeat(mesh.edges_to_vertices.astype(dtype), 2)[::2]
    for got, want in zip(vertex_adjacency(with_edges(mesh, narrow)),
                         vertex_adjacency(mesh)):
        assert got.dtype == np.int64
        assert np.array_equal(got, want)


@st.composite
def edge_lists(draw):
    """(num_vertices, edge pairs): up to 300 random pairs, some (v, v), then
    a third of them again reversed and a quarter repeated, shuffled, over
    vertices of which the highest may be in no pair.  Small graphs get long
    rows."""
    n = draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pairs = rng.integers(0, n, (draw(st.integers(0, 300)), 2))
    pairs = np.concatenate([pairs, pairs[::3, ::-1], pairs[1::4]])
    return n + draw(st.integers(0, 3)), rng.permutation(pairs)


@given(graph=edge_lists())
@settings(max_examples=100)
def test_vertex_adjacency_equals_sorted_distinct_definition(graph):
    nv, e2v = graph
    mesh = Mesh(nv, 0, len(e2v), np.empty(0, dtype=np.int64), e2v.ravel(),
                np.zeros((nv, 2)))
    # every directed (source, neighbor) key once, ascending
    src = np.concatenate([e2v[:, 0], e2v[:, 1]])
    dst = np.concatenate([e2v[:, 1], e2v[:, 0]])
    src, dst = np.divmod(sorted_distinct(src * nv + dst), nv)
    offsets, neighbors = vertex_adjacency(mesh)
    assert np.array_equal(offsets, np.searchsorted(src, np.arange(nv + 1)))
    assert np.array_equal(neighbors, dst)


# -- generation and renumbering against their sort-based definitions ---------

@given(nx=st.integers(1, 40), ny=st.integers(1, 40))
@settings(max_examples=60)
def test_generated_edges_equal_the_sorted_cell_sides(nx, ny):
    mesh = generate_rect_mesh(nx, ny)
    want = edges_reference(mesh)
    assert mesh.edges_to_vertices.dtype == want.dtype
    assert np.array_equal(mesh.edges_to_vertices, want)
    assert mesh.num_edges == len(want) // 2


@st.composite
def scrambled_meshes(draw):
    """A relabelled rect mesh with its cells and edges shuffled, about half
    its edge pairs reversed and one cell stored again, its vertices rotated:
    the copy ties with the original, so their order shows stability."""
    mesh = draw(relabeled_rect_meshes())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tri = rng.permutation(mesh.cells_to_vertices.reshape(-1, 3))
    copy = np.roll(tri[rng.integers(len(tri))], 1)
    tri = np.insert(tri, rng.integers(len(tri) + 1), copy, axis=0)
    pairs = rng.permutation(mesh.edges_to_vertices.reshape(-1, 2))
    flip = rng.random(len(pairs)) < 0.5
    pairs[flip] = pairs[flip, ::-1]
    return Mesh(mesh.num_vertices, len(tri), len(pairs), tri.ravel(),
                pairs.ravel(), mesh.vertex_coords)


@given(mesh=scrambled_meshes())
@settings(max_examples=60)
def test_rcm_renumber_equals_lexsort_reference(mesh):
    assert mesh_digest(rcm_renumber(mesh)) == mesh_digest(rcm_renumber_reference(mesh))


def test_fan_around_one_hub_equals_lexsort_reference():
    # every cell and edge holds the hub, cells listed in reverse: one vertex
    # in thousands of rows
    leaves = 3000
    rim = np.arange(1, leaves + 1)
    tri = np.column_stack((rim[1:], np.zeros(leaves - 1, np.int64), rim[:-1]))[::-1]
    pairs = np.concatenate((np.column_stack((rim, np.zeros(leaves, np.int64))),
                            np.column_stack((rim[:-1], rim[1:]))))
    fan = Mesh(leaves + 1, len(tri), len(pairs), tri.ravel(), pairs.ravel(),
               np.zeros((leaves + 1, 2)))
    fan.validate()
    assert mesh_digest(rcm_renumber(fan)) == mesh_digest(rcm_renumber_reference(fan))


def test_generation_and_renumbering_sort_nothing(monkeypatch):
    # the edges are generated in key order and cells and edges reordered by
    # counting passes, so no numpy sort runs
    def refuse(*args, **kwargs):
        raise AssertionError("a numpy sort ran")

    for name in ("sort", "argsort", "lexsort"):
        monkeypatch.setattr(np, name, refuse)
    mesh = rcm_renumber(generate_rect_mesh(16, 8))
    assert mesh_digest(mesh) == GOLDEN_MESH_DIGESTS[((16, 8), True)]


def with_cells(mesh, c2v):
    """``mesh`` with its cell list replaced, num_cells unchanged."""
    return Mesh(mesh.num_vertices, mesh.num_cells, mesh.num_edges, c2v,
                mesh.edges_to_vertices, mesh.vertex_coords)


@pytest.mark.parametrize("c2v,match", [
    (lambda c2v: np.append(c2v[:-1], -1),
     r"cells_to_vertices holds vertex id -1, outside \[0, 12\), in row 11 \(6, 11, -1\)"),
    (lambda c2v: np.append(c2v[:-1], 99),
     r"cells_to_vertices holds vertex id 99, outside \[0, 12\), in row 11 \(6, 11, 99\)"),
    (lambda c2v: c2v[:-1], r"cells_to_vertices has 35 entries, not 3 \* 12"),
    (lambda c2v: c2v.astype(float), "cells_to_vertices is not a 1-D integer array"),
], ids=["negative-vertex", "vertex-past-the-end", "one-entry-short", "float"])
def test_malformed_cell_list_rejected_before_any_c_runs(c2v, match, monkeypatch):
    # the compiled reordering indexes by vertex id without checks
    mesh = generate_rect_mesh(3, 2)

    def no_c():
        raise AssertionError("C ran on an unchecked cell list")

    monkeypatch.setattr(inspector, "_lib", no_c)
    with pytest.raises(ValueError, match=match):
        rcm_renumber(with_cells(mesh, c2v(mesh.cells_to_vertices)))


@pytest.mark.parametrize("dtype", [np.int32, np.uint16])
def test_other_integer_connectivity_gives_the_same_mesh(dtype):
    # converted to contiguous int64, strided views included
    mesh = generate_rect_mesh(3, 2)

    def narrow(a):
        return np.repeat(a.astype(dtype), 2)[::2]

    other = with_edges(with_cells(mesh, narrow(mesh.cells_to_vertices)),
                       narrow(mesh.edges_to_vertices))
    assert mesh_digest(rcm_renumber(other)) == mesh_digest(rcm_renumber(mesh))
