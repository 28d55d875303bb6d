import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from looptile.mesh import (Mesh, adjacency_bandwidth, apply_renumbering,
                           generate_rect_mesh, rcm_ordering, rcm_permutations,
                           rcm_renumber, vertex_adjacency)


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


@given(nx=st.integers(1, 8), ny=st.integers(1, 8))
@settings(max_examples=30, deadline=None)
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
    order = rcm_ordering(path)
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
@settings(max_examples=20, deadline=None)
def test_renumbering_roundtrip_recovers_connectivity(nx, ny):
    mesh = generate_rect_mesh(nx, ny)
    renum = rcm_permutations(mesh)
    new = apply_renumbering(mesh, renum)
    new.validate()
    # composing with the inverse permutation recovers the original arrays
    inv_v = np.argsort(renum.vertex_perm)
    inv_c = np.argsort(renum.cell_perm)
    inv_e = np.argsort(renum.edge_perm)
    tri = inv_v[new.cells_to_vertices.reshape(-1, 3)][renum.cell_perm]
    assert np.array_equal(np.sort(tri, axis=1),
                          np.sort(mesh.cells_to_vertices.reshape(-1, 3), axis=1))
    pairs = inv_v[new.edges_to_vertices.reshape(-1, 2)][renum.edge_perm]
    assert np.array_equal(np.sort(pairs, axis=1),
                          np.sort(mesh.edges_to_vertices.reshape(-1, 2), axis=1))


def test_disconnected_graph_rejected():
    with pytest.raises(ValueError, match="disconnected"):
        rcm_ordering([[1], [0], [3], [2]])


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
