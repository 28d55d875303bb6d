"""Synthetic triangle meshes over rectangular domains, plus renumbering.

The generator splits every quad of an nx-by-ny grid along the same diagonal
(bottom-left to top-right) so outputs are deterministic and hand-checkable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import IterationSpace, MeshMap


@dataclass(frozen=True, eq=False)
class Mesh:
    """A 2D triangulation: flat connectivity arrays plus coordinates for output."""

    num_vertices: int
    num_cells: int
    num_edges: int
    cells_to_vertices: np.ndarray  # flat, arity 3
    edges_to_vertices: np.ndarray  # flat, arity 2
    vertex_coords: np.ndarray      # shape (num_vertices, 2)

    def validate(self) -> None:
        """Raise ValueError naming the first connectivity invariant that fails."""
        c2v = self.cells_to_vertices
        e2v = self.edges_to_vertices
        _require(len(c2v) == 3 * self.num_cells,
                 "len(cells_to_vertices) == 3 * num_cells")
        _require(len(e2v) == 2 * self.num_edges,
                 "len(edges_to_vertices) == 2 * num_edges")
        if self.num_cells:
            _require(0 <= c2v.min() and c2v.max() < self.num_vertices,
                     "cell vertex ids in [0, num_vertices)")
        if self.num_edges:
            _require(0 <= e2v.min() and e2v.max() < self.num_vertices,
                     "edge vertex ids in [0, num_vertices)")
        # distinct vertices per entity
        tri = c2v.reshape(-1, 3)
        _require(np.all(tri[:, 0] != tri[:, 1]) and np.all(tri[:, 1] != tri[:, 2])
                 and np.all(tri[:, 0] != tri[:, 2]),
                 "three distinct vertices per cell")
        pairs = e2v.reshape(-1, 2)
        _require(np.all(pairs[:, 0] != pairs[:, 1]), "two distinct vertices per edge")
        # the edge set is exactly the set of undirected cell sides, once each
        stored = sorted_distinct(pair_keys(pairs, self.num_vertices))
        sides = sorted_distinct(pair_keys(cell_sides(tri), self.num_vertices))
        _require(np.array_equal(sides, stored), "edge set equals the cell sides")
        _require(len(stored) == self.num_edges, "no edge stored twice")


def _require(holds, condition: str) -> None:
    if not holds:
        raise ValueError(f"invalid mesh: expected {condition}")


def cell_sides(tri: np.ndarray) -> np.ndarray:
    """The sides of every cell as vertex pairs: rows (a, b), (b, c), (a, c) per cell."""
    return tri[:, [0, 1, 1, 2, 0, 2]].reshape(-1, 2)


def pair_keys(pairs: np.ndarray, num_vertices: int) -> np.ndarray:
    """One key per undirected vertex pair, low * num_vertices + high.

    Keys order pairs as sorted (low, high) tuples would.
    """
    lo = np.minimum(pairs[:, 0], pairs[:, 1])
    hi = np.maximum(pairs[:, 0], pairs[:, 1])
    return lo * num_vertices + hi


def sorted_distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct values of ``keys``, ascending.

    A sort and an adjacent-difference mask; ``np.unique`` would import
    ``numpy.ma`` on first use.
    """
    keys = np.sort(keys)
    if keys.size:
        keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    return keys


def generate_rect_mesh(nx: int, ny: int) -> Mesh:
    """Triangulate an nx-by-ny quad grid into 2*nx*ny triangles.

    Vertex (i, j) gets id j*(nx+1)+i; every quad is split along its
    bottom-left to top-right diagonal, lower triangle first.  The edges are
    listed in ascending (low, high) order as they are generated, so nothing
    is sorted.
    """
    if nx < 1 or ny < 1:
        raise ValueError(f"mesh dimensions must be positive, got {nx}x{ny}")
    nvx, nvy = nx + 1, ny + 1
    num_vertices = nvx * nvy

    ii, jj = np.meshgrid(np.arange(nvx), np.arange(nvy))
    coords = np.column_stack([ii.ravel().astype(float), jj.ravel().astype(float)])

    # the quad with bottom-left corner v holds (v, v+1, v+nvx+1), then
    # (v, v+nvx+1, v+nvx)
    corner = np.arange(0, ny * nvx, nvx)[:, None] + np.arange(nx)
    tri = (corner[:, :, None, None]
           + np.array([[0, 1, nvx + 1], [0, nvx + 1, nvx]])).reshape(-1, 3)

    # Each vertex of a grid row below the top has its right, upper and
    # diagonal neighbours, v+1, v+nvx and v+nvx+1, where they exist; the top
    # row's vertices, their right ones.  Listed vertex by vertex, the edges
    # are in ascending (low, high) order with no sort.
    step = np.append(np.tile([1, nvx, nvx + 1], nx), nvx)  # high - low along a row
    low = np.repeat(np.arange(nvx), np.append(np.full(nx, 3), 1))
    below = len(step) * ny
    e2v = np.empty((below + nx, 2), dtype=np.int64)
    rows = e2v[:below].reshape(ny, len(step), 2)
    rows[:, :, 0] = np.arange(0, ny * nvx, nvx)[:, None] + low
    rows[:, :, 1] = rows[:, :, 0] + step
    e2v[below:, 0] = np.arange(ny * nvx, ny * nvx + nx)
    e2v[below:, 1] = e2v[below:, 0] + 1

    mesh = Mesh(
        num_vertices=num_vertices,
        num_cells=len(tri),
        num_edges=len(e2v),
        cells_to_vertices=tri.ravel(),
        edges_to_vertices=e2v.ravel(),
        vertex_coords=coords,
    )
    return mesh


def checked_connectivity(values, name: str, arity: int, count: int,
                         num_vertices: int) -> np.ndarray:
    """``values``, ``count`` rows of ``arity`` vertex ids, as contiguous
    int64; or ValueError naming its fault and the first row at fault."""
    if (not isinstance(values, np.ndarray) or values.ndim != 1
            or values.dtype.kind not in "iu"):
        raise ValueError(f"{name} is not a 1-D integer array")
    if len(values) != arity * count:
        raise ValueError(f"{name} has {len(values)} entries, not "
                         f"{arity} * {count}")
    values = np.ascontiguousarray(values, dtype=np.int64)
    if len(values) and (values.min() < 0 or values.max() >= num_vertices):
        i = int(np.flatnonzero((values < 0) | (values >= num_vertices))[0])
        row = values[i - i % arity:i - i % arity + arity].tolist()
        raise ValueError(f"{name} holds vertex id {values[i]}, outside "
                         f"[0, {num_vertices}), in row {i // arity} {tuple(row)}")
    return values


def vertex_adjacency(mesh: Mesh) -> tuple[np.ndarray, np.ndarray]:
    """The edge graph as an int64 CSR ``(offsets, neighbors)``.

    Row ``v`` is ``neighbors[offsets[v]:offsets[v + 1]]``: the distinct
    neighbors of vertex ``v``, ascending, for any edge order and with an
    edge stored twice or reversed.  One compiled counting sort
    (``looptile_adjacency`` in ``inspector.c``) buckets the edges by
    vertex, after ``checked_connectivity`` has checked the edge list.
    """
    from .inspector import _lib  # inspector imports this module

    nv = mesh.num_vertices
    e2v = checked_connectivity(mesh.edges_to_vertices, "edges_to_vertices", 2,
                               mesh.num_edges, nv)
    offsets = np.empty(nv + 1, dtype=np.int64)
    neighbors = np.empty(len(e2v), dtype=np.int64)
    count = _lib().looptile_adjacency(mesh.num_edges, e2v.ctypes.data, nv,
                                      offsets.ctypes.data, neighbors.ctypes.data)
    return offsets, neighbors[:count]


def adjacency_bandwidth(adjacency: tuple[np.ndarray, np.ndarray]) -> int:
    """max |i - j| over connected vertex pairs of a CSR adjacency."""
    offsets, neighbors = adjacency
    if not neighbors.size:
        return 0
    src = np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))
    return int(np.abs(src - neighbors).max())


def rcm_ordering(adjacency: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Reverse Cuthill-McKee permutation: position k holds the old id placed k-th.

    ``adjacency`` is an undirected graph's int64 CSR ``(offsets, neighbors)``,
    as ``vertex_adjacency`` returns it; rows may come in any order.
    Deterministic tie-breaks: start from the lowest-id minimum-degree vertex,
    visit neighbors by (degree, id).  The queue walk is one C call
    (``looptile_cuthill_mckee`` in ``inspector.c``), on a copy of
    ``neighbors`` whose rows it sorts.  Raises ValueError on a disconnected
    graph, or naming the fault unless ``offsets`` holds n + 1 non-decreasing
    int64 entries from 0 to ``len(neighbors)`` and every neighbor lies in
    [0, n).
    """
    from .inspector import _lib  # inspector imports this module

    offsets, neighbors = adjacency
    n = _check_csr(offsets, neighbors)
    rows = neighbors.copy()
    order = np.empty(n, dtype=np.int64)
    placed = _lib().looptile_cuthill_mckee(n, offsets.ctypes.data,
                                           rows.ctypes.data, order.ctypes.data)
    if placed < 0:
        raise MemoryError("no memory to renumber the vertices")
    if placed != n:
        raise ValueError("graph is disconnected; renumbering unsupported")
    return order[::-1]


def _check_csr(offsets: np.ndarray, neighbors: np.ndarray) -> int:
    """The vertex count n of a CSR, or ValueError naming what makes it no CSR."""
    for a, what in ((offsets, "offsets"), (neighbors, "neighbors")):
        if (not isinstance(a, np.ndarray) or a.dtype != np.int64 or a.ndim != 1
                or not a.flags.c_contiguous):
            raise ValueError(f"CSR {what} is not a contiguous 1-D int64 array")
    if not len(offsets) or offsets[0] != 0 or offsets[-1] != len(neighbors):
        raise ValueError(f"CSR offsets must run from 0 to len(neighbors) = "
                         f"{len(neighbors)}")
    if np.any(offsets[1:] < offsets[:-1]):
        raise ValueError("CSR offsets decrease")
    n = len(offsets) - 1
    if len(neighbors) and (neighbors.min() < 0 or neighbors.max() >= n):
        raise ValueError(f"CSR neighbor ids must lie in [0, {n})")
    return n


def rcm_renumber(mesh: Mesh) -> Mesh:
    """Relabel all entity spaces by reverse Cuthill-McKee over the edge graph.

    Vertices take their RCM positions.  Cells and edges are then ordered by
    the sorted tuple of their new vertex ids, keeping entities with nearby
    vertices nearby, so chunked seed partitions stay spatially compact;
    equal tuples keep their order.  A cell keeps its vertex order; an edge
    stores its vertices ascending.  The reordering is one C call
    (``looptile_renumber`` in ``inspector.c``): stable counting passes over
    the vertex range, last tuple entry first, which order as ``np.lexsort``
    would.  ``checked_connectivity`` checks the cell list first and
    ``vertex_adjacency`` the edge list.
    """
    from .inspector import _lib  # inspector imports this module

    nv = mesh.num_vertices
    c2v = checked_connectivity(mesh.cells_to_vertices, "cells_to_vertices", 3,
                               mesh.num_cells, nv)
    order = rcm_ordering(vertex_adjacency(mesh))
    # vertex_adjacency has checked the edge list
    e2v = np.ascontiguousarray(mesh.edges_to_vertices, dtype=np.int64)
    vertex_perm = np.empty(nv, dtype=np.int64)  # old -> new
    vertex_perm[order] = np.arange(nv)
    new_c2v = np.empty_like(c2v)
    new_e2v = np.empty_like(e2v)
    if _lib().looptile_renumber(nv, vertex_perm.ctypes.data,
                                mesh.num_cells, c2v.ctypes.data,
                                mesh.num_edges, e2v.ctypes.data,
                                new_c2v.ctypes.data, new_e2v.ctypes.data) < 0:
        raise MemoryError("no memory to renumber the cells and edges")
    return Mesh(
        num_vertices=nv,
        num_cells=mesh.num_cells,
        num_edges=mesh.num_edges,
        cells_to_vertices=new_c2v,
        edges_to_vertices=new_e2v,
        vertex_coords=mesh.vertex_coords[order],
    )


# -- chain-building helpers -------------------------------------------------

CELLS, EDGES, VERTS = "cells", "edges", "verts"
SPACES = (CELLS, EDGES, VERTS)
# every map a mesh provides: name -> (source space, target space, arity)
MAPS = {"c2v": (CELLS, VERTS, 3), "e2v": (EDGES, VERTS, 2)}


def mesh_spaces(mesh: Mesh) -> dict[str, IterationSpace]:
    """Single-rank iteration spaces: everything core, no halo regions."""
    return {
        CELLS: IterationSpace(CELLS, mesh.num_cells),
        EDGES: IterationSpace(EDGES, mesh.num_edges),
        VERTS: IterationSpace(VERTS, mesh.num_vertices),
    }


def mesh_maps(mesh, spaces: dict[str, IterationSpace]) -> dict[str, MeshMap]:
    """The MAPS of a global or rank-local mesh over the given spaces."""
    values = {"c2v": mesh.cells_to_vertices, "e2v": mesh.edges_to_vertices}
    return {name: MeshMap(name, spaces[source], spaces[target], arity, values[name])
            for name, (source, target, arity) in MAPS.items()}
