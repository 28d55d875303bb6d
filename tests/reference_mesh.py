"""Reference definitions of the mesh layer, checked element for element.

``rcm_ordering_reference`` is the queue-based breadth-first search that
``mesh.rcm_ordering`` runs in C, written one vertex at a time over Python
lists.  ``edges_reference`` and ``rcm_renumber_reference`` are the
sort-based definitions that ``mesh.generate_rect_mesh`` and
``mesh.rcm_renumber`` replaced: the distinct sorted cell sides, and
``np.lexsort`` over each entity's sorted new vertex ids.  They are slow but
easy to read, and serve as oracles.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from looptile.mesh import (Mesh, cell_sides, pair_keys, rcm_ordering,
                           sorted_distinct, vertex_adjacency)


def rcm_ordering_reference(adjacency: list[list[int]]) -> np.ndarray:
    """Reverse Cuthill-McKee permutation: position k holds the old id placed k-th.

    Deterministic tie-breaks: start from the lowest-id minimum-degree vertex,
    visit neighbors by (degree, id).  Raises ValueError on a disconnected graph.
    """
    n = len(adjacency)
    degree = [len(a) for a in adjacency]
    start = min(range(n), key=lambda v: (degree[v], v))
    order = []
    seen = [False] * n
    queue = deque([start])
    seen[start] = True
    while queue:
        v = queue.popleft()
        order.append(v)
        for w in sorted(adjacency[v], key=lambda u: (degree[u], u)):
            if not seen[w]:
                seen[w] = True
                queue.append(w)
    if len(order) != n:
        raise ValueError("graph is disconnected; renumbering unsupported")
    return np.array(order[::-1], dtype=np.int64)


def csr_from_lists(adjacency: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
    """The int64 CSR ``(offsets, neighbors)`` of neighbor lists, rows as given."""
    offsets = np.zeros(len(adjacency) + 1, dtype=np.int64)
    offsets[1:] = np.cumsum([len(a) for a in adjacency])
    neighbors = np.array([w for a in adjacency for w in a], dtype=np.int64)
    return offsets, neighbors


def lists_from_pairs(num_vertices: int, pairs) -> list[list[int]]:
    """Ascending distinct neighbor lists of an undirected edge list."""
    nbrs = [set() for _ in range(num_vertices)]
    for a, b in pairs:
        nbrs[a].add(b)
        nbrs[b].add(a)
    return [sorted(s) for s in nbrs]


def edges_reference(mesh: Mesh) -> np.ndarray:
    """The flat edge list of a mesh's cells: each distinct side once, as an
    ascending pair, pairs in ascending order."""
    tri = mesh.cells_to_vertices.reshape(-1, 3)
    keys = sorted_distinct(pair_keys(cell_sides(tri), mesh.num_vertices))
    return np.column_stack(np.divmod(keys, mesh.num_vertices)).ravel()


def rcm_renumber_reference(mesh: Mesh) -> Mesh:
    """``mesh`` relabelled by ``rcm_ordering``, its cells and edges ordered by
    two stable ``np.lexsort`` calls over their sorted new vertex ids."""
    order = rcm_ordering(vertex_adjacency(mesh))
    vertex_perm = np.empty(mesh.num_vertices, dtype=np.int64)  # old -> new
    vertex_perm[order] = np.arange(mesh.num_vertices)
    tri = vertex_perm[mesh.cells_to_vertices.reshape(-1, 3)]
    ends = vertex_perm[mesh.edges_to_vertices.reshape(-1, 2)]
    low = np.minimum(ends[:, 0], ends[:, 1])
    high = np.maximum(ends[:, 0], ends[:, 1])
    edge_order = np.lexsort((high, low))  # np.lexsort takes its primary key last
    a, b, c = tri.T
    low3 = np.minimum(np.minimum(a, b), c)
    high3 = np.maximum(np.maximum(a, b), c)
    cell_order = np.lexsort((high3, a + b + c - low3 - high3, low3))
    return Mesh(
        num_vertices=mesh.num_vertices,
        num_cells=mesh.num_cells,
        num_edges=mesh.num_edges,
        cells_to_vertices=tri[cell_order].ravel(),
        edges_to_vertices=np.column_stack((low[edge_order], high[edge_order])).ravel(),
        vertex_coords=mesh.vertex_coords[order],
    )
