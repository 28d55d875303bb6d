"""Sequential reverse Cuthill-McKee over neighbor lists.

It is the queue-based breadth-first search that ``mesh.rcm_ordering`` runs
in C, written one vertex at a time over Python lists.  It is slow but easy
to read, and serves as the oracle that ``mesh.rcm_ordering`` is checked
against, element for element.
"""

from __future__ import annotations

from collections import deque

import numpy as np


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
