"""Split a mesh into per-rank local meshes with halo regions of a given depth.

Ownership is by contiguous cell blocks; vertices and edges belong to the
lowest-rank incident cell.  Each rank materializes ``depth`` strips of
off-process cells grown through shared vertices: strips 1..depth-1 are
executable (exec), the outermost strip is data-only (non-exec).  Vertex and
edge regions derive from the cells they touch, which keeps every local
connectivity row resolvable locally.

The per-element work is compiled C (``inspector.c``), after the
connectivity is checked, since the C indexes without bounds checks:

- one pass over the whole mesh, in time linear in it: the cells around each
  vertex as a CSR, the inverse of ``cells_to_vertices`` by the counting
  sort that also inverts maps (``chain.invert_map``) and builds the edge
  graph (``mesh.vertex_adjacency``); each cell's sides as edge ids, found
  among the cells around an endpoint of each edge; and per element its
  owner (that of its lowest cell), its core flag (the cells around each of
  its vertices have one owner) and its local id on its owner;
- two passes per rank, in time linear in the rank's local elements and
  their id ranges.  The first grows the strips by a breadth-first search
  from the rank's cells, gives a vertex or edge the lowest strip of its
  local cells, and counts each region and each owner's halo elements.  The
  second, once the rank's arrays are allocated at those sizes, orders each
  space by (region, global id) in one counting pass over its id range,
  writes the exchange tables and the local connectivity, and resets the
  strips, so no rank pays for the whole mesh.

A vertex in no cell, an edge that is no cell's side and an edge stored
twice raise ``ValueError``, as does connectivity of the wrong length or
with a vertex id outside the mesh (``mesh.checked_connectivity``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import IterationSpace, MeshMap
from .inspector import _lib
from .mesh import CELLS, EDGES, SPACES, VERTS, Mesh, checked_connectivity, mesh_maps


@dataclass(frozen=True)
class RegionSizes:
    core: int
    owned: int
    exec: int
    nonexec: int

    @property
    def total(self) -> int:
        return self.core + self.owned + self.exec + self.nonexec

    @property
    def owned_total(self) -> int:
        return self.core + self.owned


@dataclass(frozen=True, eq=False)
class LocalMesh:
    """One rank's view of the mesh: renumbered locally, regions contiguous.

    Within every space, elements are stored core, owned, exec, non-exec;
    ``global_ids`` maps local back to global numbering.  ``exchange_table``
    holds, per (space, owner), the (local id here, local id on the owner)
    pairs of the halo elements this rank holds and that rank owns, ascending
    by global id; together the entries list every halo element once.
    """

    rank: int
    sizes: dict[str, RegionSizes]
    cells_to_vertices: np.ndarray
    edges_to_vertices: np.ndarray
    vertex_coords: np.ndarray
    global_ids: dict[str, np.ndarray]
    exchange_table: dict[tuple[str, int], np.ndarray]

    def spaces(self) -> dict[str, IterationSpace]:
        return {
            name: IterationSpace(name, s.core, s.owned + s.exec, s.nonexec)
            for name, s in self.sizes.items()
        }

    def maps(self, spaces: dict[str, IterationSpace] | None = None) -> dict[str, MeshMap]:
        return mesh_maps(self, spaces or self.spaces())


def partition_for_ranks(mesh: Mesh, nranks: int, depth: int) -> list[LocalMesh]:
    if nranks < 1:
        raise ValueError(f"nranks must be >= 1, got {nranks}")
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    if nranks > mesh.num_cells:
        raise ValueError(f"{nranks} ranks for {mesh.num_cells} cells")
    nc, ne, nv = mesh.num_cells, mesh.num_edges, mesh.num_vertices
    c2v = checked_connectivity(mesh.cells_to_vertices, "cells_to_vertices", 3, nc, nv)
    e2v = checked_connectivity(mesh.edges_to_vertices, "edges_to_vertices", 2, ne, nv)
    lib = _lib()

    # contiguous cell blocks, as np.array_split cuts them
    q, extra = divmod(nc, nranks)
    starts = [r * q + min(r, extra) for r in range(nranks + 1)]
    vertex_offsets = np.empty(nv + 1, dtype=np.int64)
    vertex_cells = np.empty(3 * nc, dtype=np.int64)
    cell_edges = np.empty(3 * nc, dtype=np.int64)
    owner = np.empty(nc + ne + nv, dtype=np.int64)
    core = np.empty(nc + ne + nv, dtype=np.int8)
    at_owner = np.empty(nc + ne + nv, dtype=np.int64)
    block_starts = np.array(starts, dtype=np.int64)
    next_owned = np.empty(6 * nranks, dtype=np.int64)
    fault = np.zeros(1, dtype=np.int64)
    status = lib.looptile_partition_mesh(
        nc, ne, nv, c2v.ctypes.data, e2v.ctypes.data, nranks,
        block_starts.ctypes.data, vertex_offsets.ctypes.data,
        vertex_cells.ctypes.data, cell_edges.ctypes.data, owner.ctypes.data,
        core.ctypes.data, at_owner.ctypes.data, next_owned.ctypes.data,
        fault.ctypes.data)
    f = int(fault[0])
    if status == 1:
        raise ValueError(f"vertex {f} lies in no cell")
    if status:
        pair = tuple(e2v[2 * f:2 * f + 2].tolist())
        raise ValueError(f"edge {f} {pair} is a side of no cell" if status == 2
                         else f"edge {f} {pair} is stored twice")

    # between a rank's two passes its arrays are allocated at their sizes.
    # listed holds per space the four region sizes and the id range, then
    # per (space, owner) the count of halo elements
    strip = np.full(nc + ne + nv, -1, dtype=np.int64)
    queue = np.empty(nc, dtype=np.int64)
    listed = np.empty(18 + 3 * nranks, dtype=np.int64)
    grow = (nc, ne, nv, c2v.ctypes.data, vertex_offsets.ctypes.data,
            vertex_cells.ctypes.data, cell_edges.ctypes.data, owner.ctypes.data,
            core.ctypes.data)
    write = (nc, ne, c2v.ctypes.data, e2v.ctypes.data, owner.ctypes.data,
             core.ctypes.data, at_owner.ctypes.data)
    meshes = []
    for r in range(nranks):
        lib.looptile_partition_grow(*grow, r, depth, nranks, starts[r], starts[r + 1],
                                    strip.ctypes.data, queue.ctypes.data,
                                    listed.ctypes.data)
        n = listed.tolist()
        sizes = {space: RegionSizes(*n[6 * s:6 * s + 4]) for s, space in enumerate(SPACES)}
        gids = {space: np.empty(sizes[space].total, dtype=np.int64) for space in SPACES}
        ids = np.array([a.ctypes.data for a in gids.values()], dtype=np.uintp)
        local_c2v = np.empty(3 * sizes[CELLS].total, dtype=np.int64)
        local_e2v = np.empty(2 * sizes[EDGES].total, dtype=np.int64)
        # one table per (space, owner) with halo elements, in that order
        exchange, tables = {}, np.zeros(3 * nranks, dtype=np.uintp)
        for k, count in enumerate(n[18:]):
            if count:
                table = np.empty((count, 2), dtype=np.int64)
                exchange[(SPACES[k // nranks], k % nranks)] = table
                tables[k] = table.ctypes.data
        lib.looptile_partition_write(*write, r, depth, nranks, listed.ctypes.data,
                                     strip.ctypes.data, ids.ctypes.data,
                                     tables.ctypes.data, local_c2v.ctypes.data,
                                     local_e2v.ctypes.data)
        meshes.append(LocalMesh(
            rank=r, sizes=sizes, cells_to_vertices=local_c2v,
            edges_to_vertices=local_e2v,
            vertex_coords=mesh.vertex_coords[gids[VERTS]], global_ids=gids,
            exchange_table=exchange))
    return meshes
