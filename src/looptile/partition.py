"""Split a mesh into per-rank local meshes with halo regions of a given depth.

Ownership is by contiguous cell blocks; vertices and edges belong to the
lowest-rank incident cell.  Each rank materializes ``depth`` strips of
off-process cells grown through shared vertices: strips 1..depth-1 are
executable (exec), the outermost strip is data-only (non-exec).  Vertex and
edge regions derive from the cells they touch, which keeps every local
connectivity row resolvable locally.

Every step is a whole-array numpy pass:

- the cells around each vertex are a CSR from one stable argsort of the cell
  connectivity; the cells around each edge are the runs of equal pair keys
  among all cell sides, matched to edges by one ``searchsorted``.  Segment
  minima (``np.minimum.reduceat``) of cell values over these give the owners
  of vertices and edges, and later their strips;
- an owned entity is core when each of its vertices has a segment minimum
  of cell owners equal to its segment maximum, so no foreign cell touches it;
- the halo strips are a boolean breadth-first search of ``depth`` steps per
  rank, and a vertex or edge takes the lowest strip of its local cells;
- each space is ordered by (region, global id) with one stable sort, and its
  local numbering is a full-size inverse array holding -1 for absent ids;
- a rank's exchange table groups its halo elements by owner, each sorted by
  global id; the owner's local ids come from its inverse array.

A vertex in no cell, or an edge that is no cell's side, has no owner and
raises ``ValueError``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import IterationSpace, MeshMap
from .mesh import (CELLS, EDGES, SPACES, VERTS, Mesh, cell_sides, mesh_maps,
                   pair_keys)

CORE, OWNED, EXEC, NONEXEC = range(4)  # region codes, in storage order


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


@dataclass(frozen=True)
class _Incidence:
    """The cells around every vertex and every edge, as sorted segments.

    A vertex's segment holds the cells containing it; an edge's holds the
    cells having it as a side, i.e. the cells containing both its endpoints.
    """

    vertex_cells: np.ndarray
    vertex_starts: np.ndarray
    side_cells: np.ndarray
    side_starts: np.ndarray
    edge_side_run: np.ndarray  # edge -> index of its run of sides

    def reduce(self, cell_values: np.ndarray, ufunc=np.minimum) -> dict[str, np.ndarray]:
        """Per space, ``ufunc`` over the values of the cells around each entity."""
        sides = ufunc.reduceat(cell_values[self.side_cells], self.side_starts)
        return {
            CELLS: cell_values,
            EDGES: sides[self.edge_side_run],
            VERTS: ufunc.reduceat(cell_values[self.vertex_cells], self.vertex_starts),
        }


def _incidence(tri: np.ndarray, pairs: np.ndarray, num_vertices: int) -> _Incidence:
    # vertex -> cells: one stable argsort of the connectivity, cells ascending
    flat = tri.ravel()
    counts = np.bincount(flat, minlength=num_vertices)
    if not counts.all():
        raise ValueError(f"vertex {int(np.argmin(counts))} lies in no cell")
    vertex_cells = np.argsort(flat, kind="stable") // 3
    vertex_starts = np.concatenate(([0], np.cumsum(counts[:-1])))

    # edge -> cells: the runs of equal pair keys among all cell sides
    keys = pair_keys(cell_sides(tri), num_vertices)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    side_starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    run_keys = keys[side_starts]
    edge_keys = pair_keys(pairs, num_vertices)
    run = np.minimum(np.searchsorted(run_keys, edge_keys), len(run_keys) - 1)
    unmatched = run_keys[run] != edge_keys
    if unmatched.any():
        e = int(np.argmax(unmatched))
        raise ValueError(f"edge {e} {tuple(pairs[e].tolist())} is a side of no cell")
    return _Incidence(vertex_cells=vertex_cells,
                      vertex_starts=vertex_starts, side_cells=order // 3,
                      side_starts=side_starts, edge_side_run=run)


def partition_for_ranks(mesh: Mesh, nranks: int, depth: int) -> list[LocalMesh]:
    if nranks < 1:
        raise ValueError(f"nranks must be >= 1, got {nranks}")
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    if nranks > mesh.num_cells:
        raise ValueError(f"{nranks} ranks for {mesh.num_cells} cells")

    tri = mesh.cells_to_vertices.reshape(-1, 3)
    pairs = mesh.edges_to_vertices.reshape(-1, 2)
    incidence = _incidence(tri, pairs, mesh.num_vertices)

    # contiguous block ownership of cells; entities follow their lowest-rank cell
    blocks = [len(b) for b in np.array_split(np.arange(mesh.num_cells), nranks)]
    cell_owner = np.repeat(np.arange(nranks, dtype=np.int64), blocks)
    owners = incidence.reduce(cell_owner)

    # core <=> the ring of cells around the entity's vertices is {owner}.  The
    # entity's own cells lie in every vertex's ring, so it suffices that each
    # vertex sees a single owner: its lowest and highest cell owners agree.
    single = owners[VERTS] == incidence.reduce(cell_owner, np.maximum)[VERTS]
    core = {CELLS: single[tri[:, 0]] & single[tri[:, 1]] & single[tri[:, 2]],
            EDGES: single[pairs[:, 0]] & single[pairs[:, 1]], VERTS: single}

    ranks = [_build_rank(mesh, r, depth, tri, pairs, incidence, owners, core)
             for r in range(nranks)]
    exchange = _exchange_tables(ranks, owners)

    return [LocalMesh(rank=r, sizes=info["sizes"], cells_to_vertices=info["c2v"],
                      edges_to_vertices=info["e2v"], vertex_coords=info["coords"],
                      global_ids=info["global_ids"], exchange_table=table)
            for r, (info, table) in enumerate(zip(ranks, exchange))]


def _build_rank(mesh, r, depth, tri, pairs, incidence, owners, core) -> dict:
    # grow `depth` strips of cells through shared vertices; depth + 1 = absent
    cell_strip = np.where(owners[CELLS] == r, 0, depth + 1)
    frontier = cell_strip == 0
    for k in range(1, depth + 1):
        touched = np.zeros(mesh.num_vertices, dtype=bool)
        touched[tri[frontier]] = True
        frontier = ((touched[tri[:, 0]] | touched[tri[:, 1]] | touched[tri[:, 2]])
                    & (cell_strip > depth))
        if not frontier.any():
            break
        cell_strip[frontier] = k

    # entities are local iff incident to a local cell; strip = min over those cells
    strips = incidence.reduce(cell_strip)

    sizes, global_ids, local_of = {}, {}, {}
    for space in SPACES:
        strip = strips[space]
        gids = np.flatnonzero(strip <= depth)
        region = np.where(owners[space][gids] == r,
                          np.where(core[space][gids], CORE, OWNED),
                          np.where(strip[gids] <= depth - 1, EXEC, NONEXEC))
        # gids ascend, so a stable sort by region orders by (region, gid)
        gids = gids[np.argsort(region, kind="stable")].astype(np.int64, copy=False)
        sizes[space] = RegionSizes(*np.bincount(region, minlength=4).tolist())
        global_ids[space] = gids
        local = np.full(len(strip), -1, dtype=np.int64)
        local[gids] = np.arange(len(gids))
        local_of[space] = local

    vlocal = local_of[VERTS]
    return {
        "sizes": sizes,
        "c2v": vlocal[tri[global_ids[CELLS]]].ravel(),
        "e2v": vlocal[pairs[global_ids[EDGES]]].ravel(),
        "coords": mesh.vertex_coords[global_ids[VERTS]],
        "global_ids": global_ids,
        "local_of": local_of,
    }


def _exchange_tables(ranks: list[dict], owners: dict[str, np.ndarray]
                     ) -> list[dict[tuple[str, int], np.ndarray]]:
    """Pair every halo element with its owner's copy, grouped by owner."""
    tables = []
    for info in ranks:
        table = {}
        for space in SPACES:
            owned = info["sizes"][space].owned_total
            halo = info["global_ids"][space][owned:]
            owner = owners[space][halo]
            order = np.lexsort((halo, owner))
            peers, starts = np.unique(owner[order], return_index=True)
            for s, rows in zip(peers.tolist(), np.split(order, starts[1:])):
                there = ranks[s]["local_of"][space][halo[rows]]
                table[(space, s)] = np.column_stack([owned + rows, there])
        tables.append(table)
    return tables
