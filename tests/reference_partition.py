"""Per-element reference version of ``partition.partition_for_ranks``.

It walks every element in Python with dicts and sets, exactly as the
partitioner once did.  It is slow but easy to read, and serves as the oracle
that the whole-array passes in ``looptile.partition`` are checked against:
the same local meshes, field for field, dtype for dtype, with exchange-table
keys inserted in the same order.
"""

from __future__ import annotations

import numpy as np

from looptile.errors import PartitionBugError
from looptile.mesh import CELLS, EDGES, VERTS, Mesh
from looptile.partition import LocalMesh, RegionSizes

_REGION_ORDER = {"core": 0, "owned": 1, "exec": 2, "nonexec": 3}


def _vertex_cells(mesh: Mesh) -> list[list[int]]:
    incident: list[list[int]] = [[] for _ in range(mesh.num_vertices)]
    tri = mesh.cells_to_vertices.reshape(-1, 3)
    for c, row in enumerate(tri.tolist()):
        for v in row:
            incident[v].append(c)
    return incident


def partition_for_ranks_reference(mesh: Mesh, nranks: int, depth: int) -> list[LocalMesh]:
    if nranks < 1:
        raise ValueError(f"nranks must be >= 1, got {nranks}")
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    if nranks > mesh.num_cells:
        raise ValueError(f"{nranks} ranks for {mesh.num_cells} cells")

    tri = mesh.cells_to_vertices.reshape(-1, 3)
    pairs = mesh.edges_to_vertices.reshape(-1, 2)
    vertex_cells = _vertex_cells(mesh)

    # contiguous block ownership of cells; entities follow their lowest-rank cell
    cell_owner = np.empty(mesh.num_cells, dtype=np.int64)
    for r, block in enumerate(np.array_split(np.arange(mesh.num_cells), nranks)):
        cell_owner[block] = r
    vertex_owner = np.array(
        [min(cell_owner[c] for c in vertex_cells[v]) for v in range(mesh.num_vertices)],
        dtype=np.int64)
    # flanking cells of an edge = cells containing both endpoints
    edge_owner = np.array(
        [min(cell_owner[c]
             for c in set(vertex_cells[a]) & set(vertex_cells[b]))
         for a, b in pairs.tolist()],
        dtype=np.int64)

    # "touches a foreign cell" drives the core/owned split for every space
    def ring_owners(vertices) -> set[int]:
        return {int(cell_owner[c]) for v in vertices for c in vertex_cells[v]}

    cell_ring = [ring_owners(row) for row in tri.tolist()]
    edge_ring = [ring_owners(row) for row in pairs.tolist()]
    vert_ring = [ring_owners([v]) for v in range(mesh.num_vertices)]

    locals_: list[dict] = []
    for r in range(nranks):
        locals_.append(_build_rank(mesh, r, depth, tri, pairs, vertex_cells,
                                   cell_owner, vertex_owner, edge_owner,
                                   cell_ring, edge_ring, vert_ring))

    _fill_exchange_tables(locals_, nranks)

    meshes = []
    for info in locals_:
        meshes.append(LocalMesh(
            rank=info["rank"],
            sizes=info["sizes"],
            cells_to_vertices=info["c2v"],
            edges_to_vertices=info["e2v"],
            vertex_coords=info["coords"],
            global_ids=info["global_ids"],
            exchange_table=info["exchange"],
        ))
    return meshes


def _build_rank(mesh, r, depth, tri, pairs, vertex_cells, cell_owner,
                vertex_owner, edge_owner, cell_ring, edge_ring, vert_ring) -> dict:
    owned_cells = np.flatnonzero(cell_owner == r)

    # grow `depth` strips of cells through shared vertices
    strip = {int(c): 0 for c in owned_cells}
    frontier = set(strip)
    for k in range(1, depth + 1):
        grown = set()
        for c in frontier:
            for v in tri[c]:
                grown.update(vertex_cells[v])
        frontier = grown - strip.keys()
        for c in frontier:
            strip[c] = k
        if not frontier:
            break

    local_cells = sorted(strip)
    local_cell_set = set(local_cells)

    # entities are local iff incident to a local cell; strip = min over those cells
    vert_strip: dict[int, int] = {}
    for c in local_cells:
        for v in tri[c]:
            v = int(v)
            vert_strip[v] = min(vert_strip.get(v, depth), strip[c])
    edge_strip: dict[int, int] = {}
    for e, (a, b) in enumerate(pairs.tolist()):
        flanks = [c for c in set(vertex_cells[a]) & set(vertex_cells[b])
                  if c in local_cell_set]
        if flanks:
            edge_strip[e] = min(strip[c] for c in flanks)

    def region(owner, strp, ring) -> str:
        if owner == r:
            return "owned" if ring != {r} else "core"
        return "exec" if strp <= depth - 1 else "nonexec"

    def order_space(strips: dict[int, int], owner, ring) -> tuple:
        entries = sorted(
            (g for g in strips),
            key=lambda g: (_REGION_ORDER[region(owner[g], strips[g], ring[g])], g))
        regions = [region(owner[g], strips[g], ring[g]) for g in entries]
        counts = {name: regions.count(name) for name in _REGION_ORDER}
        sizes = RegionSizes(counts["core"], counts["owned"], counts["exec"],
                            counts["nonexec"])
        gids = np.array(entries, dtype=np.int64)
        local_of = {g: i for i, g in enumerate(entries)}
        return sizes, gids, local_of

    csizes, cgids, clocal = order_space(strip, cell_owner, cell_ring)
    vsizes, vgids, vlocal = order_space(vert_strip, vertex_owner, vert_ring)
    esizes, egids, elocal = order_space(edge_strip, edge_owner, edge_ring)

    c2v = np.array([vlocal[int(v)] for g in cgids for v in tri[g]], dtype=np.int64)
    e2v = np.array([vlocal[int(v)] for g in egids for v in pairs[g]], dtype=np.int64)

    return {
        "rank": r,
        "sizes": {CELLS: csizes, EDGES: esizes, VERTS: vsizes},
        "c2v": c2v,
        "e2v": e2v,
        "coords": mesh.vertex_coords[vgids],
        "global_ids": {CELLS: cgids, EDGES: egids, VERTS: vgids},
        "owners": {CELLS: cell_owner, EDGES: edge_owner, VERTS: vertex_owner},
        "local_of": {CELLS: clocal, EDGES: elocal, VERTS: vlocal},
        "exchange": {},
    }


def _fill_exchange_tables(locals_: list[dict], nranks: int) -> None:
    """Pair every halo element with its owner's copy, grouped by owner."""
    for r in range(nranks):
        info_r = locals_[r]
        for space in (CELLS, EDGES, VERTS):
            owners = info_r["owners"][space]
            held: dict[int, list[int]] = {}
            for g in info_r["global_ids"][space].tolist():
                o = int(owners[g])
                if o != r:
                    held.setdefault(o, []).append(g)  # r holds a copy of o's element
            for s in sorted(held):
                info_s = locals_[s]
                table = []
                for g in sorted(held[s]):
                    if g not in info_s["local_of"][space]:
                        raise PartitionBugError(
                            f"{space} {g} missing on its owner, rank {s}")
                    table.append((info_r["local_of"][space][g],
                                  info_s["local_of"][space][g]))
                info_r["exchange"][(space, s)] = np.array(table, dtype=np.int64)
