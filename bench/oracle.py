"""Checks made apart from the program under test.

The reference values come from a numpy evaluation of the preset's loops, one
whole-array operation per loop, over the mesh's c2v/e2v connectivity.  It
shares no code with looptile's executors.  The initial data are integers, so
every sum is exact in float64 and tiled results must equal it bit for bit.
"""

from __future__ import annotations

import numpy as np

# Each preset kernel takes (direct dataset, mapped dataset).  "inc" kernels
# add the element's own value into every mapped target; "read" kernels write
# the sum of the mapped targets into the element's own slot.
_INC = "inc"
_READ = "read"
KERNEL_KINDS = {"edge_inc": _INC, "cell_inc": _INC,
                "edge_read": _READ, "cell_read": _READ}

# The one program fault a workload keeps: in distributed mode the inspector
# leaves executable iterations of later loops on the non-exec tile, which no
# rank ever runs.
NONEXEC_FAULT = "executable iterations on the non-exec tile"


def mesh_connectivity(mesh) -> dict[str, np.ndarray]:
    """Map name -> (rows, arity) array, the only mesh input the oracle reads."""
    return {"c2v": mesh.cells_to_vertices.reshape(-1, 3),
            "e2v": mesh.edges_to_vertices.reshape(-1, 2)}


def oracle_step(problem, conn: dict[str, np.ndarray],
                values: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Apply every loop of ``problem`` once, in order; returns new arrays."""
    out = {name: v.copy() for name, v in values.items()}
    for spec in problem.loops:
        kind = KERNEL_KINDS.get(spec.kernel)
        if kind is None or len(spec.accesses) != 2:
            raise ValueError(f"oracle has no rule for kernel {spec.kernel!r}")
        direct, mapped = spec.accesses
        rows = conn[mapped.map]
        if kind == _INC:
            target = out[mapped.dataset]
            weights = np.repeat(out[direct.dataset], rows.shape[1])
            target += np.bincount(rows.ravel(), weights=weights,
                                  minlength=len(target))
        else:
            out[direct.dataset] = out[mapped.dataset][rows].sum(axis=1)
    return out


def oracle_states(problem, conn, initial, steps: int) -> list[dict]:
    """States after 1..steps applications of the chain (index 0 is step 1)."""
    states, current = [], initial
    for _ in range(steps):
        current = oracle_step(problem, conn, current)
        states.append(current)
    return states


def compare(expected: dict[str, np.ndarray], got: dict[str, np.ndarray]) -> list[str]:
    """Exact comparison of every dataset; one message per differing dataset."""
    errors = []
    for name in sorted(expected):
        bad = np.flatnonzero(expected[name] != got[name])
        if len(bad):
            i = int(bad[0])
            errors.append(f"{name}: {len(bad)} values differ, first at {i}: "
                          f"expected {expected[name][i]}, got {got[name][i]}")
    return errors


def check_mesh_counts(mesh, nx: int, ny: int) -> list[str]:
    expected = {"cells": 2 * nx * ny, "verts": (nx + 1) * (ny + 1),
                "edges": 3 * nx * ny + nx + ny}
    got = {"cells": mesh.num_cells, "verts": mesh.num_vertices,
           "edges": mesh.num_edges}
    errors = [f"mesh has {got[k]} {k}, expected {expected[k]}"
              for k in expected if got[k] != expected[k]]
    if len(mesh.cells_to_vertices) != 3 * mesh.num_cells:
        errors.append("c2v length differs from 3 x cells")
    if len(mesh.edges_to_vertices) != 2 * mesh.num_edges:
        errors.append("e2v length differs from 2 x edges")
    return errors


def check_schedule(schedule, chain, bindings, shared: bool) -> list[str]:
    """Coverage of every loop, and in shared mode same-color independence.

    Coverage: every executable iteration of every loop is listed by exactly
    one executable tile, and the non-exec tile lists none.  Independence: no
    two distinct executable tiles of one color touch a common element of a
    dataset that either of them writes or increments.
    """
    errors = []
    tiles = schedule.tiles
    nonexec = tiles[-1]
    executable = [t for t in tiles if t is not nonexec]
    if nonexec.region.name != "NONEXEC" or any(
            t.region.name == "NONEXEC" for t in executable):
        errors.append("the last tile is not the only non-exec tile")
    empty = np.empty(0, dtype=np.int64)
    for j, loop in enumerate(chain.loops):
        n_exec = loop.space.executable_size
        listed = np.concatenate([t.iteration_lists.get(j, empty) for t in executable])
        counts = np.bincount(listed, minlength=loop.space.total)[:n_exec]
        on_nonexec = nonexec.iteration_lists.get(j, empty)
        stranded = on_nonexec[on_nonexec < n_exec]
        if len(stranded):
            errors.append(f"loop {j}: {len(stranded)} {NONEXEC_FAULT} "
                          f"(first {int(stranded[0])})")
        np.add.at(counts, stranded, 1)
        if np.any(counts != 1):
            bad = np.flatnonzero(counts != 1)
            errors.append(f"loop {j}: {len(bad)} executable iterations not in "
                          f"exactly one tile (first {int(bad[0])})")
    if shared:
        errors += _same_color_races(executable, chain, bindings)
    return errors


def _same_color_races(tiles, chain, bindings) -> list[str]:
    records: dict[str, list[tuple]] = {}
    for t in tiles:
        for j, (loop, binding) in enumerate(zip(chain.loops, bindings)):
            lst = t.iteration_lists.get(j)
            if lst is None or not len(lst):
                continue
            for d, name in zip(loop.descriptors, binding.args):
                elements = (lst if d.is_direct else
                            d.map.values.reshape(-1, d.map.arity)[lst].ravel())
                records.setdefault(name, []).append(
                    (elements, t.id, t.color, d.mode.writes))
    n_tiles = max(t.id for t in tiles) + 2
    errors = []
    for name, recs in sorted(records.items()):
        elements = np.concatenate([r[0] for r in recs])
        sizes = [len(r[0]) for r in recs]
        tile = np.repeat([r[1] for r in recs], sizes)
        color = np.repeat([r[2] for r in recs], sizes)
        writes = np.repeat([r[3] for r in recs], sizes).astype(np.int64)
        n_elem = int(elements.max()) + 1
        key = (color * n_elem + elements) * n_tiles + tile
        uniq, inverse = np.unique(key, return_inverse=True)
        wrote = np.zeros(len(uniq), dtype=np.int64)
        np.maximum.at(wrote, inverse, writes)
        group, group_of = np.unique(uniq // n_tiles, return_inverse=True)
        distinct_tiles = np.bincount(group_of)
        any_write = np.bincount(group_of, weights=wrote)
        race = (distinct_tiles > 1) & (any_write > 0)
        if np.any(race):
            g = int(group[np.flatnonzero(race)[0]])
            errors.append(f"{name}: {int(race.sum())} elements written by one "
                          f"tile and touched by another of the same color "
                          f"(first: color {g // n_elem}, element {g % n_elem})")
    return errors
