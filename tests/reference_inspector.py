"""Per-element reference versions of ``inspector.project`` and ``tile_loop``.

These walk every element in Python, one map entry at a time, exactly as the
inspector once did.  They are slow but easy to read, and serve as the oracle
that the compiled passes in ``looptile.inspector`` are checked against:
same projection arrays, same tiling arrays and the same conflict pairs.
"""

from __future__ import annotations

import numpy as np

from looptile.chain import Loop, MeshMap
from looptile.errors import InspectionError
from looptile.inspector import NO_TILE


def _add(conflicts: set[tuple[int, int]], a: int, b: int) -> None:
    if a != b:
        conflicts.add((min(a, b), max(a, b)))


def _inverse(mesh_map: MeshMap) -> tuple[np.ndarray, np.ndarray]:
    """(offsets, sources) of ``mesh_map``'s inverse, by the stable-argsort
    definition, sharing no code with ``chain.invert_map``."""
    counts = np.bincount(mesh_map.values, minlength=mesh_map.target.total)
    offsets = np.concatenate(([0], np.cumsum(counts)))
    return offsets, np.argsort(mesh_map.values, kind="stable") // mesh_map.arity


def project_reference(loop: Loop, sigma: np.ndarray, phi: dict[str, np.ndarray],
                      colors: np.ndarray, conflicts: set[tuple[int, int]],
                      inverse_maps: dict[str, tuple[np.ndarray, np.ndarray]]
                      ) -> None:
    # direct accesses fold first and add no pairs: the loop's own tiling
    # already met the held projection they replace
    if any(d.is_direct for d in loop.descriptors):
        phi[loop.space.name] = sigma.copy()
    for d in loop.descriptors:
        if not d.is_direct:
            if d.map.name not in inverse_maps:
                inverse_maps[d.map.name] = _inverse(d.map)
            offsets, sources = inverse_maps[d.map.name]
            space = d.map.target
            old_assign = phi.get(space.name)
            sa = sigma
            new = np.full(space.total, NO_TILE, dtype=np.int64)
            for e in range(space.total):
                if old_assign is not None and old_assign[e] >= 0:
                    best = int(old_assign[e])
                    best_color = int(colors[best])
                    seen = {best_color: best}
                else:
                    best, best_color, seen = NO_TILE, -1, {}
                for f in sources[offsets[e]:offsets[e + 1]]:
                    t = int(sa[f])
                    if t == NO_TILE:
                        continue  # a source on no tile touches nothing
                    c = int(colors[t])
                    prior = seen.get(c)
                    if prior is None:
                        seen[c] = t
                    elif prior != t:
                        _add(conflicts, prior, t)
                    if c > best_color:
                        best, best_color = t, c
                new[e] = best
            phi[space.name] = new


def tile_loop_reference(loop: Loop, phi: dict[str, np.ndarray], colors: np.ndarray,
                        conflicts: set[tuple[int, int]] | None = None) -> np.ndarray:
    space = loop.space
    assignment = np.full(space.total, NO_TILE, dtype=np.int64)
    held_color = np.full(space.total, -1, dtype=np.int64)

    def candidate_arrays():
        for d in loop.descriptors:
            if d.is_direct:
                proj = phi.get(space.name)
                if proj is not None:
                    yield proj, None, 1
            else:
                proj = phi.get(d.map.target.name)
                if proj is not None:
                    yield proj, d.map.values, d.map.arity

    applied = False
    for pa, vals, a in candidate_arrays():
        applied = True
        for e in range(space.total):
            base = e * a
            for k in range(a):
                candidate = int(pa[e] if vals is None else pa[vals[base + k]])
                if candidate < 0:
                    continue
                c = int(colors[candidate])
                if c > held_color[e]:
                    assignment[e] = candidate
                    held_color[e] = c

    if not applied:
        raise InspectionError(
            f"loop {loop.index} over {space.name!r}: no projection covers any "
            f"accessed space")
    if np.any(assignment[:space.executable_size] < 0):
        missing = int(np.flatnonzero(assignment[:space.executable_size] < 0)[0])
        raise InspectionError(
            f"loop {loop.index}: element {missing} of {space.name!r} is not "
            f"reachable through any projection")

    if conflicts is not None:
        for pa, vals, a in candidate_arrays():
            for e in range(space.executable_size):
                held = int(assignment[e])
                base = e * a
                for k in range(a):
                    candidate = int(pa[e] if vals is None else pa[vals[base + k]])
                    if (candidate >= 0 and candidate != held
                            and colors[candidate] == colors[held]):
                        _add(conflicts, held, candidate)
    return assignment
