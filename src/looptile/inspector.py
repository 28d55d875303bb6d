"""Run-time inspection: build a legal sparse-tiling schedule for a loop chain.

The seed loop's iteration space is chunked into tiles; every later loop is
scheduled onto those tiles by projecting which tile last touched each element
and taking per-element color maxima.  Coloring conflicts discovered along the
way trigger fake adjacency connections and a recoloring round.  The rounds
pass plain per-element tile arrays; the tiles' iteration lists are filled
once, after the last round.
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .chain import (InverseMap, IterationSpace, Loop, LoopChain, MeshMap,
                    Region, invert_map)
from .errors import ColoringLimitError, InspectionError
from .mesh import sorted_distinct

NO_TILE = -1
_EMPTY = np.empty(0, dtype=np.int64)


class ExecMode(enum.Enum):
    SEQUENTIAL = "sequential"
    SHARED = "shared"
    DISTRIBUTED = "distributed"

    @classmethod
    def parse(cls, token: str) -> "ExecMode":
        for mode in cls:
            if token == mode.value:
                return mode
        raise ValueError(f"unknown execution mode {token!r}")


@dataclass(eq=False)
class Tile:
    """An atomically executed unit: one iteration list per loop, plus a color."""

    id: int
    region: Region
    color: int = -1
    iteration_lists: dict[int, np.ndarray] = field(default_factory=dict)
    local_maps: dict[tuple[int, str], np.ndarray] = field(default_factory=dict)


@dataclass
class InspectionStats:
    """Wall seconds per inspection phase; ``seed_s`` chunks the seed space."""

    seed_s: float = 0.0
    coloring_s: float = 0.0
    projection_tiling_s: float = 0.0
    local_maps_s: float = 0.0
    total_s: float = 0.0

    def dominant_phase(self) -> tuple[str, float]:
        """Name and share of the costliest phase, over the summed phases."""
        phases = {
            "seed": self.seed_s,
            "coloring": self.coloring_s,
            "projection_tiling": self.projection_tiling_s,
            "local_maps": self.local_maps_s,
        }
        span = sum(phases.values()) or 1.0
        name = max(phases, key=phases.get)
        return name, phases[name] / span


@dataclass(frozen=True, eq=False)
class Schedule:
    """Inspector output: populated tiles plus the color execution order."""

    mode: ExecMode
    fingerprint: str
    n_loops: int
    tiles: tuple[Tile, ...]
    recolor_rounds: int
    stats: InspectionStats = field(compare=False, repr=False,
                                   default_factory=InspectionStats)

    @property
    def color_order(self) -> list[int]:
        return sorted({t.color for t in self.tiles})

    @property
    def nonexec_tile(self) -> Tile:
        return self.tiles[-1]

    def executable_tiles(self) -> list[Tile]:
        return [t for t in self.tiles if t.region is not Region.NONEXEC]

    def tile_of(self, loop_index: int, n_elements: int) -> np.ndarray:
        """Invert the iteration lists of one loop back into a per-element array."""
        out = np.full(n_elements, NO_TILE, dtype=np.int64)
        for t in self.tiles:
            lst = t.iteration_lists.get(loop_index)
            if lst is not None:
                out[lst] = t.id
        return out

    def serialize(self) -> bytes:
        lines = [
            "schedule-v1",
            f"mode={self.mode.value}",
            f"fingerprint={self.fingerprint}",
            f"loops={self.n_loops}",
            f"rounds={self.recolor_rounds}",
            f"colors={','.join(map(str, self.color_order))}",
        ]
        for t in self.tiles:
            lines.append(f"tile id={t.id} region={t.region.name.lower()} color={t.color}")
            for j in sorted(t.iteration_lists):
                lines.append(f"  list {j}=" + ",".join(map(str, t.iteration_lists[j].tolist())))
            for (j, name) in sorted(t.local_maps):
                lines.append(f"  lmap {j} {name}=" +
                             ",".join(map(str, t.local_maps[(j, name)].tolist())))
        return ("\n".join(lines) + "\n").encode()


# -- inspection steps ---------------------------------------------------------
# A tiling array holds a tile id per element of a loop's space; ``phi`` maps a
# space name to the max-color tile that last touched each element (NO_TILE if
# none); conflicts are a set of (low, high) tile-id pairs.


def partition_seed(space: IterationSpace, ts: int) -> tuple[np.ndarray, list[Tile]]:
    """Chunk the seed space into tiles of ts contiguous iterations per region.

    Core chunks come first, then boundary chunks, then the single non-exec
    tile covering the non-exec region (created even when that region is empty).
    Returns the seed loop's tiling array and the (still empty) tiles.
    """
    if ts < 1:
        raise ValueError(f"tile size must be >= 1, got {ts}")
    m = math.ceil(space.core_size / ts)
    k = math.ceil(space.boundary_size / ts)
    tiles = [Tile(id=i, region=Region.CORE) for i in range(m)]
    tiles += [Tile(id=m + j, region=Region.BOUNDARY) for j in range(k)]
    tiles.append(Tile(id=m + k, region=Region.NONEXEC))

    seed = np.empty(space.total, dtype=np.int64)
    seed[:space.core_size] = np.arange(space.core_size) // ts
    seed[space.core_size:space.executable_size] = m + np.arange(space.boundary_size) // ts
    seed[space.executable_size:] = m + k
    return seed, tiles


def seed_adjacency(seed: np.ndarray, n_tiles: int,
                   seed_map: MeshMap | None) -> dict[int, set[int]]:
    """Tiles are adjacent iff their seed iterations share a target element."""
    adjacency: dict[int, set[int]] = {t: set() for t in range(n_tiles)}
    if seed_map is None:
        return adjacency
    owner = np.repeat(seed, seed_map.arity)
    # distinct (target, tile) touches, sorted by target then tile
    touches = sorted_distinct(seed_map.values.reshape(-1) * n_tiles + owner)
    target, tile = touches // n_tiles, touches % n_tiles
    first, second = [], []
    step = 1
    while step < len(touches):
        same = target[step:] == target[:-step]
        if not same.any():
            break
        first.append(tile[:-step][same])
        second.append(tile[step:][same])
        step += 1
    if first:
        pairs = sorted_distinct(np.concatenate(first) * n_tiles + np.concatenate(second))
        for a, b in zip((pairs // n_tiles).tolist(), (pairs % n_tiles).tolist()):
            adjacency[a].add(b)
            adjacency[b].add(a)
    return adjacency


def color_tiles(tiles: list[Tile], adjacency: dict[int, set[int]],
                fake_connections: set[tuple[int, int]], mode: ExecMode) -> None:
    """Assign execution-priority colors.

    Shared mode reuses colors across non-adjacent tiles (greedy first-fit over
    the seed adjacency plus fake connections); sequential and distributed
    modes give tile i color i.  Boundary colors always exceed core colors and
    the non-exec tile gets the highest color.
    """
    if mode is not ExecMode.SHARED:
        for t in tiles:
            t.color = t.id
        return
    neighbours = {t.id: set(adjacency.get(t.id, ())) for t in tiles}
    for a, b in fake_connections:
        neighbours[a].add(b)
        neighbours[b].add(a)
    floor = 0
    for region in (Region.CORE, Region.BOUNDARY):
        group = [t for t in tiles if t.region is region]
        assigned: dict[int, int] = {}
        for t in group:
            used = {assigned[n] for n in neighbours[t.id] if n in assigned}
            color = floor
            while color in used:
                color += 1
            assigned[t.id] = color
            t.color = color
        if group:
            floor = max(t.color for t in group) + 1
    tiles[-1].color = floor  # non-exec tile above everything


def _add_conflicts(conflicts: set[tuple[int, int]], a: np.ndarray,
                   b: np.ndarray) -> None:
    """Record every pair (a[i], b[i]); a tile never conflicts with itself."""
    distinct = a != b
    a, b = a[distinct], b[distinct]
    conflicts.update(zip(np.minimum(a, b).tolist(), np.maximum(a, b).tolist()))


def _project_mapped(inv: InverseMap, sigma: np.ndarray, held: np.ndarray,
                    colors: np.ndarray, conflicts: set | None) -> np.ndarray:
    """New projection of a mapped access's target space; see ``project``.

    Each target element's segment of the CSR inverse lists its sources in
    ascending order.  The held tile survives unless some source's tile has a
    strictly higher color; otherwise the first source with the segment's
    maximum color wins.
    """
    n, size = len(held), len(inv.values)
    touch = sigma[inv.values]
    new = np.full(n, NO_TILE, dtype=np.int64)
    best_color = np.full(n, -1, dtype=np.int64)
    filled = np.flatnonzero(np.diff(inv.offsets))
    if len(filled):
        # one segment maximum over keys ordered by color, then by earliest
        # position: key = color * size + (size - 1 - position)
        key = colors[touch] * size
        key += np.arange(size - 1, -1, -1)
        best = np.maximum.reduceat(key, inv.offsets[filled])
        best_color[filled] = best // size
        new[filled] = touch[size - 1 - best % size]
    keep = (held >= 0) & (colors[held] >= best_color)
    new[keep] = held[keep]

    if conflicts is not None:
        # Per (element, color), the first tile seen (held tile, then sources
        # in segment order) meets every later distinct tile of that color.
        has = np.flatnonzero(held >= 0)
        element = np.repeat(np.arange(n, dtype=np.int64), np.diff(inv.offsets))
        entry_element = np.concatenate((has, element))
        entry_tile = np.concatenate((held[has], touch))
        low, high = int(colors.min()), int(colors.max())
        key = entry_element * (high - low + 1) + (colors[entry_tile] - low)
        order = np.argsort(key, kind="stable")
        key, entry_tile = key[order], entry_tile[order]
        starts = np.flatnonzero(np.diff(key, prepend=-1))  # keys are >= 0
        first = np.repeat(entry_tile[starts], np.diff(np.append(starts, len(key))))
        _add_conflicts(conflicts, first, entry_tile)
    return new


def project(loop: Loop, sigma: np.ndarray, phi: dict[str, np.ndarray],
            colors: np.ndarray, conflicts: set[tuple[int, int]] | None,
            inverse_maps: dict[str, InverseMap]) -> None:
    """Fold loop's tiling array into the per-space projections (updates phi).

    Direct descriptors take sigma wholesale; mapped descriptors take, per
    target element, the maximum-color tile among the held one and the
    element's sources in the inverse map.  Unless ``conflicts`` is None,
    per element and color the first tile to touch the element (the held
    tile, then sources in inverse-map order) is recorded as conflicting with
    every later distinct tile of that color.
    """
    for d in loop.descriptors:
        if d.is_direct:
            old = phi.get(loop.space.name)
            if conflicts is not None and old is not None:
                clash = (old >= 0) & (sigma >= 0) & (colors[old] == colors[sigma])
                _add_conflicts(conflicts, old[clash], sigma[clash])
            phi[loop.space.name] = sigma
        else:
            if d.map.name not in inverse_maps:
                inverse_maps[d.map.name] = invert_map(d.map)
            space = d.map.target
            held = phi.get(space.name)
            if held is None:
                held = np.full(space.total, NO_TILE, dtype=np.int64)
            phi[space.name] = _project_mapped(inverse_maps[d.map.name], sigma,
                                              held, colors, conflicts)


def _candidate_columns(loop: Loop, phi: dict[str, np.ndarray], n: int):
    """Candidate tiles of the loop's first n elements, one array per
    (descriptor, map column), in descriptor order."""
    for d in loop.descriptors:
        if d.is_direct:
            proj = phi.get(loop.space.name)
            if proj is not None:
                yield proj[:n]
        else:
            proj = phi.get(d.map.target.name)
            if proj is not None:
                rows = d.map.values.reshape(-1, d.map.arity)[:n]
                for k in range(d.map.arity):
                    yield proj[rows[:, k]]


def tile_loop(loop: Loop, phi: dict[str, np.ndarray], colors: np.ndarray,
              conflicts: set[tuple[int, int]] | None = None) -> np.ndarray:
    """The loop's tiling array, built from the available projections.

    Every element lands on the maximum-color tile reachable through any of the
    loop's descriptors; color ties keep the tile already held.  Descriptors
    over spaces no earlier loop touched contribute nothing.

    Unless ``conflicts`` is None, a second sweep compares each executed
    element's final tile against all its candidates: an equal-colored
    distinct candidate means the assigned tile will touch data some
    same-colored tile already touched, which the projections alone cannot see
    for the last loop in the chain.
    """
    space = loop.space
    sigma = np.full(space.total, NO_TILE, dtype=np.int64)
    held_color = np.full(space.total, -1, dtype=np.int64)

    applied = False
    for candidate in _candidate_columns(loop, phi, space.total):
        applied = True
        color = np.where(candidate >= 0, colors[candidate], -1)
        better = color > held_color
        sigma[better] = candidate[better]
        held_color[better] = color[better]

    if not applied:
        raise InspectionError(
            f"loop {loop.index} over {space.name!r}: no projection covers any "
            f"accessed space")
    if np.any(sigma[:space.executable_size] < 0):
        missing = int(np.flatnonzero(sigma[:space.executable_size] < 0)[0])
        raise InspectionError(
            f"loop {loop.index}: element {missing} of {space.name!r} is not "
            f"reachable through any projection")

    if conflicts is not None:
        held = sigma[:space.executable_size]
        held_color = held_color[:space.executable_size]
        for candidate in _candidate_columns(loop, phi, space.executable_size):
            clash = (candidate >= 0) & (colors[candidate] == held_color)
            _add_conflicts(conflicts, held[clash], candidate[clash])
    return sigma


def assign(sigma: np.ndarray, loop_index: int, tiles: list[Tile]) -> None:
    """Fill every tile's iteration list of one loop, ascending per tile.

    The lists are consecutive slices of one stable argsort of ``sigma``.
    """
    order = np.argsort(sigma, kind="stable")
    bounds = np.searchsorted(sigma[order], np.arange(len(tiles) + 1))
    for t in tiles:
        t.iteration_lists[loop_index] = order[bounds[t.id]:bounds[t.id + 1]]


def compute_local_maps(tiles: list[Tile], chain: LoopChain) -> None:
    """Restrict each map to every tile's iteration list, in list order.

    The executor can then index map rows by position-in-tile instead of
    global element id.  Gathers run once per (loop, map) over all tiles'
    concatenated lists; each tile keeps its slice of the gathered rows.
    """
    for t in tiles:
        t.local_maps.clear()
    for j, loop in enumerate(chain.loops):
        lists = [t.iteration_lists.get(j, _EMPTY) for t in tiles]
        elements = np.concatenate(lists)
        bounds = np.cumsum([0] + [len(lst) for lst in lists])
        for m in {d.map.name: d.map for d in loop.descriptors
                  if not d.is_direct}.values():
            flat = m.values.reshape(-1, m.arity)[elements].ravel()
            ends = bounds * m.arity
            for t, start, stop in zip(tiles, ends[:-1], ends[1:]):
                t.local_maps[(j, m.name)] = flat[start:stop]


def find_seed_map(chain: LoopChain) -> MeshMap | None:
    """The map used for tile adjacency: the seed loop's own, else any map off the seed space."""
    seed_space = chain.loops[0].space
    for d in chain.loops[0].descriptors:
        if not d.is_direct and d.map.source is seed_space:
            return d.map
    for m in chain.maps:
        if m.source is seed_space:
            return m
    return None


def inspect_chain(chain: LoopChain, ts: int, mode: ExecMode) -> Schedule:
    """Run the full inspection and return a conflict-free schedule.

    Each recoloring round grows one tiling array per loop from the seed
    partition; the tiles' iteration lists and local maps are filled once,
    from the last round's arrays.  Pure in (chain, ts, mode): repeated calls
    produce identical schedules.  Raises ColoringLimitError if recoloring
    fails to converge within 10 * (number of tiles) rounds.
    """
    t_start = time.perf_counter()
    stats = InspectionStats()
    loops = chain.loops

    t0 = time.perf_counter()
    seed, tiles = partition_seed(loops[0].space, ts)
    stats.seed_s += time.perf_counter() - t0

    t0 = time.perf_counter()
    adjacency = (seed_adjacency(seed, len(tiles), find_seed_map(chain))
                 if mode is ExecMode.SHARED else {})
    stats.coloring_s += time.perf_counter() - t0

    inverse_maps: dict[str, InverseMap] = {}
    fake_connections: set[tuple[int, int]] = set()
    max_rounds = 10 * len(tiles)
    tne_id = tiles[-1].id
    rounds = 0

    while True:
        rounds += 1
        if rounds > max_rounds:
            raise ColoringLimitError(
                f"recoloring did not converge after {max_rounds} rounds")
        t0 = time.perf_counter()
        color_tiles(tiles, adjacency, fake_connections, mode)
        colors = np.array([t.color for t in tiles], dtype=np.int64)
        stats.coloring_s += time.perf_counter() - t0

        # only same-colored tiles conflict, so unique colors (always so in
        # sequential and distributed modes) skip the conflict scans
        shared = len(sorted_distinct(colors)) < len(colors)
        conflicts: set[tuple[int, int]] | None = set() if shared else None
        phi: dict[str, np.ndarray] = {}
        sigmas = [seed]
        t0 = time.perf_counter()
        for j in range(1, len(loops)):
            project(loops[j - 1], sigmas[-1], phi, colors, conflicts, inverse_maps)
            sigma = tile_loop(loops[j], phi, colors, conflicts)
            # the non-exec region is never computed by this rank
            sigma[loops[j].space.executable_size:] = tne_id
            sigmas.append(sigma)
        stats.projection_tiling_s += time.perf_counter() - t0

        if not conflicts:
            break
        fake_connections |= conflicts

    t0 = time.perf_counter()
    for j, sigma in enumerate(sigmas):
        assign(sigma, j, tiles)
    stats.projection_tiling_s += time.perf_counter() - t0

    t0 = time.perf_counter()
    compute_local_maps(tiles, chain)
    stats.local_maps_s += time.perf_counter() - t0
    stats.total_s = time.perf_counter() - t_start

    return Schedule(mode=mode, fingerprint=chain.fingerprint, n_loops=len(loops),
                    tiles=tuple(tiles), recolor_rounds=rounds, stats=stats)
