"""Run-time inspection: build a legal sparse-tiling schedule for a loop chain.

The seed loop's iteration space is chunked into tiles; every later loop is
scheduled onto those tiles by projecting which tile last touched each element
and taking per-element color maxima.  Coloring conflicts discovered along the
way trigger fake adjacency connections and a recoloring round.  The rounds
pass plain per-element tile arrays; after the last round each array is cut
once into a CSR over the tiles in execution order, from which the schedule
compiles its color-batched execution plan.

Projection, tiling and first-fit coloring run as compiled C, element by
element (``inspector.c``, compiled once per compiler through
``looptile.codegen``), so inspection needs a C compiler: without one it
raises ``CompileError``.
"""

from __future__ import annotations

import ctypes
import enum
import math
import time
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from types import MappingProxyType

import numpy as np

from . import codegen
from .chain import (InverseMap, IterationSpace, Loop, LoopChain, MeshMap,
                    Region, invert_map)
from .errors import ColoringLimitError, InspectionError, StaleScheduleError
from .mesh import sorted_distinct

NO_TILE = -1


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


@dataclass(frozen=True, eq=False)
class Tile:
    """A read-only view of one tile of a schedule: id, region and color.

    The tile runs at execution position ``position`` of the schedule's
    ``tilings``; ``iteration_lists`` (by loop) and ``local_maps`` (by (loop,
    map name), flat) are read-only views into them.
    """

    id: int
    region: Region
    color: int
    tilings: tuple["LoopTiling", ...] = field(repr=False)
    position: int

    @property
    def iteration_lists(self) -> Mapping[int, np.ndarray]:
        p = self.position
        return MappingProxyType({j: t.elements[t.bounds[p]:t.bounds[p + 1]]
                                 for j, t in enumerate(self.tilings)})

    @property
    def local_maps(self) -> Mapping[tuple[int, str], np.ndarray]:
        p = self.position
        return MappingProxyType({
            (j, name): rows[t.bounds[p]:t.bounds[p + 1]].reshape(-1)
            for j, t in enumerate(self.tilings) for name, rows in t.rows.items()})


@dataclass(frozen=True, eq=False)
class LoopTiling:
    """One loop's tiling as a CSR over the tiles in execution order.

    The tile at execution position p holds ``elements[bounds[p]:bounds[p + 1]]``
    in ascending order, and ``rows[name][bounds[p]:bounds[p + 1]]`` holds map
    ``name``'s rows of those elements, one row of arity targets per element.
    The arrays are made read-only.
    """

    elements: np.ndarray
    bounds: np.ndarray
    rows: dict[str, np.ndarray]

    def __post_init__(self):
        for a in (self.elements, self.bounds, *self.rows.values()):
            a.flags.writeable = False

    @cached_property
    def index_ranges(self) -> dict[str | None, tuple[int, int] | None]:
        """(min, max) of the elements (key None) and of each map's rows;
        None for an empty array."""
        arrays = {None: self.elements, **self.rows}
        return {key: (int(a.min()), int(a.max())) if a.size else None
                for key, a in arrays.items()}


@dataclass
class InspectionStats:
    """Wall seconds per inspection phase; ``seed_s`` chunks the seed space.

    ``local_maps_s`` also covers compiling the schedule's execution plan.
    """

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
    """Inspector output: tile regions and colors, loop tilings and the plan.

    Tile t has region ``regions[t]`` (a ``Region`` value) and color
    ``colors[t]``; ``tiles`` holds a read-only ``Tile`` view of each, in id
    order, built on first use.  Tiles run in execution order: ascending
    color, ties in id order.  Core colors lie below boundary colors and the
    non-exec tile comes last, so the tiles of one (region, color) hold one
    run of every loop's tiling.
    Construction compiles ``plan``: per executable region, one step
    ``(j, lo, hi)`` per non-empty (color, loop j), color by color and loop by
    loop within a color; the step's iterations are ``tilings[j].elements[lo:hi]``.
    Same-colored tiles are independent, so one kernel call may run all of a
    color's iterations of a loop.  A local map whose length does not match
    its list raises ``StaleScheduleError`` here, before anything runs.  The
    region and color arrays are made read-only.
    """

    mode: ExecMode
    fingerprint: str
    regions: np.ndarray
    colors: np.ndarray
    tilings: tuple[LoopTiling, ...]
    recolor_rounds: int
    stats: InspectionStats = field(compare=False, repr=False,
                                   default_factory=InspectionStats)
    execution_order: np.ndarray = field(init=False, repr=False)
    tiles_per_color: dict[int, int] = field(init=False, repr=False)
    plan: dict[Region, list[tuple[int, int, int]]] = field(init=False, repr=False)

    def __post_init__(self):
        n = len(self.colors)
        if len(self.regions) != n:
            raise InspectionError(f"{len(self.regions)} tile regions for {n} colors")
        for j, tiling in enumerate(self.tilings):
            if (len(tiling.bounds) != n + 1 or tiling.bounds[0] != 0
                    or tiling.bounds[-1] != len(tiling.elements)
                    or np.any(tiling.bounds[1:] < tiling.bounds[:-1])):
                raise StaleScheduleError(
                    f"loop {j}: tiling bounds do not cut {len(tiling.elements)} "
                    f"elements into {n} tiles")
            for name, rows in tiling.rows.items():
                if len(rows) != len(tiling.elements):
                    raise StaleScheduleError(
                        f"loop {j}: local map {name!r} has {len(rows)} rows, "
                        f"its list needs {len(tiling.elements)}")
        self.regions.flags.writeable = False
        self.colors.flags.writeable = False

        order = execution_order(self.colors)
        ordered = self.colors[order]
        rank = self.regions[order]  # Region values: core 0, boundary 1, non-exec 2
        # runs of one color along the execution order; each lies in one region
        first = np.ones(n, dtype=bool)
        first[1:] = ordered[1:] != ordered[:-1]
        if np.any(rank[1:] < rank[:-1]) or np.any((rank[1:] != rank[:-1]) & ~first[1:]):
            raise InspectionError("tile colors do not separate the regions")
        starts = np.flatnonzero(first)
        n_core, n_exec = np.searchsorted(rank[starts], [1, 2]).tolist()
        edges = np.append(starts, n)[:n_exec + 1]

        # per executable color g and loop j, the run [lo, hi) of j's tiling;
        # nonzero walks (g, j) row-major, so steps go color by color
        cuts = np.array([tiling.bounds[edges] for tiling in self.tilings]
                        ).reshape(-1, n_exec + 1)
        lo, hi = cuts[:, :-1].T, cuts[:, 1:].T
        g, j = np.nonzero(lo < hi)
        steps = list(zip(j.tolist(), lo[g, j].tolist(), hi[g, j].tolist()))
        split = int(np.searchsorted(g, n_core))
        plan = {Region.CORE: steps[:split], Region.BOUNDARY: steps[split:]}
        tiles_per_color = dict(zip(ordered[starts[:n_exec]].tolist(),
                                   np.diff(edges).tolist()))
        object.__setattr__(self, "execution_order", order)
        object.__setattr__(self, "tiles_per_color", tiles_per_color)
        object.__setattr__(self, "plan", plan)

    @cached_property
    def tiles(self) -> tuple[Tile, ...]:
        position = np.empty_like(self.execution_order)
        position[self.execution_order] = np.arange(len(position))
        return tuple(Tile(t, Region(r), c, self.tilings, p) for t, (r, c, p) in
                     enumerate(zip(self.regions.tolist(), self.colors.tolist(),
                                   position.tolist())))

    @property
    def n_loops(self) -> int:
        return len(self.tilings)

    @property
    def color_order(self) -> list[int]:
        return sorted_distinct(self.colors).tolist()

    @property
    def nonexec_tile(self) -> Tile:
        return self.tiles[-1]

    def executable_tiles(self) -> list[Tile]:
        return [t for t in self.tiles if t.region is not Region.NONEXEC]

    def tile_of(self, loop_index: int, n_elements: int) -> np.ndarray:
        """Invert one loop's tiling back into a per-element tile array."""
        tiling = self.tilings[loop_index]
        out = np.full(n_elements, NO_TILE, dtype=np.int64)
        out[tiling.elements] = np.repeat(self.execution_order, np.diff(tiling.bounds))
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


# -- the compiled passes -------------------------------------------------------
# Projection, tiling and coloring run as C (inspector.c beside this module),
# compiled once per compiler through codegen's cache and loaded on first use.
# The C indexes without bounds checks, so every array reaches it checked.

_P, _L = ctypes.c_void_p, ctypes.c_int64
_C_SIGNATURES = {  # name: (argument types, result type)
    "looptile_direct_conflicts": ((_P, _P, _L, _P, _L, _P), _L),
    "looptile_project": ((_P, _P, _P, _P, _L, _P, _L, _P, _P), _L),
    "looptile_tile": ((_L, _L, _L, _P, _P, _P, _P, _L, _P, _P), _L),
    "looptile_color": ((_P, _L, _P, _L, _P), ctypes.c_int),
}
_LIB: ctypes.CDLL | None = None


def _lib() -> ctypes.CDLL:
    """The compiled passes; a missing compiler raises ``CompileError``."""
    global _LIB
    if _LIB is None:
        lib = codegen.load((Path(__file__).parent / "inspector.c").read_text())
        for name, (argtypes, restype) in _C_SIGNATURES.items():
            fn = getattr(lib, name)
            fn.argtypes, fn.restype = argtypes, restype
        _LIB = lib
    return _LIB


def _check_array(a: np.ndarray, what: str, length: int | None = None) -> None:
    """Raise ``InspectionError`` unless ``a`` is a 1-D C-contiguous int64
    array, of ``length`` entries unless that is None."""
    if (not isinstance(a, np.ndarray) or a.dtype != np.int64 or a.ndim != 1
            or not a.flags.c_contiguous):
        raise InspectionError(f"{what} is not a contiguous 1-D int64 array")
    if length is not None and len(a) != length:
        raise InspectionError(f"{what} has {len(a)} entries, not {length}")


def _check_tiles(a: np.ndarray, what: str, length: int, n_tiles: int) -> None:
    """``_check_array``, and every entry a tile id in [NO_TILE, n_tiles)."""
    _check_array(a, what, length)
    if length and (a.min() < NO_TILE or a.max() >= n_tiles):
        raise InspectionError(f"{what} holds a tile id outside [-1, {n_tiles})")


# -- inspection steps ---------------------------------------------------------
# A tiling array holds a tile id per element of a loop's space; ``phi`` maps a
# space name to the max-color tile that last touched each element (NO_TILE if
# none).  A pair of tiles low < high is the int64 key low * n_tiles + high;
# conflicts are collected as a list of key arrays.


def partition_seed(space: IterationSpace, ts: int) -> tuple[np.ndarray, np.ndarray]:
    """Chunk the seed space into tiles of ts contiguous iterations per region.

    Core chunks come first, then boundary chunks, then the single non-exec
    tile covering the non-exec region (created even when that region is empty).
    Returns the seed loop's tiling array and each tile's ``Region`` value.
    """
    if ts < 1:
        raise ValueError(f"tile size must be >= 1, got {ts}")
    m = math.ceil(space.core_size / ts)
    k = math.ceil(space.boundary_size / ts)
    regions = np.repeat(np.array(list(Region), dtype=np.int64), [m, k, 1])

    seed = np.empty(space.total, dtype=np.int64)
    seed[:space.core_size] = np.arange(space.core_size) // ts
    seed[space.core_size:space.executable_size] = m + np.arange(space.boundary_size) // ts
    seed[space.executable_size:] = m + k
    return seed, regions


def seed_adjacency(seed: np.ndarray, n_tiles: int,
                   seed_map: MeshMap | None) -> np.ndarray:
    """Sorted keys of the tile pairs whose seed iterations share a target element."""
    if seed_map is None:
        return np.empty(0, dtype=np.int64)
    owner = np.repeat(seed, seed_map.arity)
    # distinct (target, tile) touches, sorted by target then tile
    touches = sorted_distinct(seed_map.values.reshape(-1) * n_tiles + owner)
    target, tile = touches // n_tiles, touches % n_tiles
    pairs = [np.empty(0, dtype=np.int64)]
    step = 1
    while step < len(touches):
        same = target[step:] == target[:-step]
        if not same.any():
            break
        pairs.append(tile[:-step][same] * n_tiles + tile[step:][same])
        step += 1
    return sorted_distinct(np.concatenate(pairs))


def color_tiles(regions: np.ndarray, pairs: np.ndarray, mode: ExecMode) -> np.ndarray:
    """Execution-priority colors, one per tile.

    Shared mode reuses colors across tiles of no pair in ``pairs`` (the seed
    adjacency plus fake connections): first-fit in id order over each
    region's tiles; sequential and distributed modes give tile i color i.
    Boundary colors always exceed core colors and the non-exec tile gets the
    highest color.
    """
    n = len(regions)
    if mode is not ExecMode.SHARED:
        return np.arange(n, dtype=np.int64)
    _check_array(regions, "tile regions")
    _check_array(pairs, "tile pairs")
    if len(pairs) and (pairs.min() < 0 or pairs.max() >= n * n):
        raise InspectionError(f"a tile pair key lies outside [0, {n * n})")
    colors = np.empty(n, dtype=np.int64)
    if _lib().looptile_color(regions.ctypes.data, n, pairs.ctypes.data,
                             len(pairs), colors.ctypes.data):
        raise MemoryError("no memory to color the tiles")
    return colors


def project(loop: Loop, sigma: np.ndarray, phi: dict[str, np.ndarray],
            colors: np.ndarray, conflicts: list[np.ndarray] | None,
            inverse_maps: dict[str, InverseMap]) -> None:
    """Fold loop's tiling array into the per-space projections (updates phi).

    Direct descriptors take sigma wholesale; mapped descriptors take, per
    target element, the maximum-color tile among the held one and the
    element's sources in the inverse map: the held tile survives unless some
    source's tile has a strictly higher color, else the first source of the
    highest color wins.  Unless ``conflicts`` is None, per element and color
    the first tile to touch the element (the held tile, then sources in
    inverse-map order) is recorded as conflicting with every later distinct
    tile of that color.
    """
    lib, n_tiles = _lib(), len(colors)
    _check_array(colors, "tile colors")
    _check_tiles(sigma, f"loop {loop.index}'s tiling array", loop.space.total, n_tiles)
    for d in loop.descriptors:
        if d.is_direct:
            old = phi.get(loop.space.name)
            if conflicts is not None and old is not None:
                _check_tiles(old, f"projection of {loop.space.name!r}",
                             loop.space.total, n_tiles)
                keys = np.empty(len(sigma), dtype=np.int64)
                count = lib.looptile_direct_conflicts(
                    old.ctypes.data, sigma.ctypes.data, len(sigma),
                    colors.ctypes.data, n_tiles, keys.ctypes.data)
                if count:
                    conflicts.append(keys[:count])
            phi[loop.space.name] = sigma
            continue
        if d.map.name not in inverse_maps:
            inverse_maps[d.map.name] = invert_map(d.map)
        inv, space = inverse_maps[d.map.name], d.map.target
        if inv.source != space or inv.target != loop.space:
            raise InspectionError(f"the inverse of map {d.map.name!r} does not "
                                  f"run from {space.name!r} to {loop.space.name!r}")
        held = phi.get(space.name)
        if held is None:
            held = np.full(space.total, NO_TILE, dtype=np.int64)
        _check_tiles(held, f"projection of {space.name!r}", space.total, n_tiles)
        new = np.empty(space.total, dtype=np.int64)
        # only sources write keys, at most one each
        keys = None if conflicts is None else np.empty(len(inv.values), dtype=np.int64)
        count = lib.looptile_project(
            inv.offsets.ctypes.data, inv.values.ctypes.data, sigma.ctypes.data,
            held.ctypes.data, space.total, colors.ctypes.data, n_tiles,
            new.ctypes.data, None if keys is None else keys.ctypes.data)
        if count:
            conflicts.append(keys[:count])
        phi[space.name] = new


def tile_loop(loop: Loop, phi: dict[str, np.ndarray], colors: np.ndarray,
              conflicts: list[np.ndarray] | None = None) -> np.ndarray:
    """The loop's tiling array, built from the available projections.

    Every element lands on the maximum-color tile reachable through any of the
    loop's descriptors, in descriptor order and map column order; color ties
    keep the tile already held.  Descriptors over spaces no earlier loop
    touched contribute nothing.

    Unless ``conflicts`` is None, each executed element's final tile is then
    compared against all its candidates: an equal-colored distinct candidate
    means the assigned tile will touch data some same-colored tile already
    touched, which the projections alone cannot see for the last loop in the
    chain.
    """
    space, n_tiles = loop.space, len(colors)
    _check_array(colors, "tile colors")
    # per descriptor with a projection: its address, its map rows' address
    # (0 for a direct access) and its candidates per element
    proj, rows, arity = [], [], []
    for d in loop.descriptors:
        target = space if d.is_direct else d.map.target
        candidate = phi.get(target.name)
        if candidate is None:
            continue
        _check_tiles(candidate, f"projection of {target.name!r}", target.total, n_tiles)
        if not d.is_direct and d.map.source.total != space.total:
            raise InspectionError(f"loop {loop.index}: map {d.map.name!r} does not "
                                  f"run from {space.name!r}")
        proj.append(candidate.ctypes.data)
        rows.append(0 if d.is_direct else d.map.values.ctypes.data)
        arity.append(1 if d.is_direct else d.map.arity)
    if not proj:
        raise InspectionError(
            f"loop {loop.index} over {space.name!r}: no projection covers any "
            f"accessed space")

    n_exec = space.executable_size
    sigma = np.empty(space.total, dtype=np.int64)
    keys = None if conflicts is None else np.empty(n_exec * sum(arity), dtype=np.int64)
    proj = np.array(proj, dtype=np.uintp)
    rows = np.array(rows, dtype=np.uintp)
    arity = np.array(arity, dtype=np.int64)
    count = _lib().looptile_tile(
        space.total, n_exec, len(arity), proj.ctypes.data, rows.ctypes.data,
        arity.ctypes.data, colors.ctypes.data, n_tiles, sigma.ctypes.data,
        None if keys is None else keys.ctypes.data)
    if np.any(sigma[:n_exec] < 0):
        missing = int(np.flatnonzero(sigma[:n_exec] < 0)[0])
        raise InspectionError(
            f"loop {loop.index}: element {missing} of {space.name!r} is not "
            f"reachable through any projection")
    if count:
        conflicts.append(keys[:count])
    return sigma


def execution_order(colors: np.ndarray) -> np.ndarray:
    """Tile ids in execution order: ascending color, ties in id order."""
    return np.argsort(colors, kind="stable")


def assign(sigma: np.ndarray, position: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cut one loop's tiling array into a CSR over the tiles in execution order.

    ``position[t]`` is tile t's execution position.  Returns the loop's
    elements, sorted by their tile's position and then ascending (one stable
    argsort), and the bounds of each position's run.
    """
    key = position[sigma]
    order = np.argsort(key, kind="stable")
    return order, np.searchsorted(key[order], np.arange(len(position) + 1))


def compute_local_maps(elements: list[np.ndarray],
                       chain: LoopChain) -> list[dict[str, np.ndarray]]:
    """Restrict each loop's maps to that loop's elements, in the given order.

    The executor can then index map rows by position in a list instead of
    by global element id.  One gather per (loop, map); each result holds one
    row of arity targets per element.
    """
    return [{m.name: m.values.reshape(-1, m.arity)[lst]
             for m in {d.map.name: d.map for d in loop.descriptors
                       if not d.is_direct}.values()}
            for lst, loop in zip(elements, chain.loops)]


def build_schedule(chain: LoopChain, mode: ExecMode, regions: np.ndarray,
                   colors: np.ndarray, sigmas: list[np.ndarray], recolor_rounds: int,
                   stats: InspectionStats | None = None) -> Schedule:
    """Cut one tiling array per loop into the schedule's CSR and compile it.

    Tile t has region ``regions[t]`` and color ``colors[t]``.  Every element
    of every loop's space must sit on a tile, and no executable element on
    the last, non-exec tile; otherwise ``InspectionError``.  Cutting counts
    toward ``projection_tiling_s``, local maps and the plan toward
    ``local_maps_s``.
    """
    stats = stats if stats is not None else InspectionStats()
    t0 = time.perf_counter()
    n_tiles = len(colors)
    for j, (sigma, loop) in enumerate(zip(sigmas, chain.loops)):
        if len(sigma) and (sigma.min() < 0 or sigma.max() >= n_tiles):
            raise InspectionError(f"loop {j}: an element is on no tile")
        stranded = np.flatnonzero(sigma[:loop.space.executable_size] == n_tiles - 1)
        if len(stranded):
            raise InspectionError(
                f"loop {j}: executable element {int(stranded[0])} of "
                f"{loop.space.name!r} is on the non-exec tile, which never runs")
    order = execution_order(colors)
    position = np.empty_like(order)
    position[order] = np.arange(len(order))
    cut = [assign(sigma, position) for sigma in sigmas]
    stats.projection_tiling_s += time.perf_counter() - t0

    t0 = time.perf_counter()
    rows = compute_local_maps([elements for elements, _ in cut], chain)
    schedule = Schedule(
        mode=mode, fingerprint=chain.fingerprint, regions=regions, colors=colors,
        tilings=tuple(LoopTiling(elements, bounds, r)
                      for (elements, bounds), r in zip(cut, rows)),
        recolor_rounds=recolor_rounds, stats=stats)
    stats.local_maps_s += time.perf_counter() - t0
    return schedule


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
    partition; ``build_schedule`` cuts the last round's arrays into the
    schedule's tilings and compiles its plan.  Pure in (chain, ts, mode): repeated calls
    produce identical schedules.  Raises ColoringLimitError if recoloring
    fails to converge within 10 * (number of tiles) rounds.
    """
    t_start = time.perf_counter()
    stats = InspectionStats()
    loops = chain.loops

    t0 = time.perf_counter()
    seed, regions = partition_seed(loops[0].space, ts)
    stats.seed_s += time.perf_counter() - t0
    n_tiles = len(regions)

    t0 = time.perf_counter()
    pairs = (seed_adjacency(seed, n_tiles, find_seed_map(chain))
             if mode is ExecMode.SHARED else np.empty(0, dtype=np.int64))
    stats.coloring_s += time.perf_counter() - t0

    inverse_maps: dict[str, InverseMap] = {}
    max_rounds = 10 * n_tiles
    tne_id = n_tiles - 1
    rounds = 0

    while True:
        rounds += 1
        if rounds > max_rounds:
            raise ColoringLimitError(
                f"recoloring did not converge after {max_rounds} rounds")
        t0 = time.perf_counter()
        colors = color_tiles(regions, pairs, mode)
        stats.coloring_s += time.perf_counter() - t0

        # only same-colored tiles conflict, so unique colors (always so in
        # sequential and distributed modes) skip the conflict scans
        shared = len(sorted_distinct(colors)) < n_tiles
        conflicts: list[np.ndarray] | None = [] if shared else None
        phi: dict[str, np.ndarray] = {}
        # non-exec iterations never run on this rank, so they carry no
        # dependence: each loop is projected with them on no tile
        sigmas = [np.where(seed == tne_id, NO_TILE, seed)]
        t0 = time.perf_counter()
        for j in range(1, len(loops)):
            project(loops[j - 1], sigmas[-1], phi, colors, conflicts, inverse_maps)
            sigma = tile_loop(loops[j], phi, colors, conflicts)
            sigma[loops[j].space.executable_size:] = NO_TILE
            sigmas.append(sigma)
        stats.projection_tiling_s += time.perf_counter() - t0

        if not conflicts:
            break
        # conflicting pairs join the adjacency as fake connections
        pairs = sorted_distinct(np.concatenate((pairs, *conflicts)))

    for sigma in sigmas:
        sigma[sigma == NO_TILE] = tne_id
    schedule = build_schedule(chain, mode, regions, colors, sigmas, rounds, stats)
    stats.total_s = time.perf_counter() - t_start
    return schedule
