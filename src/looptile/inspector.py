"""Run-time inspection: build a legal sparse-tiling schedule for a loop chain.

The seed loop's iteration space is chunked into tiles; every later loop is
scheduled onto those tiles by projecting which tile last touched each element
and taking per-element color maxima.  Coloring conflicts discovered along the
way trigger fake adjacency connections and a recoloring round.  A projection
through a map finds the tiles of one color that touch one element; a tiling
finds each executable element's candidates of its tile's color.  A direct
access needs neither, and in shared mode the last loop's mapped writes get a
projection of their own.  The rounds pass plain per-element tile arrays;
after the last round each array is cut once into a CSR over the tiles in
execution order, whose color runs the executor walks.

Projection, tiling and first-fit coloring run as compiled C, element by
element (``inspector.c``, compiled once per compiler through
``looptile.codegen``), so inspection needs a C compiler: without one it
raises ``CompileError``.  A round's dataflow is fixed by the chain, so each
inspection prepares its passes once (``Passes``): it allocates every tiling
array and projection buffer, checks the arrays from outside, and binds every
C call's arguments.  A round then colors the tiles, runs the bound calls
(``project`` and ``tile_loop``, one per pass) and range-checks the arrays
they wrote; only the colors change between rounds.
"""

from __future__ import annotations

import ctypes
import enum
import math
import time
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path
from types import MappingProxyType

import numpy as np

from . import codegen
from .chain import (InverseMap, IterationSpace, Loop, LoopChain, MeshMap,
                    Region, invert_map)
from .errors import (ColoringLimitError, DepthExceededError, InspectionError,
                     StaleScheduleError)
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
    The arrays are made read-only C-contiguous int64, copied only if needed;
    C reads them at ``addresses`` (key None: the elements) and ``bounds_address``.
    """

    elements: np.ndarray
    bounds: np.ndarray
    rows: dict[str, np.ndarray]
    addresses: dict[str | None, int] = field(init=False, repr=False)
    bounds_address: int = field(init=False, repr=False)

    def __post_init__(self):
        def index(a):
            a = np.ascontiguousarray(a, dtype=np.int64)
            a.setflags(write=False)
            return a

        object.__setattr__(self, "elements", index(self.elements))
        object.__setattr__(self, "bounds", index(self.bounds))
        object.__setattr__(self, "rows", {name: index(r) for name, r in self.rows.items()})
        object.__setattr__(self, "addresses", {key: a.ctypes.data for key, a in
                                               [(None, self.elements), *self.rows.items()]})
        object.__setattr__(self, "bounds_address", self.bounds.ctypes.data)

    def __reduce__(self):  # a copy records its own addresses
        return LoopTiling, (self.elements, self.bounds, self.rows)

    @cached_property
    def index_ranges(self) -> dict[str | None, tuple[int, int] | None]:
        """(min, max) of the elements (key None) and of each map's rows;
        None for an empty array."""
        arrays = {None: self.elements, **self.rows}
        return {key: (int(a.min()), int(a.max())) if a.size else None
                for key, a in arrays.items()}


@dataclass
class InspectionStats:
    """Wall seconds per inspection phase; ``seed_s`` chunks the seed space
    and ``local_maps_s`` also covers building the ``Schedule``."""

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
    """Inspector output: tile regions and colors, loop tilings and color runs.

    Tile t has region ``regions[t]`` (a ``Region`` value) and color
    ``colors[t]``; ``tiles`` holds a read-only ``Tile`` view of each, in id
    order, built on first use.  Tiles run in execution order: ascending
    color, ties in id order.  Core colors lie below boundary colors and the
    non-exec tile comes last, so the tiles of one (region, color) hold one
    run of every loop's tiling.
    ``runs[region]`` (read-only int64, at ``run_addresses[region]``), per
    executable region, holds the execution position where each color run
    starts, then where the last one ends: loop j runs
    ``tilings[j].elements[b[e[r]]:b[e[r + 1]]]`` in run r,
    with ``b = tilings[j].bounds`` and ``e = runs[region]``.  Same-colored
    tiles are independent, so one kernel call may run all of a color's
    iterations of a loop.  A local map whose length does not match its list
    raises ``StaleScheduleError`` here, before anything runs.  The region
    and color arrays are made read-only.
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
    runs: Mapping[Region, np.ndarray] = field(init=False, repr=False)
    run_addresses: dict[Region, int] = field(init=False, repr=False)

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
        edges = np.append(starts, n)[:n_exec + 1].astype(np.int64)
        edges.flags.writeable = False
        runs = {Region.CORE: edges[:n_core + 1], Region.BOUNDARY: edges[n_core:]}
        tiles_per_color = dict(zip(ordered[starts[:n_exec]].tolist(),
                                   np.diff(edges).tolist()))
        object.__setattr__(self, "execution_order", order)
        object.__setattr__(self, "tiles_per_color", tiles_per_color)
        object.__setattr__(self, "runs", MappingProxyType(runs))
        object.__setattr__(self, "run_addresses", {r: e.ctypes.data for r, e in runs.items()})

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
# compiled once per compiler through codegen's cache and loaded on first use;
# so do chain.invert_map, mesh's edge graph and Cuthill-McKee walk and
# partition's passes.  The C indexes without bounds checks, so every array
# reaches it checked.

_P, _L = ctypes.c_void_p, ctypes.c_int64
_C_SIGNATURES = {  # name: (argument types, result type)
    "looptile_project": ((_P, _P, _P, _P, _L, _P, _L, _P, _P), _L),
    "looptile_tile": ((_L, _L, _L, _P, _P, _P, _P, _L, _P, _P, _P), _L),
    "looptile_color": ((_P, _L, _P, _L, _P), ctypes.c_int),
    "looptile_invert": ((_L, _L, _P, _L, _P, _P), None),
    "looptile_adjacency": ((_L, _P, _L, _P, _P), _L),
    "looptile_cuthill_mckee": ((_L, _P, _P, _P), _L),
    "looptile_partition_mesh": ((_L, _L, _L, _P, _P, _L) + (_P,) * 9, _L),
    "looptile_partition_grow": ((_L, _L, _L) + (_P,) * 6 + (_L,) * 5 + (_P,) * 3,
                                None),
    "looptile_partition_write": ((_L, _L) + (_P,) * 5 + (_L,) * 3 + (_P,) * 6,
                                 None),
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


def _check_tiles(a: np.ndarray, what: str, n_tiles: int,
                 length: int | None = None) -> None:
    """``_check_array``, and every entry a tile id in [NO_TILE, n_tiles)."""
    _check_array(a, what, length)
    if len(a) and (a.min() < NO_TILE or a.max() >= n_tiles):
        raise InspectionError(f"{what} holds a tile id outside [-1, {n_tiles})")


# -- inspection steps ---------------------------------------------------------
# A tiling array holds a tile id per element of a loop's space; ``phi`` maps a
# space name to the max-color tile that last touched each element (NO_TILE if
# none).  A pair of tiles low < high is the int64 key low * n_tiles + high;
# a round's conflicts are collected in one ``ConflictKeys`` buffer.


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


# -- passes bound once --------------------------------------------------------
# A round's dataflow is fixed by the chain: which array each projection and
# tiling reads and writes.  ``Passes`` binds every C call to its arrays once;
# ``project`` and ``tile_loop`` then run one bound pass, so a round is C calls
# on the same buffers with only the colors changed.


@dataclass(frozen=True, eq=False)
class Pass:
    """One loop's projection or tiling, bound to the arrays it reads and writes.

    ``calls`` are its C calls in order, each (function, every argument but the
    trailing keys pointer); ``output`` is a tiling's tiling array (None for a
    projection) and ``max_keys`` bounds the conflict keys one run writes.
    ``arrays`` keeps alive every array an argument points into.
    """

    loop: Loop
    calls: tuple[tuple[Callable[..., int], tuple], ...]
    output: np.ndarray | None
    max_keys: int
    arrays: tuple[np.ndarray, ...] = field(repr=False)


class ConflictKeys:
    """The tile-pair keys one run of passes writes, into one buffer sized once.

    A run appends after the ``count`` keys already written; ``written`` is
    them all.  Reset ``count`` to 0 to reuse the buffer.
    """

    def __init__(self, capacity: int):
        self.buffer = np.empty(capacity, dtype=np.int64)
        self.address = self.buffer.ctypes.data
        self.count = 0

    def written(self) -> np.ndarray:
        return self.buffer[:self.count]


class Passes:
    """The projection and tiling passes of one inspection, bound once.

    ``colors`` is the tile colors every pass reads: copy a round's colors
    into it before running the passes.  ``phi`` maps a space name to the
    array holding its projection after the passes bound so far: a checked
    copy of a caller's array, a tiling's output (after a direct access) or
    the space's projection buffer, which the C rewrites in place on every
    run.  Arrays from outside are checked and copied as they come in;
    arrays the passes write are checked by ``check`` after a run.  Run the passes in
    the order they were bound, each once per run, so every buffer holds, when
    a pass reads it, what it held when the pass was bound.
    """

    def __init__(self, colors: np.ndarray,
                 phi: Mapping[str, np.ndarray] | None = None):
        _check_array(colors, "tile colors")
        if not len(colors):
            raise InspectionError("no tiles to project or tile onto")
        self.colors = colors.copy()
        self.n_tiles = len(colors)
        self.phi: dict[str, np.ndarray] = {}
        for name, a in (phi or {}).items():
            _check_tiles(a, f"projection of {name!r}", self.n_tiles)
            self.phi[name] = a.copy()
        self._inverse_maps: dict[str, InverseMap] = {}
        self.max_keys = 0  # over every pass bound
        self._lib = _lib()
        self._tilings: list[Pass] = []
        self._buffers: dict[str, np.ndarray] = {}  # projection buffers by space

    def projection(self, loop: Loop, sigma: np.ndarray) -> Pass:
        """Bind the fold of loop's tiling array ``sigma`` into ``phi``.

        Direct descriptors come first and take sigma wholesale, with no C
        call: the loop's tiling met the held projection they replace.  Mapped
        descriptors follow, so a map into the loop's own space projects over
        sigma; per target element each takes the maximum-color tile among the
        held one and the element's sources in the inverse map: the held tile
        survives unless some source's tile has a strictly higher color, else
        the first source of the highest color wins.  With conflicts, per
        element and color the first tile to touch the element (the held tile,
        then sources in inverse-map order) meets every later distinct tile of
        that color.
        """
        space, lib, n = loop.space, self._lib, self.n_tiles
        what = f"loop {loop.index}'s tiling array"
        if any(sigma is t.output for t in self._tilings):
            _check_array(sigma, what, space.total)
        else:
            _check_tiles(sigma, what, n, space.total)
            sigma = sigma.copy()
        calls, arrays, max_keys = [], [sigma, self.colors], 0
        if any(d.is_direct for d in loop.descriptors):
            self.phi[space.name] = sigma
        for d in loop.descriptors:
            if d.is_direct:
                continue
            target = d.map.target
            held = self.phi.get(target.name)
            if held is not None:
                _check_array(held, f"projection of {target.name!r}", target.total)
            if d.map.name not in self._inverse_maps:
                self._inverse_maps[d.map.name] = invert_map(d.map)
            inv = self._inverse_maps[d.map.name]
            if inv.source != target or inv.target != space:
                raise InspectionError(f"the inverse of map {d.map.name!r} does not "
                                      f"run from {target.name!r} to {space.name!r}")
            new = self._buffers.get(target.name)
            if new is None:
                new = self._buffers[target.name] = np.empty(target.total, dtype=np.int64)
            calls.append((lib.looptile_project,
                          (inv.offsets.ctypes.data, inv.values.ctypes.data,
                           sigma.ctypes.data, None if held is None else held.ctypes.data,
                           target.total, self.colors.ctypes.data, n,
                           new.ctypes.data)))
            arrays += [inv.offsets, inv.values, new] + ([] if held is None else [held])
            # only sources write keys, at most one each
            max_keys += len(inv.values)
            self.phi[target.name] = new
        self.max_keys += max_keys
        return Pass(loop, tuple(calls), None, max_keys, tuple(arrays))

    def tiling(self, loop: Loop) -> Pass:
        """Bind loop's tiling from the projections in ``phi``.

        Every element lands on the maximum-color tile reachable through any
        of the loop's descriptors, in descriptor order and map column order;
        color ties keep the tile already held.  Descriptors over spaces no
        earlier pass projected contribute nothing.

        With conflicts, each executable element's tile is then compared
        against all its candidates, a direct one included: an equal-colored
        distinct candidate touched data the element's tile will touch.  Two
        of the loop's tiles that meet only at a target of its mapped writes
        are the next projection's to find (see ``inspect_chain``).
        """
        space = loop.space
        # per descriptor with a projection: its address, its map rows' address
        # (0 for a direct access) and its candidates per element
        proj, rows, arity, arrays = [], [], [], [self.colors]
        for d in loop.descriptors:
            target = space if d.is_direct else d.map.target
            candidate = self.phi.get(target.name)
            if candidate is None:
                continue
            _check_array(candidate, f"projection of {target.name!r}", target.total)
            if not d.is_direct and d.map.source.total != space.total:
                raise InspectionError(f"loop {loop.index}: map {d.map.name!r} does not "
                                      f"run from {space.name!r}")
            proj.append(candidate.ctypes.data)
            rows.append(0 if d.is_direct else d.map.values.ctypes.data)
            arity.append(1 if d.is_direct else d.map.arity)
            arrays += [candidate] if d.is_direct else [candidate, d.map.values]
        if not proj:
            raise InspectionError(
                f"loop {loop.index} over {space.name!r}: no projection covers any "
                f"accessed space")

        n_exec = space.executable_size
        sigma = np.empty(space.total, dtype=np.int64)
        proj = np.array(proj, dtype=np.uintp)
        rows = np.array(rows, dtype=np.uintp)
        arity = np.array(arity, dtype=np.int64)
        cache = np.empty(2 * int(arity.sum()), dtype=np.int64)
        args = (space.total, n_exec, len(arity),
                proj.ctypes.data, rows.ctypes.data, arity.ctypes.data,
                self.colors.ctypes.data, self.n_tiles, cache.ctypes.data,
                sigma.ctypes.data)
        step = Pass(loop, ((self._lib.looptile_tile, args),), sigma,
                    n_exec * len(cache) // 2,
                    (sigma, proj, rows, arity, cache, *arrays))
        self._tilings.append(step)
        self.max_keys += step.max_keys
        return step

    def check(self) -> None:
        """Raise ``InspectionError`` unless the last run put every executable
        element of every tiling on a tile and left only tile ids in
        [NO_TILE, n_tiles) in every array the passes write."""
        written = []
        for t in self._tilings:
            space, sigma = t.loop.space, t.output
            executable = sigma[:space.executable_size]
            if len(executable) and executable.min() < 0:
                missing = int(np.flatnonzero(executable < 0)[0])
                raise InspectionError(
                    f"loop {t.loop.index}: element {missing} of {space.name!r} is "
                    f"not reachable through any projection")
            written.append((f"loop {t.loop.index}'s tiling array", sigma))
        written += [(f"projection of {name!r}", a) for name, a in self._buffers.items()]
        for what, a in written:
            if len(a) and (a.min() < NO_TILE or a.max() >= self.n_tiles):
                raise InspectionError(
                    f"{what} holds a tile id outside [-1, {self.n_tiles})")


def _run(step: Pass, conflicts: ConflictKeys | None) -> None:
    if conflicts is None:
        for fn, args in step.calls:
            fn(*args, None)
        return
    if not 0 <= conflicts.count <= len(conflicts.buffer) - step.max_keys:
        raise InspectionError(
            f"loop {step.loop.index}: {len(conflicts.buffer) - conflicts.count} "
            f"free conflict keys, the pass may write {step.max_keys}")
    for fn, args in step.calls:
        # keys are int64: the next one goes 8 bytes per key written past the start
        conflicts.count += fn(*args, conflicts.address + 8 * conflicts.count)


def project(step: Pass, conflicts: ConflictKeys | None = None) -> None:
    """Run one loop's bound projection (``Passes.projection``); unless
    ``conflicts`` is None, append the conflicting tile pairs its maps find."""
    _run(step, conflicts)


def tile_loop(step: Pass, conflicts: ConflictKeys | None = None) -> np.ndarray:
    """Run one loop's bound tiling (``Passes.tiling``) and return its tiling
    array; unless ``conflicts`` is None, append the conflicting tile pairs
    it finds.  ``Passes.check`` rejects unreachable elements after the run."""
    _run(step, conflicts)
    return step.output


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
    row of arity targets per element.  ``np.take`` along the rows gathers the
    same rows as fancy indexing, several times faster.
    """
    return [{m.name: np.take(m.values.reshape(-1, m.arity), lst, axis=0)
             for m in {d.map.name: d.map for d in loop.descriptors
                       if not d.is_direct}.values()}
            for lst, loop in zip(elements, chain.loops)]


def build_schedule(chain: LoopChain, mode: ExecMode, regions: np.ndarray,
                   colors: np.ndarray, sigmas: list[np.ndarray], recolor_rounds: int,
                   stats: InspectionStats | None = None) -> Schedule:
    """Cut one tiling array per loop into the schedule's CSR.

    Tile t has region ``regions[t]`` and color ``colors[t]``.  Every element
    of every loop's space must sit on a tile, and no executable element on
    the last, non-exec tile; otherwise ``InspectionError``.  Cutting counts
    toward ``projection_tiling_s``, local maps and the ``Schedule`` toward
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

    The passes are bound once (``Passes``); each recoloring round colors the
    tiles and runs them, growing one tiling array per loop from the seed
    partition, and in shared mode projects the last loop's mapped writes.
    ``build_schedule`` cuts the last round's arrays into the schedule's
    tilings.  Pure in (chain, ts, mode):
    repeated calls produce identical schedules.  Raises ColoringLimitError
    if recoloring fails to converge within 10 * (number of tiles) rounds.
    The one check of the halo-depth rule: a distributed chain of more loops
    than its depth raises DepthExceededError (each loop uses one halo strip).
    """
    if chain.distributed and len(chain.loops) > chain.depth:
        raise DepthExceededError(
            f"{len(chain.loops)} loops exceed halo depth {chain.depth}; "
            "split the chain")
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

    max_rounds = 10 * n_tiles
    tne_id = n_tiles - 1

    t0 = time.perf_counter()
    passes = Passes(np.zeros(n_tiles, dtype=np.int64))
    # non-exec iterations never run on this rank, so they carry no
    # dependence: each loop is projected with them on no tile
    sigma = np.where(seed == tne_id, NO_TILE, seed)
    steps = []
    for loop, before in zip(loops[1:], loops):
        steps.append((passes.projection(before, sigma), passes.tiling(loop)))
        sigma = steps[-1][1].output
    # nothing projects the last loop, so in shared mode a projection of its
    # mapped writes alone meets two tiles of one color scattering into one target
    writes = tuple(d for d in loops[-1].descriptors if not d.is_direct and d.mode.writes)
    scatter = (passes.projection(replace(loops[-1], descriptors=writes), sigma)
               if mode is ExecMode.SHARED and writes else None)
    stats.projection_tiling_s += time.perf_counter() - t0

    conflicts: ConflictKeys | None = None
    rounds = 0
    while True:
        rounds += 1
        if rounds > max_rounds:
            raise ColoringLimitError(
                f"recoloring did not converge after {max_rounds} rounds")
        t0 = time.perf_counter()
        colors = color_tiles(regions, pairs, mode)
        passes.colors[:] = colors
        stats.coloring_s += time.perf_counter() - t0

        # only same-colored tiles conflict, so unique colors (always so in
        # sequential and distributed modes) skip the conflict scans; the key
        # buffer is allocated in the first round whose colors repeat
        keys = None
        if len(sorted_distinct(colors)) < n_tiles:
            if conflicts is None:
                conflicts = ConflictKeys(passes.max_keys)
            conflicts.count = 0
            keys = conflicts
        t0 = time.perf_counter()
        for projection, tiling in steps:
            project(projection, keys)
            sigma = tile_loop(tiling, keys)
            sigma[tiling.loop.space.executable_size:] = NO_TILE
        if scatter is not None:
            project(scatter, keys)
        passes.check()
        stats.projection_tiling_s += time.perf_counter() - t0

        if keys is None or not keys.count:
            break
        # conflicting pairs join the adjacency as fake connections
        pairs = sorted_distinct(np.concatenate((pairs, keys.written())))

    sigmas = [seed] + [tiling.output for _, tiling in steps]
    for sigma in sigmas[1:]:
        sigma[sigma == NO_TILE] = tne_id
    schedule = build_schedule(chain, mode, regions, colors, sigmas, rounds, stats)
    stats.total_s = time.perf_counter() - t_start
    return schedule
