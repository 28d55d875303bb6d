"""Loop chain abstraction: iteration spaces, maps, access descriptors, loops.

A chain is an ordered sequence of loops over named iteration spaces with no
synchronization between them.  Each loop carries descriptors stating which
spaces it reads, writes or increments, directly or through a map.  Chains are
immutable once built and carry everything the inspector needs for run-time
dependence analysis.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidChainError


class AccessMode(enum.Enum):
    READ = "r"
    WRITE = "w"
    INC = "i"

    @classmethod
    def parse(cls, token: str) -> "AccessMode":
        for mode in cls:
            if token in (mode.value, mode.name.lower()):
                return mode
        raise InvalidChainError(f"unknown access mode {token!r}")

    @property
    def writes(self) -> bool:
        return self is not AccessMode.READ


class Region(enum.IntEnum):
    """Contiguous regions of an iteration space, in storage order."""

    CORE = 0
    BOUNDARY = 1
    NONEXEC = 2


@dataclass(frozen=True)
class IterationSpace:
    """A named set of iteration ids 0..total-1, stored core | boundary | non-exec."""

    name: str
    core_size: int
    boundary_size: int = 0
    nonexec_size: int = 0

    def __post_init__(self):
        if min(self.core_size, self.boundary_size, self.nonexec_size) < 0:
            raise InvalidChainError(f"negative region size in space {self.name!r}")

    @property
    def total(self) -> int:
        return self.core_size + self.boundary_size + self.nonexec_size

    @property
    def executable_size(self) -> int:
        return self.core_size + self.boundary_size


@dataclass(frozen=True, eq=False)
class MeshMap:
    """Arity-a connectivity from every source element to a target elements."""

    name: str
    source: IterationSpace
    target: IterationSpace
    arity: int
    values: np.ndarray

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=np.int64)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        if self.arity < 1:
            raise InvalidChainError(f"map {self.name!r} has arity {self.arity}")
        if values.ndim != 1 or len(values) != self.source.total * self.arity:
            raise InvalidChainError(
                f"map {self.name!r}: expected {self.source.total * self.arity} "
                f"values, got {len(values)}"
            )
        if len(values) and (values.min() < 0 or values.max() >= self.target.total):
            raise InvalidChainError(f"map {self.name!r}: value outside target space")


@dataclass(frozen=True, eq=False)
class InverseMap:
    """CSR-style inverse of a MeshMap: for each target element, the sources touching it.

    The inspector's C projection indexes through it unchecked, so
    construction checks that ``offsets`` cut ``values`` into one segment per
    element of ``source`` and that every value is an element of ``target``.
    """

    source: IterationSpace  # the original map's target
    target: IterationSpace  # the original map's source
    offsets: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        for name in ("offsets", "values"):
            array = np.ascontiguousarray(getattr(self, name), dtype=np.int64)
            array.setflags(write=False)
            object.__setattr__(self, name, array)
        offsets, values = self.offsets, self.values
        if (offsets.ndim != 1 or len(offsets) != self.source.total + 1
                or offsets[0] != 0 or offsets[-1] != len(values)
                or np.any(offsets[1:] < offsets[:-1])):
            raise InvalidChainError(
                f"inverse map: offsets do not cut {len(values)} values into "
                f"{self.source.total} segments")
        if values.ndim != 1 or (len(values) and (
                values.min() < 0 or values.max() >= self.target.total)):
            raise InvalidChainError("inverse map: value outside target space")


def invert_map(mesh_map: MeshMap) -> InverseMap:
    """Build the CSR inverse of ``mesh_map``; each segment is sorted ascending.

    Sorted segments make later max-scans deterministic regardless of the
    original map's row order.  A source appears in a target's segment once
    per column of its row that names the target.  One compiled counting
    sort (``looptile_invert`` in ``inspector.c``) buckets the map's values,
    which ``MeshMap`` checked.
    """
    from .inspector import _lib  # inspector imports this module

    n_target = mesh_map.target.total
    offsets = np.empty(n_target + 1, dtype=np.int64)
    values = np.empty(len(mesh_map.values), dtype=np.int64)
    _lib().looptile_invert(mesh_map.source.total, mesh_map.arity,
                           mesh_map.values.ctypes.data, n_target,
                           offsets.ctypes.data, values.ctypes.data)
    return InverseMap(source=mesh_map.target, target=mesh_map.source,
                      offsets=offsets, values=values)


@dataclass(frozen=True, eq=False)
class Descriptor:
    """One access performed by a loop: through ``map`` (or directly) in ``mode``."""

    map: MeshMap | None
    mode: AccessMode

    @property
    def is_direct(self) -> bool:
        return self.map is None


@dataclass(frozen=True, eq=False)
class Loop:
    index: int
    space: IterationSpace
    descriptors: tuple[Descriptor, ...]
    kernel: str


@dataclass(frozen=True, eq=False)
class LoopChain:
    loops: tuple[Loop, ...]
    spaces: tuple[IterationSpace, ...]
    maps: tuple[MeshMap, ...]
    depth: int
    distributed: bool = False
    _fingerprint: str = field(default="", repr=False, compare=False)

    @property
    def fingerprint(self) -> str:
        return self._fingerprint

    def subchain(self, start: int, stop: int) -> "LoopChain":
        """A chain over loops [start, stop), re-indexed from zero; it needs
        ``0 <= start < stop <= len(loops)``, else ``InvalidChainError``."""
        if not 0 <= start < stop <= len(self.loops):
            raise InvalidChainError(f"sub-chain [{start}, {stop}) is not a "
                                    f"range of {len(self.loops)} loops")
        if stop - start == len(self.loops):
            return self  # an immutable chain, already indexed from zero
        loops = tuple(
            Loop(index=i, space=lp.space, descriptors=lp.descriptors, kernel=lp.kernel)
            for i, lp in enumerate(self.loops[start:stop])
        )
        return build_chain(self.spaces, self.maps, loops, self.depth,
                           distributed=self.distributed)


def build_chain(spaces, maps, loops, depth: int, distributed: bool = False) -> LoopChain:
    """Validate and freeze a loop chain, failing fast on any invariant breach.

    ``depth`` and ``distributed`` feed the fingerprint; ``inspect_chain``
    checks the halo-depth rule on them."""
    spaces = tuple(spaces)
    maps = tuple(maps)
    loops = tuple(loops)
    if not loops:
        raise InvalidChainError("a loop chain needs at least one loop")
    if depth < 1:
        raise InvalidChainError(f"depth must be >= 1, got {depth}")
    names = [s.name for s in spaces]
    if len(set(names)) != len(names):
        raise InvalidChainError("duplicate iteration space names")
    map_names = [m.name for m in maps]
    if len(set(map_names)) != len(map_names):
        raise InvalidChainError("duplicate map names")
    space_set = set(spaces)  # value equality: same name and region sizes
    for m in maps:
        if m.source not in space_set or m.target not in space_set:
            raise InvalidChainError(f"map {m.name!r} references a space outside the chain")
    map_set = set(maps)  # identity: descriptors must use the declared map objects
    for position, loop in enumerate(loops):
        if loop.index != position:
            raise InvalidChainError(f"loop {position} carries index {loop.index}")
        if loop.space not in space_set:
            raise InvalidChainError(f"loop {position} iterates an unknown space")
        if not loop.descriptors:
            raise InvalidChainError(f"loop {position} has no descriptors")
        for d in loop.descriptors:
            if d.map is None:
                continue
            if d.map not in map_set:
                raise InvalidChainError(
                    f"loop {position} uses map {d.map.name!r} not declared in the chain")
            if d.map.source != loop.space:
                raise InvalidChainError(
                    f"loop {position} over {loop.space.name!r} cannot use map "
                    f"{d.map.name!r} sourced on {d.map.source.name!r}")
    chain = LoopChain(loops=loops, spaces=spaces, maps=maps, depth=depth,
                      distributed=distributed)
    object.__setattr__(chain, "_fingerprint", chain_fingerprint(chain))
    return chain


def chain_fingerprint(chain: LoopChain) -> str:
    """Deterministic digest over the chain's full structure.

    Equal chains hash equal; any change to sizes, map values, descriptors,
    loop order or depth changes the digest.  Used as the schedule cache key,
    and compared by ``execute_schedule``, which raises ``StaleScheduleError``
    for a schedule inspected for another chain.
    """
    h = hashlib.sha256()
    for space in sorted(chain.spaces, key=lambda s: s.name):
        h.update(f"S|{space.name}|{space.core_size}|{space.boundary_size}"
                 f"|{space.nonexec_size}\n".encode())
    for m in sorted(chain.maps, key=lambda m: m.name):
        h.update(f"M|{m.name}|{m.source.name}|{m.target.name}|{m.arity}\n".encode())
        h.update(m.values.tobytes())
    for loop in chain.loops:
        desc = ",".join(
            f"{'-' if d.map is None else d.map.name}:{d.mode.value}"
            for d in loop.descriptors)
        h.update(f"L|{loop.index}|{loop.space.name}|{loop.kernel}|{desc}\n".encode())
    h.update(f"D|{chain.depth}|{int(chain.distributed)}\n".encode())
    return h.hexdigest()
