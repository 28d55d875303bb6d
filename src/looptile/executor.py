"""Execute loop chains: the unfused executor and the tiled one.

A kernel is one user-registered callable over whole iteration lists.  The
executor calls it once per loop untiled, and once per non-empty (tile, loop)
tiled, with one array per descriptor: for n iterations and k values per
element, a direct access arrives as an (n, k) array and a mapped one as
(n, arity, k).  The access mode alone defines each argument:

- read: a gathered copy, read-only, so a kernel writing to it raises
  ValueError;
- write: a gathered copy that the executor stores back with
  ``values[idx] = buf``;
- increment: a zeroed buffer that the executor adds back with ``np.add.at``,
  which adds in index order, so every target sums its contributions in
  element order.

So a loop that binds ``edge_read``'s output as an increment adds the sum to
the output instead of overwriting it.  ``check_bindings`` rejects what this
contract cannot run in any order: a mapped write, whose stores to equal
targets would race, and a dataset that a loop writes or increments bound to
a second argument, whose gathered copy would miss the loop's own updates.
Tiles run color by color on the calling thread, and a tile reads its mapped
accesses through its own local maps.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .chain import AccessMode, IterationSpace, Loop, LoopChain, Region
from .errors import ExecutionError, StaleScheduleError
from .inspector import Schedule, Tile

# read by bench/run.py only; nothing in the package consults it
THREADS_ENV = "LOOPTILE_THREADS"


@dataclass
class Dataset:
    """Values attached to an iteration space, values_per_element reals each."""

    name: str
    space: IterationSpace
    values_per_element: int
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64).ravel()
        if len(self.values) != self.space.total * self.values_per_element:
            raise ExecutionError(
                f"dataset {self.name!r}: {len(self.values)} values for "
                f"{self.space.total} x {self.values_per_element}")

    def copy(self) -> "Dataset":
        return Dataset(self.name, self.space, self.values_per_element,
                       self.values.copy())


class KernelRegistry:
    """Kernel bodies by id; an id registers once."""

    def __init__(self):
        self._kernels: dict[str, tuple] = {}

    def register(self, kernel_id: str, body, nargs: int) -> None:
        if kernel_id in self._kernels:
            raise ExecutionError(f"kernel {kernel_id!r} already registered")
        self._kernels[kernel_id] = (body, nargs)

    def get(self, kernel_id: str):
        try:
            return self._kernels[kernel_id]
        except KeyError:
            raise ExecutionError(f"kernel {kernel_id!r} not registered") from None


@dataclass(frozen=True)
class KernelBinding:
    """Dataset names paired positionally with a loop's descriptors."""

    kernel: str
    args: tuple[str, ...]


@dataclass
class ExecutionReport:
    """Per-phase wall times and tile counts for one tiled execution."""

    phase_seconds: dict[str, float] = field(default_factory=dict)
    tiles_per_color: dict[int, int] = field(default_factory=dict)
    bytes_exchanged: int = 0


def check_bindings(chain: LoopChain, bindings, datasets: dict[str, Dataset],
                   registry: KernelRegistry) -> list:
    """Validate bindings against the chain; return each loop's kernel body.

    Runs before anything executes, so a bad binding, an unregistered kernel,
    a mapped write or an aliased written dataset (see the module docstring)
    leaves every dataset untouched.
    """
    if len(bindings) != len(chain.loops):
        raise ExecutionError(
            f"{len(bindings)} bindings for {len(chain.loops)} loops")
    bodies = []
    for loop, binding in zip(chain.loops, bindings):
        if binding.kernel != loop.kernel:
            raise ExecutionError(
                f"loop {loop.index} expects kernel {loop.kernel!r}, "
                f"bound {binding.kernel!r}")
        if len(binding.args) != len(loop.descriptors):
            raise ExecutionError(
                f"loop {loop.index}: {len(binding.args)} args for "
                f"{len(loop.descriptors)} descriptors")
        for d, name in zip(loop.descriptors, binding.args):
            if name not in datasets:
                raise ExecutionError(f"loop {loop.index}: dataset {name!r} missing")
            ds = datasets[name]
            wanted = loop.space if d.is_direct else d.map.target
            if ds.space is not wanted and ds.space.name != wanted.name:
                raise ExecutionError(
                    f"loop {loop.index}: dataset {name!r} lives on "
                    f"{ds.space.name!r}, descriptor needs {wanted.name!r}")
            if d.mode is AccessMode.WRITE and not d.is_direct:
                raise ExecutionError(
                    f"loop {loop.index}: dataset {name!r} is written through "
                    f"map {d.map.name!r}; stores to shared targets would race")
            if d.mode.writes and binding.args.count(name) > 1:
                raise ExecutionError(
                    f"loop {loop.index}: dataset {name!r} is written and bound "
                    "to a second argument")
        body, nargs = registry.get(loop.kernel)
        if nargs != len(loop.descriptors):
            raise ExecutionError(
                f"kernel {loop.kernel!r} takes {nargs} args, loop {loop.index} "
                f"has {len(loop.descriptors)} descriptors")
        bodies.append(body)
    return bodies


def _run_batch(loop: Loop, binding: KernelBinding, body,
               datasets: dict[str, Dataset], elements: np.ndarray,
               rows_of: dict[str, np.ndarray]) -> None:
    """Run ``body`` once over all of ``elements``.

    A mapped access takes the targets of the element at position i of
    ``elements`` from entries i*arity .. (i+1)*arity - 1 of
    ``rows_of[map name]``.
    """
    args, stores = [], []
    for d, name in zip(loop.descriptors, binding.args):
        ds = datasets[name]
        table = ds.values.reshape(-1, ds.values_per_element)
        idx = elements if d.is_direct else rows_of[d.map.name].reshape(-1, d.map.arity)
        if d.mode is AccessMode.INC:
            buf = np.zeros(idx.shape + (ds.values_per_element,))
        else:
            buf = table[idx]
        if d.mode is AccessMode.READ:
            buf.flags.writeable = False
        else:
            stores.append((d.mode, table, idx, buf))
        args.append(buf)
    body(*args)
    for mode, table, idx, buf in stores:
        if mode is AccessMode.INC:
            np.add.at(table, idx, buf)
        else:
            table[idx] = buf


def execute_untiled(chain: LoopChain, bindings, datasets: dict[str, Dataset],
                    registry: KernelRegistry) -> None:
    """The unfused baseline: one kernel call per loop, in chain order."""
    bodies = check_bindings(chain, bindings, datasets, registry)
    for loop, binding, body in zip(chain.loops, bindings, bodies):
        n = loop.space.executable_size
        rows_of = {d.map.name: d.map.values[:n * d.map.arity]
                   for d in loop.descriptors if not d.is_direct}
        _run_batch(loop, binding, body, datasets, np.arange(n), rows_of)


def _tile_work(tile: Tile, chain: LoopChain) -> list[tuple]:
    """(loop index, elements, local maps by name) for each non-empty list."""
    work = []
    for j, loop in enumerate(chain.loops):
        elements = tile.iteration_lists.get(j)
        if elements is None or not len(elements):
            continue
        rows_of = {}
        for d in loop.descriptors:
            if d.is_direct:
                continue
            rows = tile.local_maps.get((j, d.map.name))
            wanted = len(elements) * d.map.arity
            if rows is None or len(rows) != wanted:
                raise StaleScheduleError(
                    f"tile {tile.id} loop {j}: local map {d.map.name!r} has "
                    f"{0 if rows is None else len(rows)} entries, its list "
                    f"needs {wanted}")
            rows_of[d.map.name] = rows
        work.append((j, elements, rows_of))
    return work


def execute_schedule(schedule: Schedule, chain: LoopChain, bindings,
                     datasets: dict[str, Dataset], registry: KernelRegistry,
                     exchange=None) -> ExecutionReport:
    """Run the tiled schedule: core tiles by color, halo wait, boundary tiles.

    ``exchange`` is an optional endpoint whose exchange the caller has
    already begun; it must offer end() and a bytes_exchanged attribute, and
    end() runs between the core and boundary phases.  Same-colored tiles run
    in schedule order; the non-exec tile is never executed.  Each non-empty
    (tile, loop) is one kernel call.
    """
    if schedule.fingerprint != chain.fingerprint:
        raise StaleScheduleError("schedule was inspected for a different chain")
    if schedule.n_loops != len(chain.loops):
        raise StaleScheduleError("schedule loop count differs from chain")
    bodies = check_bindings(chain, bindings, datasets, registry)
    phases = {Region.CORE: [], Region.BOUNDARY: []}
    for t in schedule.tiles:
        if t.region in phases:
            phases[t.region].append((t.color, _tile_work(t, chain)))

    report = ExecutionReport()

    def run_phase(tiles):
        for color, work in sorted(tiles, key=lambda entry: entry[0]):
            report.tiles_per_color[color] = report.tiles_per_color.get(color, 0) + 1
            for j, elements, rows_of in work:
                _run_batch(chain.loops[j], bindings[j], bodies[j], datasets,
                           elements, rows_of)

    t0 = time.perf_counter()
    run_phase(phases[Region.CORE])
    report.phase_seconds["core"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    if exchange is not None:
        exchange.end()
        report.bytes_exchanged = exchange.bytes_exchanged
    report.phase_seconds["exchange_wait"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    run_phase(phases[Region.BOUNDARY])
    report.phase_seconds["boundary"] = time.perf_counter() - t0
    return report


# -- result comparison --------------------------------------------------------

def integer_valued(values: np.ndarray) -> bool:
    return bool(np.all(values == np.rint(values)))
