"""Execute loop chains: an untiled reference executor and the tiled one.

Kernels are user-registered callables receiving one view per descriptor:
direct accesses get the element's own values, mapped accesses a list of the
target elements' values.  Read accesses get slices of a read-only view, so a
kernel writing through one raises ValueError; write and increment views are
ordinary mutable numpy slices.  Tiles run color by color on the calling
thread, and a tile reads its mapped accesses through its own local maps.
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

    Runs before anything executes, so a bad binding or an unregistered
    kernel leaves every dataset untouched.
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
        body, nargs = registry.get(loop.kernel)
        if nargs != len(loop.descriptors):
            raise ExecutionError(
                f"kernel {loop.kernel!r} takes {nargs} args, loop {loop.index} "
                f"has {len(loop.descriptors)} descriptors")
        bodies.append(body)
    return bodies


def _run_loop(loop: Loop, binding: KernelBinding, body, datasets: dict[str, Dataset],
              elements, rows_of: dict[str, np.ndarray]) -> None:
    """Run ``body`` over ``elements``.

    A mapped access finds its target ids in ``rows_of[map name]`` at the
    element's position in ``elements``.  A read access slices one read-only
    view of its dataset, taken once per call.
    """
    plan = []
    for d, name in zip(loop.descriptors, binding.args):
        ds = datasets[name]
        values = ds.values
        if d.mode is AccessMode.READ:
            values = values.view()
            values.flags.writeable = False
        if d.is_direct:
            plan.append((values, ds.values_per_element, None, 1))
        else:
            plan.append((values, ds.values_per_element,
                         rows_of[d.map.name].tolist(), d.map.arity))

    # Python ints index faster than numpy scalars
    for pos, e in enumerate(np.asarray(elements).tolist()):
        args = []
        for values, k, rows, a in plan:
            if rows is None:
                args.append(values[e * k:(e + 1) * k])
            else:
                args.append([values[t * k:(t + 1) * k]
                             for t in rows[pos * a:(pos + 1) * a]])
        body(*args)


def execute_untiled(chain: LoopChain, bindings, datasets: dict[str, Dataset],
                    registry: KernelRegistry) -> None:
    """The semantic reference: loops in chain order, ascending element order."""
    bodies = check_bindings(chain, bindings, datasets, registry)
    for loop, binding, body in zip(chain.loops, bindings, bodies):
        rows_of = {d.map.name: d.map.values
                   for d in loop.descriptors if not d.is_direct}
        _run_loop(loop, binding, body, datasets,
                  range(loop.space.executable_size), rows_of)


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
    in schedule order; the non-exec tile is never executed.
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
                _run_loop(chain.loops[j], bindings[j], bodies[j], datasets,
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
