"""Execute loop chains: an untiled reference executor and the tiled one.

Kernels are user-registered callables receiving one view per descriptor:
direct accesses get the element's own values, mapped accesses a list of the
target elements' values.  Read accesses get slices of a read-only view, so a
kernel writing through one raises ValueError; write and increment views are
ordinary mutable numpy slices.  Tiles run color by color on the calling
thread, and a tile reads its mapped accesses through its own local maps.

A kernel may also register a batch form, which the tiled executor calls once
per non-empty (tile, loop) with whole-list arrays of n = len(list) rows and
k values per element: shape (n, k) for direct accesses, (n, arity, k) for
mapped ones.  Read arguments are read-only gathered copies, write arguments
gathered copies the executor stores back with ``values[idx] = buf``, and
increment arguments zeroed buffers it scatters with ``np.add.at``, which
adds in index order, so every target sums in the per-element order.  The
batch form declares the (mode, direct or mapped) pattern it implements, and
a loop takes it only when its descriptors match that pattern exactly and no
dataset it writes is bound to a second argument; every other loop, and
``execute_untiled`` always, runs the per-element body.
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


DIRECT, MAPPED = "direct", "mapped"


class KernelRegistry:
    """Kernel bodies by id, each with an optional batch form; an id registers once."""

    def __init__(self):
        self._kernels: dict[str, tuple] = {}
        self._batches: dict[str, tuple] = {}

    def register(self, kernel_id: str, body, nargs: int) -> None:
        if kernel_id in self._kernels:
            raise ExecutionError(f"kernel {kernel_id!r} already registered")
        self._kernels[kernel_id] = (body, nargs)

    def get(self, kernel_id: str):
        try:
            return self._kernels[kernel_id]
        except KeyError:
            raise ExecutionError(f"kernel {kernel_id!r} not registered") from None

    def register_batch(self, kernel_id: str, body, pattern) -> None:
        """Add a batch form to a registered kernel.

        ``pattern`` holds one (AccessMode, DIRECT or MAPPED) pair per
        argument.  A mapped write is refused: its scatter-assign would
        depend on the order of equal targets.
        """
        _, nargs = self.get(kernel_id)
        if kernel_id in self._batches:
            raise ExecutionError(f"kernel {kernel_id!r} already has a batch form")
        pattern = tuple((AccessMode(mode), access) for mode, access in pattern)
        if len(pattern) != nargs:
            raise ExecutionError(f"batch form of {kernel_id!r} declares "
                                 f"{len(pattern)} args, the kernel takes {nargs}")
        for mode, access in pattern:
            if access not in (DIRECT, MAPPED):
                raise ExecutionError(f"batch form of {kernel_id!r}: access "
                                     f"{access!r} is neither {DIRECT!r} nor {MAPPED!r}")
            if access == MAPPED and mode is AccessMode.WRITE:
                raise ExecutionError(f"batch form of {kernel_id!r}: a mapped "
                                     "write has no order-free batch form")
        self._batches[kernel_id] = (body, pattern)

    def batch(self, kernel_id: str):
        """(body, pattern) of the kernel's batch form, or None."""
        return self._batches.get(kernel_id)


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
                   registry: KernelRegistry) -> list[tuple]:
    """Validate bindings against the chain; return each loop's kernel bodies.

    Each entry is (per-element body, batch body or None); the batch body is
    given only where the loop matches its pattern (see the module
    docstring).  Runs before anything executes, so a bad binding or an
    unregistered kernel leaves every dataset untouched.
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
        bodies.append((body, _batch_body(loop, binding, registry)))
    return bodies


def _batch_body(loop: Loop, binding: KernelBinding, registry: KernelRegistry):
    """The kernel's batch body if ``loop`` matches its pattern, else None."""
    batch = registry.batch(loop.kernel)
    if batch is None:
        return None
    body, pattern = batch
    if pattern != tuple((d.mode, DIRECT if d.is_direct else MAPPED)
                        for d in loop.descriptors):
        return None
    # gathering a dataset the loop also writes would miss the loop's own updates
    written = [name for d, name in zip(loop.descriptors, binding.args)
               if d.mode.writes]
    if any(binding.args.count(name) > 1 for name in written):
        return None
    return body


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


def _run_batch(loop: Loop, binding: KernelBinding, body,
               datasets: dict[str, Dataset], elements: np.ndarray,
               rows_of: dict[str, np.ndarray]) -> None:
    """Run the batch ``body`` once over all of ``elements``."""
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
    """The semantic reference: loops in chain order, ascending element order.

    Always per-element, even for kernels with a batch form.
    """
    bodies = check_bindings(chain, bindings, datasets, registry)
    for loop, binding, (body, _) in zip(chain.loops, bindings, bodies):
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
    in schedule order; the non-exec tile is never executed.  A loop with a
    matching batch form runs as one batch call per tile.
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
                body, batch = bodies[j]
                if batch is not None:
                    _run_batch(chain.loops[j], bindings[j], batch, datasets,
                               elements, rows_of)
                else:
                    _run_loop(chain.loops[j], bindings[j], body, datasets,
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
