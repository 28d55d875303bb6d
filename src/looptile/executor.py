"""Execute loop chains: the unfused executor and the tiled one.

A kernel is one user-registered callable over whole iteration lists.  The
executor calls it once per loop untiled, and once per color run and loop
tiled: once per non-empty (region, color, loop), over the joined lists
of that color's tiles, which are independent of each other.  In sequential
and distributed modes every tile has its own color, so that is once per
non-empty (tile, loop).  A kernel gets one array per descriptor: for n
iterations and k values per element, a direct access arrives as an (n, k)
array and a mapped one as (n, arity, k).

A binding holds dataset names only; ``check_bindings`` alone resolves them
and, for every backend, checks that each bound value array is 1-D,
C-contiguous and float64, writable if written.  Each execution then binds
every argument to its dataset's flat value array and to flat slot indices of
the argument's shape: slot ``e * k + c`` holds value c of element e, for the
elements the tiling lists (direct) or their local-map targets (mapped).  For
k = 1 the slots are a view of those ids.  A step then slices the slots of
its positions, and the access mode alone defines each argument:

- read: ``values.take(slots)``, read-only, so a kernel writing to it raises
  ``ExecutionError``;
- write: ``values.take(slots)``, stored back with ``values[slots] = buf``;
- increment: a zeroed buffer that the executor adds back with
  ``np.add.at(values, slots.ravel(), buf.ravel())``, which adds in index
  order, so every target sums its contributions in element order.  Both
  operands are 1-D because numpy 2.4's ``ufunc.at`` leaves its fast path
  for a 2-D table or an n-d index: about 6x slower at 20,000 entries and
  1.5x at 64.

So a loop that binds ``edge_read``'s output as an increment adds the sum to
the output instead of overwriting it.  ``check_bindings`` rejects what this
contract cannot run in any order: a mapped write, whose stores to equal
targets would race, and a dataset that a loop writes or increments bound to
a second argument, whose gathered copy would miss the loop's own updates.
Colors run in ascending order on the calling thread, and a step reads its
mapped accesses through the slices of the local maps that match its lists.
A body's ``ValueError``, ``IndexError`` or ``TypeError`` raises
``ExecutionError``; until the registry has accepted the chain's fingerprint
and shape, a run that raises puts back the datasets it wrote first.

A kernel may also carry a per-element C body.  When every loop's kernel has
one, ``execute_schedule`` runs the color runs through C generated for the
chain's shape (``looptile.codegen``), with the same contract element by
element, so the results are equal bit for bit; C checks no widths, so for a
new key each numpy body first runs on one scratch element of its bound shapes.
Otherwise it takes the numpy steps above.  ``execute_untiled`` always runs
the numpy bodies, the oracle that ``verify`` compares tiled runs against.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

import numpy as np

from . import codegen
from .chain import AccessMode, IterationSpace, Loop, LoopChain, Region
from .errors import ExecutionError, StaleScheduleError
from .inspector import Schedule

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
    """Kernel bodies by id; an id registers once.

    ``body`` is the numpy body over whole iteration lists, the checked
    semantics.  ``c`` is an optional per-element C body of the same kernel
    (see ``looptile.codegen`` for its arguments); tiled runs use it when
    every loop's kernel has one.
    """

    def __init__(self):
        self._kernels: dict[str, tuple] = {}
        self._c: dict[str, str] = {}
        self._accepted: set[tuple] = set()  # (fingerprint, shape) run without error

    def register(self, kernel_id: str, body, nargs: int, c: str | None = None) -> None:
        if kernel_id in self._kernels:
            raise ExecutionError(f"kernel {kernel_id!r} already registered")
        self._kernels[kernel_id] = (body, nargs)
        if c is not None:
            self._c[kernel_id] = c

    def get(self, kernel_id: str):
        try:
            return self._kernels[kernel_id]
        except KeyError:
            raise ExecutionError(f"kernel {kernel_id!r} not registered") from None

    def c_body(self, kernel_id: str) -> str | None:
        return self._c.get(kernel_id)


@dataclass(frozen=True)
class KernelBinding:
    """A loop's dataset names, paired positionally with its descriptors; the
    kernel is the loop's own.  Only ``check_bindings`` looks the names up."""

    args: tuple[str, ...]


@dataclass
class ExecutionReport:
    """Per-phase wall times, halo bytes and backend of one tiled execution.

    ``backend`` is ``"c"`` when the runs ran as generated C, else ``"numpy"``.
    """

    phase_seconds: dict[str, float] = field(default_factory=dict)
    bytes_exchanged: int = 0
    backend: str = "numpy"


def check_bindings(chain: LoopChain, bindings, datasets: dict[str, Dataset],
                   registry: KernelRegistry) -> tuple[list, list, tuple]:
    """Validate bindings against the chain; return each loop's kernel body,
    each loop's arguments as (descriptor, dataset) pairs, and the chain's
    shape, per loop one ``codegen.Arg`` per argument.

    Runs before anything executes, so a bad binding, an unregistered kernel,
    a dataset of the wrong space, size or layout, a mapped write or an aliased
    written dataset (see the module docstring) leaves every dataset untouched.
    """
    if len(bindings) != len(chain.loops):
        raise ExecutionError(
            f"{len(bindings)} bindings for {len(chain.loops)} loops")
    bodies, args, shape = [], [], []
    first = {}  # dataset name: (loop, written), its first writer or first loop
    for loop, binding in zip(chain.loops, bindings):
        if len(binding.args) != len(loop.descriptors):
            raise ExecutionError(
                f"loop {loop.index}: {len(binding.args)} args for "
                f"{len(loop.descriptors)} descriptors")
        pairs = []
        for i, (d, name) in enumerate(zip(loop.descriptors, binding.args)):
            if name not in datasets:
                raise ExecutionError(f"loop {loop.index}: dataset {name!r} missing")
            ds = datasets[name]
            wanted = loop.space if d.is_direct else d.map.target
            if ds.space is not wanted and ds.space.name != wanted.name:
                raise ExecutionError(
                    f"loop {loop.index}: dataset {name!r} lives on "
                    f"{ds.space.name!r}, descriptor needs {wanted.name!r}")
            if len(ds.values) != wanted.total * ds.values_per_element:
                raise ExecutionError(
                    f"loop {loop.index}: argument {i} binds dataset {name!r}, which holds "
                    f"{len(ds.values)} values, not {wanted.total} x {ds.values_per_element}")
            if d.mode is AccessMode.WRITE and not d.is_direct:
                raise ExecutionError(
                    f"loop {loop.index}: dataset {name!r} is written through "
                    f"map {d.map.name!r}; stores to shared targets would race")
            if d.mode.writes and binding.args.count(name) > 1:
                raise ExecutionError(
                    f"loop {loop.index}: dataset {name!r} is written and bound "
                    "to a second argument")
            if name not in first or (d.mode.writes and not first[name][1]):
                first[name] = (loop.index, d.mode.writes)
            pairs.append((d, ds))
        body, nargs = registry.get(loop.kernel)
        if nargs != len(loop.descriptors):
            raise ExecutionError(
                f"kernel {loop.kernel!r} takes {nargs} args, loop {loop.index} "
                f"has {len(loop.descriptors)} descriptors")
        bodies.append(body)
        args.append(pairs)
        shape.append(tuple(codegen.Arg(d.mode, None if d.is_direct else d.map.arity,
                                       ds.values_per_element) for d, ds in pairs))
    for name, (j, writes) in first.items():
        values = datasets[name].values
        if (values.dtype != np.float64 or values.ndim != 1 or not values.flags.c_contiguous
                or (writes and not values.flags.writeable)):
            raise ExecutionError(f"loop {j}: dataset {name!r} is not a 1-D contiguous"
                                 f"{' writable' if writes else ''} float64 array")
    return bodies, args, tuple(shape)


def check_slots(schedule: Schedule, args) -> None:
    """Every argument's slots must lie in its dataset, and a mapped one's
    rows must be in its tiling and have its map's arity.

    Runs before anything executes: the C backend indexes without bounds
    checks, and numpy's ``take`` would fail only after earlier steps ran.
    """
    for j, (loop_args, tiling) in enumerate(zip(args, schedule.tilings)):
        for i, (d, ds) in enumerate(loop_args):
            key = None if d.is_direct else d.map.name
            if key is not None and key not in tiling.rows:
                raise StaleScheduleError(
                    f"loop {j}: tiling holds no rows of local map {key!r}")
            if key is not None and tiling.rows[key].shape[1:] != (d.map.arity,):
                raise StaleScheduleError(
                    f"loop {j}: local map {key!r} rows are not of arity {d.map.arity}")
            span = tiling.index_ranges[key]
            if span is not None and (span[0] < 0 or (span[1] + 1)
                                     * ds.values_per_element > len(ds.values)):
                raise ExecutionError(
                    f"loop {j}: argument {i} indexes elements "
                    f"{span[0]}..{span[1]} of dataset {ds.name!r}, which holds "
                    f"{len(ds.values) // ds.values_per_element}")


def flat_slots(idx: np.ndarray, k: int) -> np.ndarray:
    """Flat value indices of the elements in ``idx``: its shape plus (k,).

    Element e of a dataset with k values per element holds the values at
    ``e * k`` to ``e * k + k - 1`` of its flat array.  For k = 1 the result
    is a view of ``idx``.
    """
    if k == 1:
        return idx[..., None]
    return idx[..., None] * k + np.arange(k)


def _bind(loop_args, elements: np.ndarray, rows: dict[str, np.ndarray]) -> list:
    """A loop's (descriptor, dataset) pairs as (mode, flat values, flat slots).

    A mapped access takes the targets of the element at position i of
    ``elements`` from row i of ``rows[map name]``, an (n, arity) array, so
    the slots have the kernel's argument shape, (n, k) or (n, arity, k).
    """
    return [(d.mode, ds.values, flat_slots(elements if d.is_direct else rows[d.map.name],
                                           ds.values_per_element))
            for d, ds in loop_args]


@contextmanager
def _undoing(args):
    """Put back every dataset the chain writes if a numpy body raises."""
    written = {id(ds): ds for loop_args in args for d, ds in loop_args if d.mode.writes}
    saved = [(ds, ds.values.copy()) for ds in written.values()]
    try:
        yield
    except ExecutionError:
        for ds, values in saved:
            ds.values[:] = values
        raise


def _run_step(loop: Loop, body, bound: list, lo: int, hi: int) -> None:
    """Run ``body`` once over positions ``lo`` to ``hi`` of the bound slots."""
    args, stores = [], []
    for mode, values, slots in bound:
        idx = slots[lo:hi]
        if mode is AccessMode.INC:
            buf = np.zeros(idx.shape)
        else:
            buf = values.take(idx)
        if mode is AccessMode.READ:
            buf.setflags(write=False)
        else:
            stores.append((mode, values, idx, buf))
        args.append(buf)
    try:
        body(*args)
    except (ValueError, IndexError, TypeError) as exc:
        shapes = ", ".join(f"(n, {', '.join(map(str, a.shape[1:]))})" for a in args)
        raise ExecutionError(f"loop {loop.index}: kernel {loop.kernel!r} rejects "
                             f"arguments of shapes {shapes}: {exc}") from exc
    for mode, values, idx, buf in stores:
        if mode is AccessMode.INC:
            # raveled operands keep ufunc.at on its fast 1-D path
            np.add.at(values, idx.ravel(), buf.ravel())
        else:
            values[idx] = buf


def execute_untiled(chain: LoopChain, bindings, datasets: dict[str, Dataset],
                    registry: KernelRegistry) -> None:
    """The unfused baseline: one kernel call per loop, in chain order."""
    bodies, args, shape = check_bindings(chain, bindings, datasets, registry)
    key = (chain.fingerprint, shape)
    with nullcontext() if key in registry._accepted else _undoing(args):
        for loop, body, loop_args in zip(chain.loops, bodies, args):
            rows = {d.map.name: d.map.values.reshape(-1, d.map.arity)
                    for d in loop.descriptors if not d.is_direct}
            bound = _bind(loop_args, np.arange(loop.space.total), rows)
            _run_step(loop, body, bound, 0, loop.space.executable_size)
    registry._accepted.add(key)


def execute_schedule(schedule: Schedule, chain: LoopChain, bindings,
                     datasets: dict[str, Dataset], registry: KernelRegistry,
                     exchange=None) -> ExecutionReport:
    """Run the schedule's color runs: core colors, halo wait, boundary colors.

    ``exchange`` is an optional endpoint whose exchange the caller has
    already begun; it must offer end() and a bytes_exchanged running total.
    end() runs between the core and boundary phases, and the report's
    bytes_exchanged is what it added.  Each non-empty (color run, loop) is
    one kernel call; the non-exec tile is never executed.  When every loop's
    kernel has a C body, the runs execute as generated C
    (``looptile.codegen``); otherwise each calls the numpy body.  The core
    phase's time includes the slot check and either backend's set-up, a cold
    cache's compile among it.
    """
    if schedule.fingerprint != chain.fingerprint:
        raise StaleScheduleError("schedule was inspected for a different chain")
    if schedule.n_loops != len(chain.loops):
        raise StaleScheduleError("schedule loop count differs from chain")
    bodies, args, shape = check_bindings(chain, bindings, datasets, registry)
    key = (chain.fingerprint, shape)
    accepted = key in registry._accepted  # hashed once: AccessMode hashes in Python
    c_bodies = [registry.c_body(loop.kernel) for loop in chain.loops]
    report = ExecutionReport()

    t0 = time.perf_counter()
    check_slots(schedule, args)
    if all(c is not None for c in c_bodies):
        report.backend = "c"
        if not accepted:
            # C checks no widths: each numpy body first runs on one element
            for loop, body, loop_shape in zip(chain.loops, bodies, shape):
                _run_step(loop, body, [(a.mode, np.zeros(a.k), flat_slots(np.zeros(
                    1 if a.arity is None else (1, a.arity), np.int64), a.k))
                    for a in loop_shape], 0, 1)
        fn = codegen.runner(c_bodies, shape)
        # one v | x | b table (codegen.generate); this frame keeps it and values alive
        values = {ds.name: ds.values for loop_args in args for _, ds in loop_args}
        address = {name: a.ctypes.data for name, a in values.items()}
        table = np.array([address[ds.name] for loop_args in args for _, ds in loop_args]
                         + [t.addresses[None if d.is_direct else d.map.name] for loop_args, t
                            in zip(args, schedule.tilings) for d, _ in loop_args]
                         + [t.bounds_address for t in schedule.tilings], dtype=np.uintp)
        v, part = table.ctypes.data, sum(map(len, args)) * table.itemsize

        def run_phase(region):
            fn(v, v + part, v + 2 * part, schedule.run_addresses[region],
               len(schedule.runs[region]) - 1)
    else:
        bound = [_bind(loop_args, tiling.elements, tiling.rows)
                 for loop_args, tiling in zip(args, schedule.tilings)]

        def run_phase(region):
            cuts = [t.bounds[schedule.runs[region]].tolist() for t in schedule.tilings]
            for r in range(len(cuts[0]) - 1):
                for loop, body, b, cut in zip(chain.loops, bodies, bound, cuts):
                    if cut[r] < cut[r + 1]:
                        _run_step(loop, body, b, cut[r], cut[r + 1])
    with nullcontext() if accepted or report.backend == "c" else _undoing(args):
        run_phase(Region.CORE)
        report.phase_seconds["core"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        if exchange is not None:
            before = exchange.bytes_exchanged
            exchange.end()
            report.bytes_exchanged = exchange.bytes_exchanged - before
        report.phase_seconds["exchange_wait"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        run_phase(Region.BOUNDARY)
        report.phase_seconds["boundary"] = time.perf_counter() - t0
    if not accepted:
        registry._accepted.add(key)
    return report


# -- result comparison --------------------------------------------------------

def integer_valued(values: np.ndarray) -> bool:
    return bool(np.all(values == np.rint(values)))
