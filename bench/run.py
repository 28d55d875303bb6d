"""Loop-chain benchmark: set-up, inspection and time steps of one workload.

Usage, from the root of a checkout:

    python3 bench/run.py --workload fig2-seq-steps --seed 1 --seconds 40 --trace 0

Each workload is an INI file under bench/workloads/ that looptile's own
``parse_config`` reads, with an extra ``[bench] steps`` key.  The run
repeats whole rounds for about ``--seconds``, starting no round that would
end past that time.  A round is a few timed set-ups, then one solve (set-up,
one inspection of the fusion scheme, ``steps`` tiled time steps), then one
untiled time step.  Results are checked against a numpy oracle and schedules
against their coverage and independence properties, outside the timed
spans.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end timings, each the median
of the run's samples.  With ``--trace 1`` rounds alternate untraced and
traced; the metrics are per-layer totals of one round, medians over the
traced rounds, and the spans go to .bench_out/ as JSON lines.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("eight-shared-inspect", "fig2-seq-steps", "eight-dist4")

# timed set-ups per round; the last one is the solve's own
SETUP_REPEATS = 3


def _import_program():
    """Import looptile from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "looptile", "__init__.py")):
        sys.exit(f"bench: no looptile sources under {SRC}")
    sys.path.insert(0, SRC)
    import looptile
    if os.path.dirname(os.path.dirname(os.path.abspath(looptile.__file__))) != SRC:
        sys.exit(f"bench: looptile imported from {looptile.__file__}, not {SRC}")


_import_program()
import numpy as np  # noqa: E402

import looptile.distsim as distsim  # noqa: E402
import looptile.executor as executor  # noqa: E402
import looptile.inspector as inspector  # noqa: E402
import looptile.mesh as mesh_mod  # noqa: E402
import looptile.partition as partition  # noqa: E402
import looptile.problems as problems  # noqa: E402
from looptile.config import parse_config  # noqa: E402
from looptile.inspector import ExecMode  # noqa: E402

import oracle  # noqa: E402
from tracing import UNITS, Tracer, round_metrics  # noqa: E402


class Stopwatch:
    """Wall time since creation, minus the intervals spent paused for checks."""

    def __init__(self):
        self.start = time.perf_counter()
        self.paused = 0.0
        self._pause_start = 0.0

    def pause(self) -> None:
        self._pause_start = time.perf_counter()

    def resume(self) -> None:
        self.paused += time.perf_counter() - self._pause_start

    def elapsed(self) -> float:
        return time.perf_counter() - self.start - self.paused


@dataclass
class Round:
    setup_s: list = field(default_factory=list)
    inspect_s: float = 0.0
    step_s: list = field(default_factory=list)
    untiled_step_s: float = 0.0
    solve_s: float = 0.0


class Workload:
    """One INI workload with its seeded initial data and oracle states."""

    def __init__(self, name: str, seed: int):
        path = os.path.join(HERE, "workloads", f"{name}.ini")
        self.cfg = parse_config(path)
        self.steps = _read_steps(path)
        if self.cfg.fused_stop != len(self.cfg.problem.loops):
            sys.exit(f"bench: {name}: the fusion scheme must cover every loop")
        self.distributed = self.cfg.mode is ExecMode.DISTRIBUTED
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []        # wrong results: the run is incorrect
        self.known_faults: list[str] = []  # failed operations kept on purpose
        self.initial: dict[str, np.ndarray] = {}
        self.expected: list[dict[str, np.ndarray]] = []
        self.working_set_bytes = 0

    def prepare(self, mesh) -> None:
        """Draw integer initial values from the seed and step the oracle."""
        rng = np.random.default_rng(self.seed)
        sizes = {"cells": mesh.num_cells, "edges": mesh.num_edges,
                 "verts": mesh.num_vertices}
        self.initial = {
            spec.name: rng.integers(0, 8, sizes[spec.space] * spec.values_per_element)
            .astype(np.float64)
            for spec in self.cfg.problem.datasets}
        conn = oracle.mesh_connectivity(mesh)
        self.expected = oracle.oracle_states(self.cfg.problem, conn, self.initial,
                                             self.steps)
        # computed bytes of the global datasets and connectivity one step reads
        self.working_set_bytes = (sum(v.nbytes for v in self.initial.values())
                                  + sum(rows.nbytes for rows in conn.values()))

    def operation(self, errors: list[str]) -> None:
        self.attempted += 1
        if not errors:
            return
        self.failed += 1
        if self.distributed and all(oracle.NONEXEC_FAULT in e for e in errors):
            self.known_faults.extend(errors)
        else:
            self.errors.extend(errors)

    def sub_problem(self, sc):
        problem = self.cfg.problem
        return problems.Problem(f"{problem.name}[{sc.start}:{sc.stop}]",
                                problem.loops[sc.start:sc.stop], problem.datasets)

    # -- the timed phases -------------------------------------------------

    def setup(self):
        """Mesh, renumbering and the global chain every solve starts from."""
        cfg = self.cfg
        t0 = time.perf_counter()
        mesh = mesh_mod.generate_rect_mesh(cfg.nx, cfg.ny)
        if cfg.renumber:
            mesh = mesh_mod.rcm_renumber(mesh)
        chain, datasets, bindings = problems.global_setup(mesh, cfg.problem, cfg.depth)
        subs = [(sc, chain.subchain(sc.start, sc.stop), bindings[sc.start:sc.stop])
                for sc in cfg.fusion]
        elapsed = time.perf_counter() - t0
        self.operation(oracle.check_mesh_counts(mesh, cfg.nx, cfg.ny))
        return elapsed, mesh, chain, datasets, bindings, subs

    def run_round(self, registry) -> Round:
        cfg = self.cfg
        result = Round()
        for _ in range(SETUP_REPEATS - 1):
            result.setup_s.append(self.setup()[0])

        watch = Stopwatch()
        setup_s, mesh, chain, datasets, bindings, subs = self.setup()
        result.setup_s.append(setup_s)
        watch.pause()
        if not self.expected:
            self.prepare(mesh)
        for name, ds in datasets.items():
            ds.values[:] = self.initial[name]
        untiled = {name: ds.copy() for name, ds in datasets.items()}
        # distributed inspection runs on every rank's local sub-chains, which
        # run_distributed builds inside its step; build them here, untimed
        targets = self._local_chains(mesh) if self.distributed else subs
        watch.resume()

        t0 = time.perf_counter()
        schedules = [inspector.inspect_chain(c, sc.tile_size, cfg.mode)
                     for sc, c, _ in targets]
        result.inspect_s = time.perf_counter() - t0
        watch.pause()
        errors = []
        for (_, c, b), schedule in zip(targets, schedules):
            errors += oracle.check_schedule(schedule, c, b,
                                            shared=cfg.mode is ExecMode.SHARED)
        self.operation(errors)
        watch.resume()

        values = self.initial
        for k in range(self.steps):
            t0 = time.perf_counter()
            if self.distributed:
                for sc in cfg.fusion:
                    values = distsim.run_distributed(
                        mesh, self.sub_problem(sc), cfg.nranks, sc.tile_size,
                        cfg.depth, registry, initial=values).datasets
            else:
                for (sc, sub, b), schedule in zip(subs, schedules):
                    executor.execute_schedule(schedule, sub, b, datasets, registry)
                values = {name: ds.values for name, ds in datasets.items()}
            result.step_s.append(time.perf_counter() - t0)
            watch.pause()
            self.operation(oracle.compare(self.expected[k], values))
            watch.resume()
        result.solve_s = watch.elapsed()

        t0 = time.perf_counter()
        executor.execute_untiled(chain, bindings, untiled, registry)
        result.untiled_step_s = time.perf_counter() - t0
        self.operation(oracle.compare(
            self.expected[0], {name: ds.values for name, ds in untiled.items()}))
        return result

    def _local_chains(self, mesh):
        """Every rank's chain for every sub-chain, as run_distributed builds them."""
        cfg = self.cfg
        local_meshes = partition.partition_for_ranks(mesh, cfg.nranks, cfg.depth)
        out = []
        for sc in cfg.fusion:
            problem = self.sub_problem(sc)
            for lm in local_meshes:
                chain, _, bindings = problems.local_setup(lm, problem, cfg.depth)
                out.append((sc, chain, bindings))
        return out


def _read_steps(path: str) -> int:
    parser = configparser.ConfigParser()
    parser.read(path)
    steps = parser.getint("bench", "steps")
    if steps < 1:
        sys.exit(f"bench: {path}: steps must be >= 1")
    return steps


def calibrate() -> float:
    """Median time of a fixed pure-Python loop; it moves only with the host."""
    samples = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc = (acc + i * i) % 1_000_003
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def summary(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"n": len(values), "median": statistics.median(values), "quartiles": q,
            "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    os.environ.pop(executor.THREADS_ENV, None)

    calib_s = calibrate()
    workload = Workload(args.workload, args.seed)
    registry = problems.default_registry()
    tracer = Tracer() if args.trace else None

    untraced: list[Round] = []
    traced: list[tuple[Round, dict]] = []
    run_start = time.perf_counter()
    longest = 0.0
    while True:
        round_start = time.perf_counter()
        if tracer is not None and len(untraced) > len(traced):
            tracer.round += 1
            tracer.counts.clear()
            counting = tracer.counting_registry(
                registry, [spec.kernel for spec in workload.cfg.problem.loops])
            tracer.install()
            try:
                span = tracer.begin("bench.round")
                r = workload.run_round(counting)
                tracer.end(span)
            finally:
                tracer.uninstall()
            traced.append((r, round_metrics(tracer)))
        else:
            untraced.append(workload.run_round(registry))
        now = time.perf_counter()
        longest = max(longest, now - round_start)
        # stop before a round that would end past the deadline, so a run
        # takes about --seconds however slow the host is
        if (now - run_start + longest > args.seconds
                and (tracer is None or traced)):
            break
    run_s = time.perf_counter() - run_start

    samples = {
        "setup_s": [s for r in untraced for s in r.setup_s],
        "inspect_s": [r.inspect_s for r in untraced],
        "step_s": [s for r in untraced for s in r.step_s],
        "untiled_step_s": [r.untiled_step_s for r in untraced],
        "solve_s": [r.solve_s for r in untraced],
    }
    env = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "git_sha": git_sha(), "python": platform.python_version(),
        "numpy": np.__version__, "nproc": os.cpu_count(),
        "host.calib_s": calib_s, "timed_rounds": len(untraced) + len(traced),
        "steps_per_round": workload.steps, "run_s": run_s,
        "working_set_bytes": workload.working_set_bytes,
    }
    print(json.dumps({"env": env}))
    print(json.dumps({"samples": {k: summary(v) for k, v in samples.items()}}))
    for message in sorted(set(workload.known_faults)):
        print(f"known fault, operation counted as failed: {message}", file=sys.stderr)
    for message in workload.errors[:20]:
        print(f"check failed: {message}", file=sys.stderr)

    if tracer is not None:
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write_jsonl(os.path.join(
            OUT_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl"))
        per_round = [m for _, m in traced]
        metrics = {name: {"value": statistics.median(m[name] for m in per_round),
                          "unit": UNITS[name]} for name in UNITS}
        metrics["host.calib_s"] = {"value": calib_s, "unit": "s"}
        metrics["trace.overhead_s"] = {
            "value": statistics.median(r.solve_s for r, _ in traced)
            - statistics.median(samples["solve_s"]),
            "unit": "s"}
    else:
        metrics = {name: {"value": statistics.median(v), "unit": "s"}
                   for name, v in samples.items()}
        metrics["peak_rss_mb"] = {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MB"}

    correct = not workload.errors
    print(json.dumps({"correct": correct, "attempted": workload.attempted,
                      "failed": workload.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
