"""Span tracing from outside the program.

``Tracer.install`` replaces looptile's public functions by timing wrappers
under the names their calling modules look them up by (for example
``looptile.distsim.partition_for_ranks``, which ``run_distributed`` calls),
and ``Tracer.uninstall`` puts the originals back, so untraced rounds run the
program untouched.  Spans (name, start, end, parent) stay in memory until
``write_jsonl``.  Wrappers also record counts read off the arguments and
results at the same boundary.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

import looptile.distsim as distsim
import looptile.executor as executor
import looptile.inspector as inspector
import looptile.mesh as mesh_mod
import looptile.partition as partition
import looptile.problems as problems
from looptile.chain import Region
from looptile.executor import KernelRegistry


class Tracer:
    """Spans and boundary counts of the traced rounds of one run."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._originals: list[tuple] = []
        self.round = 0
        self.counts: dict[str, float] = defaultdict(float)
        self.kernel_calls = 0

    # -- spans ------------------------------------------------------------

    def begin(self, name: str) -> int:
        span = {"id": len(self.spans), "name": name, "round": self.round,
                "parent": self._stack[-1] if self._stack else None,
                "start": time.perf_counter(), "end": None}
        self.spans.append(span)
        self._stack.append(span["id"])
        return span["id"]

    def end(self, span_id: int) -> None:
        if self._stack.pop() != span_id:
            raise RuntimeError("spans closed out of order")
        self.spans[span_id]["end"] = time.perf_counter()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def write_jsonl(self, path: str) -> None:
        own = self.self_times()
        with open(path, "w") as fh:
            for s, self_s in zip(self.spans, own):
                fh.write(json.dumps({**s, "self": self_s}) + "\n")

    def round_spans(self, round_no: int) -> list[tuple[dict, float]]:
        own = self.self_times()
        return [(s, own[s["id"]]) for s in self.spans if s["round"] == round_no]

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, owner, attr: str, name: str, after=None) -> None:
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            calls_before = tracer.kernel_calls
            span = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(span)
            if after is not None:
                after(tracer, args, kwargs, result, tracer.kernel_calls - calls_before)
            return result

        setattr(owner, attr, wrapper)
        self._originals.append((owner, attr, original))

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        w = self._wrap
        w(mesh_mod, "generate_rect_mesh", "mesh.generate_rect_mesh")
        w(mesh_mod, "rcm_renumber", "mesh.rcm_renumber")
        w(problems, "global_setup", "problems.global_setup")
        w(problems, "local_setup", "problems.local_setup")
        w(distsim, "local_setup", "problems.local_setup")
        for owner in (partition, distsim):
            w(owner, "partition_for_ranks", "partition.partition_for_ranks",
              _after_partition)
        for owner in (inspector, distsim):
            w(owner, "inspect_chain", "inspector.inspect_chain", _after_inspect)
        for attr in ("project", "tile_loop", "color_tiles", "assign",
                     "compute_local_maps"):
            w(inspector, attr, f"inspector.{attr}")
        for owner in (executor, distsim):
            w(owner, "execute_schedule", "executor.execute_schedule", _after_execute)
        w(executor, "execute_untiled", "executor.execute_untiled")
        w(distsim, "run_distributed", "distsim.run_distributed", _after_distributed)
        w(distsim, "gather", "distsim.gather")
        w(distsim.HaloEndpoint, "begin", "distsim.exchange")
        w(distsim.HaloEndpoint, "end", "distsim.exchange")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def counting_registry(self, base: KernelRegistry, kernel_ids) -> KernelRegistry:
        """A registry whose bodies are ``base``'s, each call counted."""
        registry = KernelRegistry()
        for kernel_id in sorted(set(kernel_ids)):
            body, nargs = base.get(kernel_id)
            registry.register(kernel_id, self._counted(body), nargs)
        return registry

    def _counted(self, body):
        def counted(*args):
            self.kernel_calls += 1
            return body(*args)
        return counted


# -- counts taken at the wrapped boundaries ---------------------------------


def _after_partition(tracer, args, kwargs, local_meshes, _kernel_calls) -> None:
    tracer.counts["partition.calls"] += 1
    tracer.counts["partition.halo_cells"] += sum(
        lm.sizes["cells"].exec + lm.sizes["cells"].nonexec for lm in local_meshes)


def _after_inspect(tracer, args, kwargs, schedule, _kernel_calls) -> None:
    ts = kwargs["ts"] if "ts" in kwargs else args[1]
    c = tracer.counts
    c["inspector.rounds"] += schedule.recolor_rounds
    c["inspector.tiles"] += len(schedule.tiles)
    c["inspector.colors"] += len(schedule.color_order)
    largest = max(len(lst) for t in schedule.tiles if t.region is not Region.NONEXEC
                  for lst in t.iteration_lists.values())
    c["inspector.max_tile_growth"] = max(c["inspector.max_tile_growth"], largest / ts)
    c["inspector.schedule_bytes"] += sum(
        a.nbytes for t in schedule.tiles
        for a in (*t.iteration_lists.values(), *t.local_maps.values()))


def executed_iterations(schedule) -> int:
    return sum(len(lst) for t in schedule.tiles if t.region is not Region.NONEXEC
               for lst in t.iteration_lists.values())


def _after_execute(tracer, args, kwargs, report, kernel_calls) -> None:
    tracer.counts["executor.iterations"] += executed_iterations(args[0])
    tracer.counts["executor.kernel_calls"] += kernel_calls


def _after_distributed(tracer, args, kwargs, result, _kernel_calls) -> None:
    mesh, problem = args[0], args[1]
    totals = {"cells": mesh.num_cells, "edges": mesh.num_edges,
              "verts": mesh.num_vertices}
    executed = sum(executed_iterations(vr.schedule) for vr in result.ranks)
    tracer.counts["executor.redundant_iterations"] += (
        executed - sum(totals[spec.space] for spec in problem.loops))
    tracer.counts["distsim.bytes_exchanged"] += sum(
        vr.endpoint.bytes_exchanged for vr in result.ranks)
    tracer.counts["distsim.exchanges"] += sum(result.exchange_counts)


# -- per-layer metrics of one traced round ----------------------------------

# metric name -> span names whose durations it sums
SPAN_TIMES = {
    "mesh.generate_s": ("mesh.generate_rect_mesh",),
    "mesh.rcm_s": ("mesh.rcm_renumber",),
    "problems.setup_s": ("problems.global_setup", "problems.local_setup"),
    "partition.partition_s": ("partition.partition_for_ranks",),
    "inspector.project_s": ("inspector.project",),
    "inspector.tile_loop_s": ("inspector.tile_loop",),
    "inspector.color_tiles_s": ("inspector.color_tiles",),
    "inspector.assign_s": ("inspector.assign",),
    "inspector.local_maps_s": ("inspector.compute_local_maps",),
    "executor.execute_s": ("executor.execute_schedule",),
    "executor.untiled_s": ("executor.execute_untiled",),
    "distsim.run_distributed_s": ("distsim.run_distributed",),
    "distsim.exchange_s": ("distsim.exchange",),
    "distsim.gather_s": ("distsim.gather",),
}

# counts taken at the wrapped boundaries -> unit
COUNTS = {
    "partition.calls": "count", "partition.halo_cells": "count",
    "inspector.rounds": "count", "inspector.tiles": "count",
    "inspector.colors": "count", "inspector.max_tile_growth": "ratio",
    "inspector.schedule_bytes": "bytes", "executor.iterations": "count",
    "executor.kernel_calls": "count", "executor.redundant_iterations": "count",
    "distsim.bytes_exchanged": "bytes", "distsim.exchanges": "count",
}

# every metric round_metrics returns -> unit
UNITS = {**{name: "s" for name in SPAN_TIMES}, **COUNTS,
         "inspector.project_calls": "count", "inspector.self_s": "s",
         "executor.us_per_iteration": "us"}


def round_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer totals of the tracer's current round, keyed as in UNITS."""
    spans = tracer.round_spans(tracer.round)
    out = {}
    for metric, names in SPAN_TIMES.items():
        out[metric] = float(sum(s["end"] - s["start"] for s, _ in spans
                                if s["name"] in names))
    out["inspector.project_calls"] = float(
        sum(1 for s, _ in spans if s["name"] == "inspector.project"))
    out["inspector.self_s"] = sum(own for s, own in spans
                                  if s["name"] == "inspector.inspect_chain")
    for name in COUNTS:
        out[name] = float(tracer.counts.get(name, 0.0))
    out["executor.us_per_iteration"] = (
        out["executor.execute_s"] / out["executor.iterations"] * 1e6
        if out["executor.iterations"] else 0.0)
    return out
