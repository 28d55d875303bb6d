"""Command-line driver: run, verify, inspect-only, export-vtk, sweep.

Exit codes: 0 ok, 1 other error (I/O, failed inspection), 2 config error
(including a binding or kernel the executor rejects), 3 verification failure,
4 depth violation.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .chain import LoopChain
from .config import ConfigError, RunConfig, SubChain, parse_config, parse_fusion
from .errors import (DepthExceededError, ExecutionError, InspectionError,
                     VerificationError)
from .executor import (KernelRegistry, execute_schedule, execute_untiled,
                       integer_valued)
from .inspector import ExecMode, Schedule, inspect_chain
from .mesh import Mesh, generate_rect_mesh, rcm_renumber
from .problems import Problem, default_registry, global_setup
from .distsim import run_distributed
from .vtk import export_vtk


class ScheduleCache:
    """Software cache mapping (chain fingerprint, ts, mode) to inspections."""

    def __init__(self):
        self._store: dict[tuple[str, int, str], Schedule] = {}
        self.hits = 0
        self.misses = 0

    def get_or_inspect(self, chain: LoopChain, ts: int, mode: ExecMode) -> Schedule:
        key = (chain.fingerprint, ts, mode.value)
        if key in self._store:
            self.hits += 1
            return self._store[key]
        self.misses += 1
        schedule = inspect_chain(chain, ts, mode)
        self._store[key] = schedule
        return schedule


@dataclass
class RunResult:
    mesh: Mesh
    problem: Problem
    values: dict[str, np.ndarray]  # final dataset values, global numbering
    schedules: list[Schedule] = field(default_factory=list)
    reports: list = field(default_factory=list)
    inspect_seconds: float = 0.0
    execute_seconds: float = 0.0


def build_mesh(cfg: RunConfig) -> Mesh:
    mesh = generate_rect_mesh(cfg.nx, cfg.ny)
    if cfg.renumber:
        mesh = rcm_renumber(mesh)
    return mesh


def _sub_problem(problem: Problem, sc: SubChain) -> Problem:
    return Problem(f"{problem.name}[{sc.start}:{sc.stop}]",
                   problem.loops[sc.start:sc.stop], problem.datasets)


def run_config(cfg: RunConfig, cache: ScheduleCache | None = None,
               registry: KernelRegistry | None = None) -> RunResult:
    """Execute the configured fusion scheme; unfused trailing loops run untiled."""
    cache = cache or ScheduleCache()
    registry = registry or default_registry()
    mesh = build_mesh(cfg)
    n_loops = len(cfg.problem.loops)
    result = RunResult(mesh=mesh, problem=cfg.problem, values={})

    if cfg.mode is ExecMode.DISTRIBUTED:
        chain, datasets, bindings = global_setup(mesh, cfg.problem, cfg.depth)
        state = {name: ds.values.copy() for name, ds in datasets.items()}
        for sc in cfg.fusion:
            dist = run_distributed(mesh, _sub_problem(cfg.problem, sc),
                                   cfg.nranks, sc.tile_size, cfg.depth,
                                   registry, initial=state)
            # partitioning, local set-up and gather count as neither
            result.inspect_seconds += sum(vr.schedule.stats.total_s for vr in dist.ranks)
            result.execute_seconds += sum(sum(r.phase_seconds.values())
                                          for r in dist.reports)
            result.schedules.extend(vr.schedule for vr in dist.ranks)
            result.reports.extend(dist.reports)
            state = dist.datasets
        if cfg.fused_stop < n_loops:
            for name, ds in datasets.items():
                ds.values[:] = state[name]
            t0 = time.perf_counter()
            execute_untiled(chain.subchain(cfg.fused_stop, n_loops),
                            bindings[cfg.fused_stop:], datasets, registry)
            result.execute_seconds += time.perf_counter() - t0
            state = {name: ds.values.copy() for name, ds in datasets.items()}
        result.values = state
        return result

    chain, datasets, bindings = global_setup(mesh, cfg.problem, cfg.depth)
    for sc in cfg.fusion:
        sub = chain.subchain(sc.start, sc.stop)
        t0 = time.perf_counter()
        schedule = cache.get_or_inspect(sub, sc.tile_size, cfg.mode)
        result.inspect_seconds += time.perf_counter() - t0
        t0 = time.perf_counter()
        report = execute_schedule(schedule, sub, bindings[sc.start:sc.stop],
                                  datasets, registry)
        result.execute_seconds += time.perf_counter() - t0
        result.schedules.append(schedule)
        result.reports.append(report)
    if cfg.fused_stop < n_loops:
        tail = chain.subchain(cfg.fused_stop, n_loops)
        t0 = time.perf_counter()
        execute_untiled(tail, bindings[cfg.fused_stop:], datasets, registry)
        result.execute_seconds += time.perf_counter() - t0
    result.values = {name: ds.values.copy() for name, ds in datasets.items()}
    return result


def reference_values(cfg: RunConfig, mesh: Mesh | None = None,
                     registry: KernelRegistry | None = None) -> dict[str, np.ndarray]:
    """The untiled serial oracle for this configuration."""
    registry = registry or default_registry()
    mesh = mesh if mesh is not None else build_mesh(cfg)
    chain, datasets, bindings = global_setup(mesh, cfg.problem, cfg.depth)
    execute_untiled(chain, bindings, datasets, registry)
    return {name: ds.values.copy() for name, ds in datasets.items()}


def compare_values(reference: dict[str, np.ndarray], got: dict[str, np.ndarray],
                   rtol: float = 1e-12, limit: int = 10) -> list[tuple]:
    """First mismatches as (dataset, flat index, ref, got); exact on integer data."""
    diffs = []
    for name in sorted(reference):
        ref, cand = reference[name], got[name]
        if integer_valued(ref):
            bad = np.flatnonzero(ref != cand)
        else:
            bad = np.flatnonzero(~np.isclose(cand, ref, rtol=rtol, atol=0.0))
        for flat in bad[:limit - len(diffs)]:
            diffs.append((name, int(flat), float(ref[flat]), float(cand[flat])))
        if len(diffs) >= limit:
            break
    return diffs


def write_values(path: str, values: dict[str, np.ndarray]) -> None:
    """Line-oriented dump (dataset element value) for external diffing."""
    if os.path.dirname(path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        for name in sorted(values):
            for i, v in enumerate(values[name].tolist()):
                fh.write(f"{name} {i} {v:.17g}\n")


def verify_config(cfg: RunConfig, cache: ScheduleCache | None = None) -> RunResult:
    """Run tiled and untiled, raise VerificationError on any mismatch.

    With a configured report path, both runs' values are dumped next to it
    so external tools can diff them.
    """
    result = run_config(cfg, cache)
    reference = reference_values(cfg, result.mesh)
    if cfg.report_path:
        write_values(cfg.report_path + ".tiled", result.values)
        write_values(cfg.report_path + ".untiled", reference)
    diffs = compare_values(reference, result.values)
    if diffs:
        listing = "; ".join(
            f"{name}[{idx}]: expected {ref}, got {got}"
            for name, idx, ref, got in diffs)
        raise VerificationError(f"tiled run diverges from untiled: {listing}")
    return result


def inspect_only(cfg: RunConfig) -> list[Schedule]:
    """Inspect every fused sub-chain on the global mesh; no execution."""
    mesh = build_mesh(cfg)
    chain, _, _ = global_setup(mesh, cfg.problem, cfg.depth)
    mode = cfg.mode if cfg.mode is not ExecMode.DISTRIBUTED else ExecMode.SEQUENTIAL
    schedules = []
    for sc in cfg.fusion:
        sub = chain.subchain(sc.start, sc.stop)
        schedules.append(inspect_chain(sub, sc.tile_size, mode))
    return schedules


def export_vtk_config(cfg: RunConfig, path: str | None = None) -> str:
    """Inspect the first fused sub-chain and write cell tile/color fields."""
    path = path or cfg.vtk_path
    if not path:
        raise ConfigError("no VTK output path configured")
    mesh = build_mesh(cfg)
    chain, _, _ = global_setup(mesh, cfg.problem, cfg.depth)
    mode = cfg.mode if cfg.mode is not ExecMode.DISTRIBUTED else ExecMode.SEQUENTIAL
    sc = cfg.fusion[0]
    sub = chain.subchain(sc.start, sc.stop)
    schedule = inspect_chain(sub, sc.tile_size, mode)
    export_vtk(schedule, sub, mesh, path)
    return path


def sweep_config(cfg: RunConfig, tile_sizes, modes, schemes=None, out=None) -> list[dict]:
    """Cartesian product over ts x mode x fusion scheme, one timing row each."""
    out = out if out is not None else sys.stdout
    schemes = schemes or [None]
    rows = []
    print(f"{'scheme':<18} {'ts':>5} {'mode':<12} {'inspect_ms':>11} "
          f"{'execute_ms':>11} {'verify':>7}", file=out)
    for scheme in schemes:
        for ts in tile_sizes:
            for mode in modes:
                variant = dataclasses.replace(cfg, tile_size=ts, mode=mode)
                fusion_text = scheme or ",".join(
                    f"{sc.start}-{sc.stop - 1}" for sc in cfg.fusion)
                variant.fusion = parse_fusion(fusion_text, len(cfg.problem.loops),
                                               ts, cfg.depth, mode)
                try:
                    result = verify_config(variant)
                    ok = "pass"
                except VerificationError:
                    result = None
                    ok = "FAIL"
                row = {
                    "scheme": fusion_text, "ts": ts, "mode": mode.value,
                    "inspect_ms": result.inspect_seconds * 1e3 if result else float("nan"),
                    "execute_ms": result.execute_seconds * 1e3 if result else float("nan"),
                    "verify": ok,
                }
                rows.append(row)
                print(f"{row['scheme']:<18} {ts:>5} {mode.value:<12} "
                      f"{row['inspect_ms']:>11.3f} {row['execute_ms']:>11.3f} "
                      f"{ok:>7}", file=out)
    return rows


def _write_outputs(cfg: RunConfig, result: RunResult) -> None:
    for path in (cfg.report_path, cfg.summary_path, cfg.vtk_path):
        if path and os.path.dirname(path):
            os.makedirs(os.path.dirname(path), exist_ok=True)
    if cfg.report_path:
        with open(cfg.report_path, "w") as fh:
            for i, report in enumerate(result.reports):
                fh.write(f"# sub-chain {i}\n{report.to_kv()}\n")
    if cfg.summary_path:
        with open(cfg.summary_path, "w") as fh:
            for i, schedule in enumerate(result.schedules):
                fh.write(f"# sub-chain {i}\n{schedule.summary()}\n")
    if cfg.vtk_path and cfg.mode is not ExecMode.DISTRIBUTED:
        export_vtk_config(cfg, cfg.vtk_path)


def _build_argparser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="looptile",
                                  description="sparse tiling of mesh loop chains")
    sub = top.add_subparsers(dest="command", required=True)
    for name, blurb in (("run", "inspect and execute the configured chain"),
                        ("verify", "run tiled and untiled, diff the outputs"),
                        ("inspect-only", "run inspection and print summaries"),
                        ("export-vtk", "write the tile map as a VTK file"),
                        ("sweep", "time a grid of tile sizes, modes, schemes")):
        p = sub.add_parser(name, help=blurb)
        p.add_argument("config", help="path to an INI run configuration")
        if name == "export-vtk":
            p.add_argument("--out", help="override the configured VTK path")
        if name == "sweep":
            p.add_argument("--tile-sizes", default="4,16,64",
                           help="comma-separated tile sizes")
            p.add_argument("--modes", default="sequential,shared",
                           help="comma-separated execution modes")
            p.add_argument("--schemes", default=None,
                           help="semicolon-separated fusion schemes")
    return top


def main(argv=None) -> int:
    args = _build_argparser().parse_args(argv)
    try:
        cfg = parse_config(args.config)
        if args.command == "run":
            result = run_config(cfg)
            _write_outputs(cfg, result)
            print(f"ok: {len(result.reports)} sub-chain executions, "
                  f"inspect {result.inspect_seconds * 1e3:.3f} ms, "
                  f"execute {result.execute_seconds * 1e3:.3f} ms")
        elif args.command == "verify":
            result = verify_config(cfg)
            print(f"verify ok: {len(result.values)} datasets match the "
                  f"untiled reference")
        elif args.command == "inspect-only":
            for i, schedule in enumerate(inspect_only(cfg)):
                print(f"# sub-chain {i}")
                print(schedule.summary())
        elif args.command == "export-vtk":
            path = export_vtk_config(cfg, getattr(args, "out", None))
            print(f"wrote {path}")
        elif args.command == "sweep":
            tile_sizes = [int(t) for t in args.tile_sizes.split(",")]
            modes = [ExecMode.parse(m) for m in args.modes.split(",")]
            schemes = args.schemes.split(";") if args.schemes else None
            sweep_config(cfg, tile_sizes, modes, schemes)
    except DepthExceededError as exc:
        print(f"depth violation: {exc}", file=sys.stderr)
        return 4
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ExecutionError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, InspectionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
