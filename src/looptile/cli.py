"""Command-line interface: run, verify, inspect-only, sweep.

Every line that ``run``, ``verify``, ``inspect-only`` and ``sweep`` print,
and every line of the ``[output] report`` file, is one JSON record with a
``record`` field naming its kind:

- ``schedule``: one per inspected schedule, that is per fused sub-chain and,
  in distributed mode, per rank.  Tiles per region, colors, recolor rounds,
  per-loop tile sizes and the inspection phases; in distributed mode, what
  the rank holds of each space (core, owned, exec and non-exec elements);
  once the schedule has run, also its executor phases, tiles per color,
  bytes exchanged and backend (``c`` or ``numpy``).
- ``run``: one per run.  Fusion scheme, mode, ranks, inspect and execute
  seconds, and the verify status (``pass``, ``FAIL`` or null).

``run`` prints its run record, ``verify`` the run record with ``pass``,
``inspect-only`` the schedule records, ``sweep`` one run record per variant,
each compared with one untiled reference that the sweep runs once, and
exits 3 after the last if any variant failed;
``run`` writes the ``[output] report`` file: the schedule records, then
the run record, and the ``[output] vtk`` tile map of the first sub-chain.

A distributed run partitions the mesh and sets up every rank once, then
runs each sub-chain with one halo exchange.  Every exchange poisons the
ranks' halo slots until it commits, so a core tile that read one would make
``verify`` fail.

Exit codes: 0 ok, 1 other error (I/O, failed inspection), 2 config error
(including an INI file that does not parse, a binding or kernel the executor
rejects, and a bad sweep flag value), 3 verification failure,
4 depth violation, 5 C compile error (no C compiler, which inspection needs
too, a C body that does not compile, or an unusable C cache directory).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .chain import LoopChain, Region
from .config import ConfigError, RunConfig, SubChain, parse_config, parse_fusion
from .errors import (CompileError, DepthExceededError, ExecutionError,
                     InspectionError, VerificationError)
from .executor import (ExecutionReport, KernelRegistry, execute_schedule,
                       execute_untiled, integer_valued)
from .inspector import ExecMode, Schedule, inspect_chain
from .mesh import Mesh, generate_rect_mesh, rcm_renumber
from .partition import RegionSizes
from .problems import default_registry, global_setup
from .distsim import gather, run_subchain, setup_ranks
from .vtk import export_vtk


@dataclass
class Inspected:
    """One inspected schedule, with its execution report once it has run."""

    subchain: SubChain
    rank: int | None  # None unless distributed
    schedule: Schedule
    report: ExecutionReport | None = None
    holds: dict[str, RegionSizes] | None = None  # the rank's, if distributed


@dataclass
class RunResult:
    mesh: Mesh
    chain: LoopChain  # the whole chain, global numbering
    values: dict[str, np.ndarray]  # final dataset values, global numbering
    inspected: list[Inspected] = field(default_factory=list)
    inspect_seconds: float = 0.0
    execute_seconds: float = 0.0


def build_mesh(cfg: RunConfig) -> Mesh:
    mesh = generate_rect_mesh(cfg.nx, cfg.ny)
    if cfg.renumber:
        mesh = rcm_renumber(mesh)
    return mesh


def run_config(cfg: RunConfig, cache: dict | None = None,
               registry: KernelRegistry | None = None) -> RunResult:
    """Execute the configured fusion scheme; unfused trailing loops run untiled.

    In shared memory the global datasets carry the values from one sub-chain
    to the next.  In distributed mode the ranks are set up once, before the
    first sub-chain, and carry them in their own datasets; one gather after
    the last sub-chain writes them back into the global datasets.
    ``cache`` maps (chain fingerprint, ts, mode) to the schedules of earlier
    calls.  ``inspect_seconds`` counts the inspections this call ran, so a
    reused schedule counts zero; ``execute_seconds`` is the summed executor
    phases plus the untiled tail.  Partitioning, local set-up and gather
    count as neither.
    """
    cache = {} if cache is None else cache
    registry = registry or default_registry()
    mesh = build_mesh(cfg)
    n_loops = len(cfg.problem.loops)
    chain, datasets, bindings = global_setup(mesh, cfg.problem, cfg.depth)
    result = RunResult(mesh=mesh, chain=chain, values={})
    distributed = cfg.mode is ExecMode.DISTRIBUTED
    if distributed:
        by_subchain = setup_ranks(mesh, cfg.problem, cfg.nranks, cfg.fusion,
                                  cfg.depth)

    for i, sc in enumerate(cfg.fusion):
        if distributed:
            ranks = by_subchain[i]
            run_subchain(ranks, registry)
            result.inspect_seconds += sum(vr.schedule.stats.total_s
                                          for vr in ranks)
            ran = [Inspected(sc, vr.rank, vr.schedule, vr.report,
                             vr.local_mesh.sizes) for vr in ranks]
        else:
            sub = chain.subchain(sc.start, sc.stop)
            key = (sub.fingerprint, sc.tile_size, cfg.mode.value)
            if key not in cache:
                cache[key] = inspect_chain(sub, sc.tile_size, cfg.mode)
                result.inspect_seconds += cache[key].stats.total_s
            schedule = cache[key]
            report = execute_schedule(schedule, sub, bindings[sc.start:sc.stop],
                                      datasets, registry)
            ran = [Inspected(sc, None, schedule, report)]
        result.execute_seconds += sum(sum(e.report.phase_seconds.values())
                                      for e in ran)
        result.inspected += ran

    if distributed:
        for name, values in gather(mesh, cfg.problem, by_subchain[-1]).items():
            datasets[name].values[:] = values
    if cfg.fused_stop < n_loops:
        t0 = time.perf_counter()
        execute_untiled(chain.subchain(cfg.fused_stop, n_loops),
                        bindings[cfg.fused_stop:], datasets, registry)
        result.execute_seconds += time.perf_counter() - t0
    result.values = {name: ds.values.copy() for name, ds in datasets.items()}
    return result


def reference_values(cfg: RunConfig, mesh: Mesh) -> dict[str, np.ndarray]:
    """The unfused serial run on ``mesh`` that verify compares against."""
    chain, datasets, bindings = global_setup(mesh, cfg.problem, cfg.depth)
    execute_untiled(chain, bindings, datasets, default_registry())
    return {name: ds.values.copy() for name, ds in datasets.items()}


def compare_values(reference: dict[str, np.ndarray],
                   got: dict[str, np.ndarray]) -> list[tuple]:
    """The first 10 mismatches as (dataset, flat index, ref, got).

    Relative tolerance 1e-12; exact on integer data.
    """
    diffs = []
    for name in sorted(reference):
        ref, cand = reference[name], got[name]
        if integer_valued(ref):
            bad = np.flatnonzero(ref != cand)
        else:
            bad = np.flatnonzero(~np.isclose(cand, ref, rtol=1e-12, atol=0.0))
        for flat in bad[:10 - len(diffs)]:
            diffs.append((name, int(flat), float(ref[flat]), float(cand[flat])))
        if len(diffs) >= 10:
            break
    return diffs


def verify_config(cfg: RunConfig) -> RunResult:
    """Run tiled and untiled, raise VerificationError on any mismatch."""
    result = run_config(cfg)
    reference = reference_values(cfg, result.mesh)
    diffs = compare_values(reference, result.values)
    if diffs:
        listing = "; ".join(
            f"{name}[{idx}]: expected {ref}, got {got}"
            for name, idx, ref, got in diffs)
        raise VerificationError(f"tiled run diverges from untiled: {listing}")
    return result


def inspect_only(cfg: RunConfig) -> list[Inspected]:
    """Inspect every fused sub-chain as ``run_config`` does; no execution.

    In distributed mode that is every rank's local sub-chain, in rank order.
    """
    mesh = build_mesh(cfg)
    if cfg.mode is ExecMode.DISTRIBUTED:
        by_subchain = setup_ranks(mesh, cfg.problem, cfg.nranks, cfg.fusion,
                                  cfg.depth)
        return [Inspected(sc, vr.rank, vr.schedule, holds=vr.local_mesh.sizes)
                for sc, ranks in zip(cfg.fusion, by_subchain) for vr in ranks]
    chain, _, _ = global_setup(mesh, cfg.problem, cfg.depth)
    return [Inspected(sc, None, inspect_chain(chain.subchain(sc.start, sc.stop),
                                              sc.tile_size, cfg.mode))
            for sc in cfg.fusion]


def sweep_config(cfg: RunConfig, tile_sizes, modes, schemes=None):
    """Verify every ts x mode x fusion scheme; yield one run record each.

    A scheme without tile sizes, like the configured one, takes the ts.
    Every variant inspects afresh and is compared with one untiled
    reference, run on the first variant's mesh after that variant.
    """
    reference = None
    for scheme in schemes or [None]:
        text = scheme or ",".join(f"{sc.start}-{sc.stop - 1}" for sc in cfg.fusion)
        for ts in tile_sizes:
            for mode in modes:
                fusion = parse_fusion(text, len(cfg.problem.loops), ts)
                variant = dataclasses.replace(cfg, mode=mode, fusion=fusion)
                result = run_config(variant)
                if reference is None:
                    reference = reference_values(cfg, result.mesh)
                if compare_values(reference, result.values):
                    yield run_record(variant, None, "FAIL")
                else:
                    yield run_record(variant, result, "pass")


# -- records ------------------------------------------------------------------


def schedule_record(entry: Inspected) -> dict:
    """The record of one inspected schedule, with its run once it has run."""
    schedule, sc = entry.schedule, entry.subchain
    # the non-exec tile runs last
    sizes = [np.diff(tiling.bounds)[:-1].tolist() for tiling in schedule.tilings]
    phase, share = schedule.stats.dominant_phase()
    record = {
        "record": "schedule",
        "subchain": [sc.start, sc.stop - 1],  # inclusive, as in a fusion scheme
        "ts": sc.tile_size,
        "mode": schedule.mode.value,
        "rank": entry.rank,
        "holds": None if entry.holds is None else {
            space: dataclasses.asdict(sizes) for space, sizes in entry.holds.items()},
        "tiles": {r.name.lower(): int(np.count_nonzero(schedule.regions == r))
                  for r in Region},
        "colors": len(schedule.color_order),
        "recolor_rounds": schedule.recolor_rounds,
        "tile_sizes": [{"min": min(s), "mean": sum(s) / len(s), "max": max(s)}
                       for s in sizes],
        "inspect": dataclasses.asdict(schedule.stats),
        "dominant_phase": phase,
        "dominant_share": share,
        "backend": None if entry.report is None else entry.report.backend,
    }
    if entry.report is not None:
        record["execute"] = dict(entry.report.phase_seconds)
        record["tiles_per_color"] = {str(c): n for c, n in
                                     sorted(schedule.tiles_per_color.items())}
        record["bytes_exchanged"] = entry.report.bytes_exchanged
    return record


def run_record(cfg: RunConfig, result: RunResult | None,
               verify: str | None = None) -> dict:
    """The record of one run; ``result`` is None when a sweep variant failed."""
    return {
        "record": "run",
        "fusion": ",".join(f"{sc.start}-{sc.stop - 1}:{sc.tile_size}"
                           for sc in cfg.fusion),
        "mode": cfg.mode.value,
        "nranks": cfg.nranks if cfg.mode is ExecMode.DISTRIBUTED else None,
        "inspect_s": None if result is None else result.inspect_seconds,
        "execute_s": None if result is None else result.execute_seconds,
        "verify": verify,
    }


def write_records(records, out) -> None:
    """One JSON object per line."""
    for record in records:
        print(json.dumps(record), file=out)


def _write_outputs(cfg: RunConfig, result: RunResult) -> None:
    for path in (cfg.report_path, cfg.vtk_path):
        if path and os.path.dirname(path):
            os.makedirs(os.path.dirname(path), exist_ok=True)
    if cfg.report_path:
        with open(cfg.report_path, "w") as fh:
            write_records([*map(schedule_record, result.inspected),
                           run_record(cfg, result)], fh)
    if cfg.vtk_path:
        first = result.inspected[0]
        sub = result.chain.subchain(first.subchain.start, first.subchain.stop)
        export_vtk(first.schedule, sub, result.mesh, cfg.vtk_path)


def _build_argparser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="looptile",
                                  description="sparse tiling of mesh loop chains")
    sub = top.add_subparsers(dest="command", required=True)
    for name, blurb in (("run", "inspect and execute the configured chain"),
                        ("verify", "run tiled and untiled, diff the outputs"),
                        ("inspect-only", "inspect only, one schedule record each"),
                        ("sweep", "verify a grid of tile sizes, modes, schemes")):
        p = sub.add_parser(name, help=blurb)
        p.add_argument("config", help="path to an INI run configuration")
        if name == "sweep":
            p.add_argument("--tile-sizes", default="4,16,64",
                           help="comma-separated tile sizes")
            p.add_argument("--modes", default="sequential,shared",
                           help="comma-separated execution modes")
            p.add_argument("--schemes", default=None,
                           help="semicolon-separated fusion schemes")
    return top


def _flag_list(flag: str, parse, text: str) -> list:
    """Each comma-separated value of a sweep flag, parsed."""
    try:
        return [parse(t) for t in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"{flag}: {exc}") from None


def main(argv=None) -> int:
    args = _build_argparser().parse_args(argv)
    try:
        cfg = parse_config(args.config)
        if args.command == "run":
            result = run_config(cfg)
            _write_outputs(cfg, result)
            write_records([run_record(cfg, result)], sys.stdout)
        elif args.command == "verify":
            write_records([run_record(cfg, verify_config(cfg), "pass")], sys.stdout)
        elif args.command == "inspect-only":
            write_records(map(schedule_record, inspect_only(cfg)), sys.stdout)
        elif args.command == "sweep":
            tile_sizes = _flag_list("--tile-sizes", int, args.tile_sizes)
            modes = _flag_list("--modes", ExecMode.parse, args.modes)
            schemes = args.schemes.split(";") if args.schemes else None
            verdicts = []
            for record in sweep_config(cfg, tile_sizes, modes, schemes):
                write_records([record], sys.stdout)
                verdicts.append(record["verify"])
            if "FAIL" in verdicts:
                raise VerificationError(f"{verdicts.count('FAIL')} of {len(verdicts)} "
                                        f"sweep variants diverge from untiled")
    except DepthExceededError as exc:
        print(f"depth violation: {exc}", file=sys.stderr)
        return 4
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 3
    except CompileError as exc:
        print(f"compile error: {exc}", file=sys.stderr)
        return 5
    except (ConfigError, ExecutionError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, InspectionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
