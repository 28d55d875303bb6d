"""The benchmark's traced rounds run the code its untraced rounds time."""

import importlib.util
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import looptile.distsim as distsim
import looptile.executor as executor
import looptile.inspector as inspector
import looptile.mesh as mesh_mod
import looptile.problems as problems
from looptile.executor import execute_schedule
from looptile.inspector import ExecMode, inspect_chain
from looptile.problems import FIG2, default_registry, global_setup

from conftest import assert_values_equal, dataset_values

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counting_registry_counts_one_call_per_nonempty_color_loop(mesh_8x4):
    tracer = load_tracing().Tracer()
    counting = tracer.counting_registry(default_registry(),
                                        [spec.kernel for spec in FIG2.loops])
    chain, datasets, bindings = global_setup(mesh_8x4, FIG2, depth=3)
    uncounted = {name: ds.copy() for name, ds in datasets.items()}
    schedule = inspect_chain(chain, 7, ExecMode.SHARED)
    execute_schedule(schedule, chain, bindings, uncounted, default_registry())
    execute_schedule(schedule, chain, bindings, datasets, counting)
    assert_values_equal(dataset_values(uncounted), dataset_values(datasets))
    assert tracer.kernel_calls == len({
        (t.region, t.color, j) for t in schedule.executable_tiles()
        for j in range(len(chain.loops)) if len(t.iteration_lists[j])})


def test_traced_round_reports_every_metric():
    # the wrappers replace module attributes, so the round calls through them
    tracing = load_tracing()
    tracer = tracing.Tracer()
    registry = tracer.counting_registry(default_registry(),
                                        [spec.kernel for spec in FIG2.loops])
    tracer.install()
    try:
        mesh = mesh_mod.rcm_renumber(mesh_mod.generate_rect_mesh(8, 4))
        chain, datasets, bindings = problems.global_setup(mesh, FIG2, 3)
        schedule = inspector.inspect_chain(chain, 8, ExecMode.SHARED)
        executor.execute_schedule(schedule, chain, bindings, datasets, registry)
        distsim.run_distributed(mesh, FIG2, 2, 8, 3, registry)
    finally:
        tracer.uninstall()
    metrics = tracing.round_metrics(tracer)
    assert metrics.keys() == tracing.UNITS.keys()
    assert all(math.isfinite(value) for value in metrics.values())
    assert metrics["inspector.tiles"] > 0 and metrics["executor.iterations"] > 0
    assert metrics["distsim.exchanges"] > 0


WORKLOADS = ["eight-shared-inspect", "fig2-seq-steps", "eight-dist4"]


@pytest.mark.parametrize("workload,trace", [
    *(pytest.param(w, 0, id=w) for w in WORKLOADS),
    *(pytest.param(w, 1, id=f"{w}-traced") for w in WORKLOADS)])
def test_bench_run_smoke(workload, trace, tmp_path):
    # one round from a tree of its own: a copy of bench/ beside a link to the
    # sources, so traces land under tmp_path.  HOME keeps the C cache out of
    # the user's own.  A traced round calls through the wrappers the tracer
    # installs
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    before = bench_outputs(ROOT)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", str(trace)],
        cwd=tmp_path, env={**os.environ, "HOME": str(tmp_path)},
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0
    assert bench_outputs(ROOT) == before
    assert bool(bench_outputs(tmp_path)) == bool(trace)
    if trace and workload == "eight-dist4":
        metrics = last["metrics"]
        assert metrics["distsim.exchanges"]["value"] > 0
        assert metrics["executor.kernel_calls"]["value"] > 0


def bench_outputs(root: Path) -> dict[str, int]:
    """The files under ``root/.bench_out``, with their modification times."""
    return {p.name: p.stat().st_mtime_ns for p in (root / ".bench_out").glob("*")}
