"""The benchmark's traced rounds run the code its untraced rounds time."""

import importlib.util
from pathlib import Path

from looptile.executor import execute_schedule
from looptile.inspector import ExecMode, inspect_chain
from looptile.problems import FIG2, default_registry, global_setup

from conftest import assert_values_equal, dataset_values

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


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
