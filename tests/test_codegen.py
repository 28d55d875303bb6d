"""Compiled C (generated plans and the inspector's passes): compiling,
caching, safety checks and CLI errors."""

import copy
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from looptile import codegen, inspector
from looptile.cli import main
from looptile.errors import CompileError, ExecutionError, StaleScheduleError
from looptile.executor import KernelRegistry, check_bindings, execute_schedule
from looptile.inspector import ExecMode, LoopTiling, inspect_chain
from looptile.mesh import generate_rect_mesh
from looptile.problems import EIGHT_LOOP, FIG2, default_registry, global_setup

from conftest import assert_values_equal, dataset_values, numpy_registry

SRC = str(Path(__file__).resolve().parent.parent / "src")


def preset_sources():
    """The distinct C sources of every contiguous sub-chain of both presets."""
    registry = default_registry()
    mesh = generate_rect_mesh(2, 2)
    sources = set()
    for problem in (FIG2, EIGHT_LOOP):
        chain, datasets, bindings = global_setup(mesh, problem, len(problem.loops))
        n = len(chain.loops)
        for start in range(n):
            for stop in range(start + 1, n + 1):
                sub = chain.subchain(start, stop)
                sources.add(codegen.generate(
                    [registry.c_body(loop.kernel) for loop in sub.loops],
                    check_bindings(sub, bindings[start:stop], datasets, registry)[2]))
    return sorted(sources)


def test_every_preset_subchain_compiles_without_warnings(tmp_path):
    sources = preset_sources()
    files = []
    for i, source in enumerate(sources):
        files.append(tmp_path / f"chain{i}.c")
        files[-1].write_text(source)
    flags = [f for f in codegen.FLAGS if f != "-shared"]
    proc = subprocess.run([codegen.find_compiler(), *flags, "-Wall", "-Wextra",
                           "-Werror", "-c", *map(str, files)],
                          cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert len(list(tmp_path.glob("*.o"))) == len(sources)


def test_inspector_source_compiles_without_warnings(tmp_path):
    flags = [f for f in codegen.FLAGS if f != "-shared"]
    source = Path(inspector.__file__).with_name("inspector.c")
    proc = subprocess.run([codegen.find_compiler(), *flags, "-Wall", "-Wextra",
                           "-Werror", "-c", str(source), "-o", "inspector.o"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "inspector.o").exists()


def _fig2_run():
    chain, datasets, bindings = global_setup(generate_rect_mesh(4, 3), FIG2, depth=3)
    return inspect_chain(chain, 4, ExecMode.SHARED), chain, bindings, datasets


def test_c_body_writing_a_read_argument_is_a_compile_error():
    preset = default_registry()
    registry = KernelRegistry()
    for kernel_id in ("edge_inc", "cell_inc"):
        registry.register(kernel_id, *preset.get(kernel_id),
                          c=preset.c_body(kernel_id))
    # edge_read's second argument, the vertex values, is read
    registry.register("edge_read", *preset.get("edge_read"),
                      c="    a1[0] = a0[0];")
    schedule, chain, bindings, datasets = _fig2_run()
    before = dataset_values(datasets)
    with pytest.raises(CompileError, match="read-only"):
        execute_schedule(schedule, chain, bindings, datasets, registry)
    assert_values_equal(before, dataset_values(datasets))


@pytest.fixture
def no_loaded_code(monkeypatch):
    """A process that has loaded and cached no compiled code yet."""
    monkeypatch.setattr(codegen, "_RUNNERS", {})
    monkeypatch.setattr(inspector, "_LIB", None)


def test_inspection_compiles_once_per_compiler(tmp_path, monkeypatch, no_loaded_code):
    cache = tmp_path / "cache"
    monkeypatch.setattr(codegen, "CACHE_DIR", str(cache))
    mesh = generate_rect_mesh(4, 2)
    for problem in (FIG2, EIGHT_LOOP):
        chain, _, _ = global_setup(mesh, problem, len(problem.loops))
        for mode in (ExecMode.SEQUENTIAL, ExecMode.SHARED):
            inspect_chain(chain, 4, mode)
    assert [p.suffix for p in cache.iterdir()] == [".so"]


def test_missing_compiler_is_exit_code_5(tmp_path, monkeypatch, capsys,
                                         no_loaded_code):
    monkeypatch.setattr(codegen, "find_compiler", lambda: None)
    path = tmp_path / "fig2.ini"
    path.write_text("[mesh]\nnx = 4\nny = 2\n[chain]\npreset = fig2\ndepth = 3\n"
                    "[run]\nmode = shared\ntile_size = 4\n")
    assert main(["verify", str(path)]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("compile error: no C compiler")
    assert "Traceback" not in captured.err


def test_inspect_only_without_compiler_is_exit_code_5(tmp_path, monkeypatch, capsys,
                                                      no_loaded_code):
    monkeypatch.setattr(codegen, "find_compiler", lambda: None)
    path = tmp_path / "fig2.ini"
    path.write_text("[mesh]\nnx = 4\nny = 2\n[chain]\npreset = fig2\ndepth = 3\n"
                    "[run]\nmode = sequential\ntile_size = 4\n")
    assert main(["inspect-only", str(path)]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("compile error: no C compiler")
    assert "Traceback" not in captured.err


def test_cache_directory_must_be_private(tmp_path, monkeypatch):
    source = preset_sources()[0]
    fresh = tmp_path / "fresh" / "cache"
    monkeypatch.setattr(codegen, "CACHE_DIR", str(fresh))
    codegen.load(source)
    assert fresh.stat().st_mode & 0o777 == 0o700
    assert [p.suffix for p in fresh.iterdir()] == [".so"]

    shared = tmp_path / "shared"
    shared.mkdir()
    shared.chmod(0o775)
    monkeypatch.setattr(codegen, "CACHE_DIR", str(shared))
    with pytest.raises(CompileError, match="not private"):
        codegen.load(source)


def test_two_processes_compile_one_source_into_an_empty_cache(tmp_path):
    # the cache directory lies under HOME, here an empty one
    cache = tmp_path / ".cache" / "looptile"
    source = tmp_path / "chain.c"
    source.write_text(preset_sources()[-1])
    script = ("import ctypes, sys\n"
              "from looptile import codegen\n"
              "lib = codegen.load(open(sys.argv[1]).read())\n"
              "fn = getattr(lib, codegen.SYMBOL)\n"
              "fn.argtypes, fn.restype = codegen.RUNNER_ARGTYPES, None\n"
              "# no runs: every pointer NULL, every count 0\n"
              "fn(*(0 if t is ctypes.c_int64 else None\n"
              "     for t in codegen.RUNNER_ARGTYPES))\n")
    env = dict(os.environ, PYTHONPATH=SRC, HOME=str(tmp_path))
    procs = [subprocess.Popen([sys.executable, "-c", script, str(source)],
                              env=env, stderr=subprocess.PIPE, text=True)
             for _ in range(2)]
    for proc in procs:
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
    assert [p.suffix for p in cache.iterdir()] == [".so"]


@pytest.mark.parametrize("registry", [default_registry(), numpy_registry()],
                         ids=["c", "numpy"])
@pytest.mark.parametrize("fault", ["element", "short_dataset"])
def test_out_of_range_slot_raises_before_any_dataset_changes(registry, fault):
    # loops 0 and 1 would change vertex_acc if anything ran
    schedule, chain, bindings, datasets = _fig2_run()
    if fault == "element":
        # loop 2 lists an edge past the end of its space
        tiling = schedule.tilings[2]
        elements = tiling.elements.copy()
        elements[-1] = chain.loops[2].space.total
        schedule = dataclasses.replace(schedule, tilings=(
            *schedule.tilings[:2], LoopTiling(elements, tiling.bounds, dict(tiling.rows))))
        match = "loop 2: argument 0 .* 'edge_out'"
    else:
        # one value short: loop 0's increment through e2v would run off it
        datasets["vertex_acc"].values = datasets["vertex_acc"].values[:-1].copy()
        match = "loop 0: argument 1 .* 'vertex_acc'"
    before = dataset_values(datasets)
    with pytest.raises(ExecutionError, match=match):
        execute_schedule(schedule, chain, bindings, datasets, registry)
    assert_values_equal(before, dataset_values(datasets))


def test_malformed_tilings_are_stale_before_any_c_runs(registry):
    schedule, chain, bindings, datasets = _fig2_run()
    tiling = schedule.tilings[0]
    bounds = tiling.bounds.copy()
    bounds[1] = bounds[-1] + 1  # a tile running past the end of the list
    with pytest.raises(StaleScheduleError, match="bounds"):
        dataclasses.replace(schedule, tilings=(
            LoopTiling(tiling.elements, bounds, dict(tiling.rows)),
            *schedule.tilings[1:]))
    # loop 2's e2v rows read as one column: C would index past each row, and
    # numpy steps would run loops 0-1 first
    tiling = schedule.tilings[2]
    rows = {"e2v": tiling.rows["e2v"][:, :1].copy()}
    narrow = dataclasses.replace(schedule, tilings=(
        *schedule.tilings[:2], LoopTiling(tiling.elements, tiling.bounds, rows)))
    before = dataset_values(datasets)
    for reg in (registry, numpy_registry()):
        with pytest.raises(StaleScheduleError, match="arity 2"):
            execute_schedule(narrow, chain, bindings, datasets, reg)
    assert_values_equal(before, dataset_values(datasets))


@pytest.mark.parametrize("registry", [default_registry(), numpy_registry()],
                         ids=["c", "numpy"])
def test_tiling_without_rows_of_a_read_map_is_stale(registry):
    # loop 2 reads vertex_acc through e2v, but its tiling holds no e2v rows
    schedule, chain, bindings, datasets = _fig2_run()
    tiling = schedule.tilings[2]
    rowless = dataclasses.replace(schedule, tilings=(
        *schedule.tilings[:2], LoopTiling(tiling.elements, tiling.bounds, {})))
    before = dataset_values(datasets)
    with pytest.raises(StaleScheduleError, match="loop 2: .*'e2v'"):
        execute_schedule(rowless, chain, bindings, datasets, registry)
    assert_values_equal(before, dataset_values(datasets))


@pytest.mark.parametrize("registry", [default_registry(), numpy_registry()],
                         ids=["c", "numpy"])
def test_tilings_of_other_index_layouts_run_equal(registry):
    # int32 strided elements and rows, int32 bounds, and deep copies: each
    # tiling holds int64 C-contiguous read-only arrays at its recorded addresses
    schedule, chain, _, _ = _fig2_run()

    def strided(a):
        wide = np.zeros((2 * len(a), *a.shape[1:]), np.int32)
        wide[::2] = a
        return wide[::2]

    rebuilt = [LoopTiling(strided(t.elements), t.bounds.astype(np.int32),
                          {name: strided(r) for name, r in t.rows.items()})
               for t in schedule.tilings]
    runs = []
    for tilings in (schedule.tilings, rebuilt, copy.deepcopy(schedule.tilings)):
        for t in tilings:
            arrays = {None: t.elements, **t.rows}
            for a in (t.bounds, *arrays.values()):
                assert a.dtype == np.int64 and a.flags.c_contiguous
                assert not a.flags.writeable
            assert t.addresses == {key: a.ctypes.data for key, a in arrays.items()}
            assert t.bounds_address == t.bounds.ctypes.data
        chain, datasets, bindings = global_setup(generate_rect_mesh(4, 3), FIG2, depth=3)
        execute_schedule(dataclasses.replace(schedule, tilings=tuple(tilings)),
                         chain, bindings, datasets, registry)
        runs.append(dataset_values(datasets))
    assert_values_equal(runs[0], runs[1])
    assert_values_equal(runs[0], runs[2])
