import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from looptile.chain import AccessMode, Region
from looptile.cli import (Inspected, build_mesh, compare_values,
                          main, reference_values, run_config, schedule_record,
                          verify_config, inspect_only, sweep_config)
from looptile.config import ConfigError, SubChain, parse_config
from looptile.errors import VerificationError
from looptile.executor import execute_schedule
from looptile.inspector import ExecMode, build_schedule, inspect_chain
from looptile.mesh import generate_rect_mesh, rcm_renumber
from looptile.partition import partition_for_ranks
from looptile.problems import (FIG2, AccessSpec, DatasetSpec, LoopSpec,
                               Problem, global_setup)
from looptile.vtk import export_vtk, parse_vtk

from conftest import dataset_values, numpy_registry


def write_config(tmp_path, body, name="run.ini"):
    path = tmp_path / name
    path.write_text(body)
    return str(path)


FIG2_INI = """
[mesh]
nx = 8
ny = 4
renumber = rcm

[chain]
preset = fig2
depth = 3

[run]
mode = {mode}
tile_size = {ts}
{extra}
"""


def test_parse_config_roundtrip(tmp_path):
    path = write_config(tmp_path, FIG2_INI.format(mode="shared", ts=16, extra=""))
    cfg = parse_config(path)
    assert (cfg.nx, cfg.ny, cfg.renumber) == (8, 4, True)
    assert cfg.problem.name == "fig2"
    assert cfg.mode is ExecMode.SHARED
    assert cfg.fusion[0].start == 0 and cfg.fusion[0].stop == 3


def test_missing_file_and_bad_values_are_config_errors(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(str(tmp_path / "nope.ini"))
    path = write_config(tmp_path, "[mesh]\nnx = panther\nny = 1\n")
    with pytest.raises(ConfigError):
        parse_config(path)
    path = write_config(tmp_path, FIG2_INI.format(
        mode="shared", ts=16, extra="fusion = 1-2:4"))
    with pytest.raises(ConfigError, match="prefix"):
        parse_config(path)


def test_distributed_fusion_deeper_than_halo_is_depth_error(tmp_path, capsys):
    # the config parses; every command stops at the first inspection
    path = write_config(tmp_path, FIG2_INI.format(
        mode="distributed", ts=8, extra="fusion = 0-2:8\nnranks = 2").replace(
            "depth = 3", "depth = 2"))
    parse_config(path)
    for argv in (["run", path], ["verify", path], ["inspect-only", path],
                 ["sweep", path, "--modes", "distributed"]):
        assert main(argv) == 4, argv
        out, err = capsys.readouterr()
        assert out == "", argv
        assert err.startswith("depth violation: 3 loops exceed halo depth 2"), argv


def test_explicit_chain_config(tmp_path):
    body = """
[mesh]
nx = 3
ny = 2
renumber = none

[chain]
depth = 2

[loops]
0 = edges edge_inc r@-:edge_w, i@e2v:vertex_acc
1 = edges edge_read w@-:edge_out, r@e2v:vertex_acc

[datasets]
edge_w = edges 1 ramp
vertex_acc = verts 1 zeros
edge_out = edges 1 zeros

[run]
mode = sequential
tile_size = 4
"""
    cfg = parse_config(write_config(tmp_path, body))
    assert len(cfg.problem.loops) == 2
    assert cfg.problem.loops[1].accesses[0].mode is AccessMode.WRITE
    verify_config(cfg)


@pytest.mark.parametrize("mode", ["sequential", "shared", "distributed"])
def test_verify_passes_for_fig2(tmp_path, mode):
    extra = "nranks = 2" if mode == "distributed" else ""
    cfg = parse_config(write_config(
        tmp_path, FIG2_INI.format(mode=mode, ts=16, extra=extra)))
    result = verify_config(cfg)
    assert set(result.values) == {"edge_w", "cell_w", "vertex_acc", "edge_out"}


def test_two_subchains_hit_the_cache_on_second_run(tmp_path):
    cfg = parse_config(write_config(tmp_path, FIG2_INI.format(
        mode="shared", ts=16, extra="fusion = 0-1:8,2-2:8")))
    cache = {}
    first = run_config(cfg, cache)
    assert len(cache) == 2
    second = run_config(cfg, cache)
    assert len(cache) == 2
    assert first.inspect_seconds > 0 and second.inspect_seconds == 0
    assert [e.schedule for e in first.inspected] == [
        e.schedule for e in second.inspected]
    for name in first.values:
        np.testing.assert_array_equal(first.values[name], second.values[name])


@pytest.mark.parametrize("mode", ["sequential", "shared", "distributed"])
def test_execute_time_is_the_executor_phases(tmp_path, mode):
    # partitioning, local set-up and gather are not execution
    cfg = parse_config(write_config(tmp_path, FIG2_INI.format(
        mode=mode, ts=8, extra="fusion = 0-1:8,2-2:8\nnranks = 2")))
    result = run_config(cfg)
    assert len(result.inspected) == 2 * (2 if mode == "distributed" else 1)
    phases = sum(sum(e.report.phase_seconds.values()) for e in result.inspected)
    assert result.execute_seconds == pytest.approx(phases, rel=1e-12)
    assert result.inspect_seconds == pytest.approx(
        sum(e.schedule.stats.total_s for e in result.inspected), rel=1e-12)

    # an unfused tail loop runs untiled, and that counts as execution too
    cfg = parse_config(write_config(tmp_path, FIG2_INI.format(
        mode=mode, ts=8, extra="fusion = 0-1:8\nnranks = 2")))
    result = run_config(cfg)
    phases = sum(sum(e.report.phase_seconds.values()) for e in result.inspected)
    assert result.execute_seconds > phases
    assert compare_values(reference_values(cfg, result.mesh), result.values) == []


@pytest.mark.parametrize("mode", ["sequential", "shared", "distributed"])
def test_inspect_only_shows_the_schedules_run_executes(tmp_path, mode):
    cfg = parse_config(write_config(tmp_path, FIG2_INI.format(
        mode=mode, ts=8, extra="fusion = 0-1:8,2-2:4\nnranks = 3")))
    inspected = inspect_only(cfg)
    ran = run_config(cfg).inspected
    assert ([e.schedule.serialize() for e in inspected]
            == [e.schedule.serialize() for e in ran])
    assert ([(e.subchain, e.rank) for e in inspected]
            == [(e.subchain, e.rank) for e in ran])
    records = [schedule_record(e) for e in inspected]
    for entry, record in zip(inspected, records):
        executable = entry.schedule.executable_tiles()
        sizes = [[len(t.iteration_lists[j]) for t in executable]
                 for j in range(entry.schedule.n_loops)]
        assert record["tile_sizes"] == [
            {"min": min(s), "mean": sum(s) / len(s), "max": max(s)} for s in sizes]
    if mode == "distributed":
        assert [e.rank for e in inspected] == [0, 1, 2] * 2
        assert all(e.schedule.mode is ExecMode.DISTRIBUTED for e in inspected)
        local_meshes = partition_for_ranks(
            rcm_renumber(generate_rect_mesh(8, 4)), 3, cfg.depth)
        for entry, record in zip(inspected, records):
            sizes = local_meshes[entry.rank].sizes
            assert entry.holds == sizes
            assert record["holds"] == {
                space: {"core": s.core, "owned": s.owned, "exec": s.exec,
                        "nonexec": s.nonexec} for space, s in sizes.items()}
    else:
        assert all(record["holds"] is None for record in records)


def test_unfused_tail_loops_run_untiled(tmp_path):
    cfg = parse_config(write_config(tmp_path, FIG2_INI.format(
        mode="shared", ts=16, extra="fusion = 0-1:8")))
    result = run_config(cfg)
    reference = reference_values(cfg, result.mesh)
    assert compare_values(reference, result.values) == []


def test_single_loop_subchains_are_valid(tmp_path):
    cfg = parse_config(write_config(tmp_path, FIG2_INI.format(
        mode="shared", ts=16, extra="fusion = 0-0:4,1-2:8")))
    verify_config(cfg)


def test_identical_configs_produce_identical_outputs_and_vtk(tmp_path):
    results, written = [], []
    for name in ("a", "b"):
        out = tmp_path / f"{name}.vtk"
        path = write_config(tmp_path, FIG2_INI.format(
            mode="shared", ts=8, extra=f"\n[output]\nvtk = {out}"), name=f"{name}.ini")
        results.append(run_config(parse_config(path)))
        assert main(["run", path]) == 0
        written.append(out.read_bytes())
    for name in results[0].values:
        np.testing.assert_array_equal(results[0].values[name], results[1].values[name])
    assert written[0] == written[1]


CELL_SEEDED = Problem(
    "cellseed",
    loops=(LoopSpec("cells", "cell_inc",
                    (AccessSpec(None, AccessMode.READ, "cell_w"),
                     AccessSpec("c2v", AccessMode.INC, "vertex_acc"))),),
    datasets=(DatasetSpec("cell_w", "cells", 1, "ramp"),
              DatasetSpec("vertex_acc", "verts", 1, "zeros")))


def test_vtk_single_tile_schedule(tmp_path):
    mesh = generate_rect_mesh(2, 2)
    chain, _, _ = global_setup(mesh, CELL_SEEDED, depth=1)
    schedule = inspect_chain(chain, 1000, ExecMode.SHARED)
    path = tmp_path / "one.vtk"
    export_vtk(schedule, chain, mesh, str(path))
    parsed = parse_vtk(str(path))
    assert np.all(parsed["cell_data"]["tile_id"] == 0)


def test_vtk_four_tiles_three_colors(tmp_path):
    # four seed partitions where two non-adjacent tiles share a color
    mesh = generate_rect_mesh(2, 3)
    chain, _, _ = global_setup(mesh, CELL_SEEDED, depth=1)
    schedule = inspect_chain(chain, 3, ExecMode.SHARED)
    path = tmp_path / "four.vtk"
    export_vtk(schedule, chain, mesh, str(path))
    parsed = parse_vtk(str(path))
    assert len(np.unique(parsed["cell_data"]["tile_id"])) == 4
    assert len(np.unique(parsed["cell_data"]["color"])) == 3


def test_vtk_counts_match_mesh_sizes(tmp_path):
    path = str(tmp_path / "tiles.vtk")
    config = write_config(tmp_path, FIG2_INI.format(
        mode="shared", ts=8, extra=f"\n[output]\nvtk = {path}"))
    assert main(["run", config]) == 0
    cfg = parse_config(config)
    parsed = parse_vtk(path)
    mesh = generate_rect_mesh(8, 4)
    assert len(parsed["points"]) == mesh.num_vertices
    assert len(parsed["cells"]) == mesh.num_cells
    assert set(parsed["cell_data"]) == {"tile_id", "color"}
    schedule = inspect_only(cfg)[0].schedule
    tile_of = schedule.tile_of(1, mesh.num_cells)
    assert np.array_equal(parsed["cell_data"]["tile_id"], tile_of)


def test_corrupted_schedule_fails_verification(registry, mesh_8x4):
    # moving one iteration into an earlier-colored tile breaks legality and
    # must be caught by the output diff
    chain, datasets, bindings = global_setup(mesh_8x4, FIG2, depth=3)
    schedule = inspect_chain(chain, 6, ExecMode.SHARED)
    tiles = sorted(schedule.executable_tiles(), key=lambda t: t.color)
    lo, hi = tiles[0], tiles[-1]
    assert lo.color < hi.color
    sigmas = [schedule.tile_of(j, loop.space.total)
              for j, loop in enumerate(chain.loops)]
    sigmas[2][hi.iteration_lists[2][0]] = lo.id
    corrupted = build_schedule(chain, schedule.mode, schedule.regions,
                               schedule.colors, sigmas, schedule.recolor_rounds)
    moved_to = corrupted.tiles[lo.id].iteration_lists[2]
    assert len(moved_to) == len(lo.iteration_lists[2]) + 1
    execute_schedule(corrupted, chain, bindings, datasets, registry)

    chain2, datasets2, bindings2 = global_setup(mesh_8x4, FIG2, depth=3)
    from looptile.executor import execute_untiled
    execute_untiled(chain2, bindings2, datasets2, registry)
    reference = dataset_values(datasets2)
    diffs = compare_values(reference, dataset_values(datasets))
    assert diffs, "legality violation went unnoticed by the oracle diff"


def test_sweep_emits_a_row_per_combination(tmp_path):
    cfg = parse_config(write_config(tmp_path, FIG2_INI.format(
        mode="shared", ts=8, extra="")))
    rows = list(sweep_config(cfg, tile_sizes=[4, 16],
                             modes=[ExecMode.SEQUENTIAL, ExecMode.SHARED]))
    assert [(r["fusion"], r["mode"]) for r in rows] == [
        ("0-2:4", "sequential"), ("0-2:4", "shared"),
        ("0-2:16", "sequential"), ("0-2:16", "shared")]
    assert all(r["record"] == "run" and r["verify"] == "pass" for r in rows)
    assert all(r["inspect_s"] > 0 and r["execute_s"] > 0 for r in rows)


def test_sweep_runs_one_untiled_reference(tmp_path, monkeypatch):
    import looptile.cli as cli

    calls = []
    original = cli.reference_values

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(cli, "reference_values", counted)
    cfg = parse_config(write_config(tmp_path, FIG2_INI.format(
        mode="shared", ts=8, extra="")))
    rows = list(sweep_config(cfg, tile_sizes=[4, 16],
                             modes=[ExecMode.SEQUENTIAL, ExecMode.SHARED]))
    assert len(rows) == 4 and len(calls) == 1
    assert all(r["verify"] == "pass" for r in rows)


@pytest.mark.parametrize("flag,value,reason", [
    ("--tile-sizes", "x", "invalid literal for int()"),
    ("--modes", "bogus", "unknown execution mode 'bogus'"),
], ids=["tile-size", "mode"])
def test_bad_sweep_flag_values_are_config_errors(tmp_path, capsys, flag, value,
                                                 reason):
    path = write_config(tmp_path, FIG2_INI.format(mode="shared", ts=8, extra=""))
    assert main(["sweep", path, flag, value]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {flag}: ")
    assert reason in err
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err


EIGHT_INI = """
[mesh]
nx = 4
ny = 2
renumber = rcm

[chain]
preset = eight_loop
depth = 8

[run]
mode = shared
tile_size = 8
"""


def test_five_scheme_sweep_over_eight_loop_chain(tmp_path, capsys):
    # varying fusion aggressiveness, from no fusion beyond pairs up to
    # one chain fusing everything
    path = write_config(tmp_path, EIGHT_INI)
    schemes = [
        "0-1,2-3,4-5,6-7",
        "0-3,4-7",
        "0-2,3-5,6-7",
        "0-5,6-7",
        "0-7",
    ]
    assert main(["sweep", path, "--tile-sizes", "8", "--modes", "shared",
                 "--schemes", ";".join(schemes)]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [r["fusion"] for r in rows] == [
        ",".join(f"{span}:8" for span in s.split(",")) for s in schemes]
    assert all(r["mode"] == "shared" and r["verify"] == "pass" for r in rows)


def test_compare_values_tolerates_float_noise():
    ref = {"a": np.array([0.5, 1.5])}
    close = {"a": np.array([0.5 * (1 + 1e-14), 1.5])}
    far = {"a": np.array([0.5 * (1 + 1e-9), 1.5])}
    assert compare_values(ref, close) == []
    assert compare_values(ref, far) != []
    # integer-valued data is compared exactly
    ref_int = {"a": np.array([2.0, 3.0])}
    off = {"a": np.array([2.0 + 1e-14, 3.0])}
    assert compare_values(ref_int, off) != []


def test_main_exit_codes(tmp_path, monkeypatch, capsys):
    good = write_config(tmp_path, FIG2_INI.format(mode="shared", ts=16, extra=""))
    assert main(["verify", good]) == 0
    assert main(["run", good]) == 0
    assert main(["inspect-only", good]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [r["record"] for r in records] == ["run", "run", "schedule"]
    assert records[0]["verify"] == "pass" and records[1]["verify"] is None
    phases = {k: v for k, v in records[2]["inspect"].items() if k != "total_s"}
    assert (records[2]["inspect"][records[2]["dominant_phase"] + "_s"]
            == max(phases.values()))

    missing = str(tmp_path / "missing.ini")
    assert main(["verify", missing]) == 2

    deep = write_config(tmp_path, FIG2_INI.format(
        mode="distributed", ts=8, extra="nranks = 2").replace(
            "depth = 3", "depth = 2"), name="deep.ini")
    assert main(["run", deep]) == 4

    def fail(cfg, cache=None):
        raise VerificationError("injected mismatch")

    monkeypatch.setattr("looptile.cli.run_config", fail)
    assert main(["verify", good]) == 3


EXPLICIT_INI = """
[mesh]
nx = 3
ny = 2
renumber = none

[chain]
depth = 2

[loops]
{loops}

[datasets]
edge_w = edges 1 ramp
edge_w3 = edges 3 ramp
cell_w = cells 1 ramp
vertex_acc = verts 1 zeros

[run]
mode = sequential
tile_size = 4
"""


@pytest.mark.parametrize("loops,code,prefix", [
    # unregistered kernel: the executor rejects the binding
    ("0 = edges nosuch r@-:edge_w, i@e2v:vertex_acc", 2, "config error: "),
    # the second loop shares no space with the first: inspection fails
    ("0 = edges edge_inc i@-:edge_w\n1 = cells cell_inc i@-:cell_w", 1, "error: "),
    # a 3-wide input into a 1-wide increment: the numpy body rejects the widths
    ("0 = edges edge_inc r@-:edge_w3, i@e2v:vertex_acc", 2,
     "config error: loop 0: kernel 'edge_inc' rejects arguments of shapes "
     "(n, 3), (n, 2, 1): "),
])
def test_main_reports_execution_and_inspection_errors(tmp_path, capsys, loops,
                                                      code, prefix):
    path = write_config(tmp_path, EXPLICIT_INI.format(loops=loops))
    assert main(["verify", path]) == code
    err = capsys.readouterr().err
    assert err.startswith(prefix)
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err


REJECTED_INI = """
[mesh]
nx = 8
ny = 4
renumber = rcm

[chain]
depth = 1

[loops]
0 = {loop}

[datasets]
ew = edges 1 ramp
v = verts 1 ramp

[run]
mode = {mode}
tile_size = 4
"""


@pytest.mark.parametrize("mode", ["sequential", "shared", "distributed"])
@pytest.mark.parametrize("loop,reason", [
    ("cells cell_inc r@c2v:v, i@c2v:v", "'v' is written and bound"),
    ("edges edge_inc r@-:ew, w@e2v:v", "'v' is written through map 'e2v'"),
], ids=["aliased-increment", "mapped-write"])
def test_bindings_no_order_can_run_are_config_errors(tmp_path, capsys, mode,
                                                     loop, reason):
    path = write_config(tmp_path, REJECTED_INI.format(loop=loop, mode=mode))
    assert main(["verify", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: loop 0: dataset ")
    assert reason in err
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err


GOOD_LOOPS = "0 = edges edge_inc r@-:edge_w, i@e2v:vertex_acc"


@pytest.mark.parametrize("old,new,where", [
    ("i@e2v:", "i@x2v:", "[loops] 0: unknown map 'x2v'"),
    ("0 = edges", "0 = faces", "[loops] 0: unknown space 'faces'"),
    ("i@e2v:", "i@c2v:", "[loops] 0: map 'c2v' starts on 'cells', not 'edges'"),
    ("cell_w = cells 1 ramp", "cell_w = nodes 1 ramp",
     "[datasets] cell_w: unknown space 'nodes'"),
    ("cell_w = cells 1 ramp", "cell_w = cells 1 rampz",
     "[datasets] cell_w: unknown initializer 'rampz'"),
    ("cell_w = cells 1 ramp", "cell_w = cells 0 ramp",
     "[datasets] cell_w: values per element must be >= 1"),
    (GOOD_LOOPS, "", "[loops] lists no loop"),
], ids=["map", "loop-space", "map-source", "dataset-space", "initializer",
        "zero-width", "no-loop"])
def test_bad_names_in_explicit_chain_are_config_errors(tmp_path, capsys,
                                                             old, new, where):
    body = EXPLICIT_INI.format(loops=GOOD_LOOPS)
    assert old in body
    path = write_config(tmp_path, body.replace(old, new))
    assert main(["verify", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {where}")
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("mode,old,new,where", [
    ("shared", "nx = 8", "nx = 0", "[mesh] nx"),
    ("shared", "ny = 4", "ny = -1", "[mesh] ny"),
    ("shared", "depth = 3", "depth = 0", "[chain] depth"),
    ("distributed", "nranks = 2", "nranks = 0", "[run] nranks"),
    ("distributed", "nranks = 2", "nranks = 65", "[run] nranks"),  # 64 cells
], ids=["nx", "ny", "depth", "no-ranks", "more-ranks-than-cells"])
def test_out_of_range_values_are_config_errors(tmp_path, capsys, mode, old,
                                               new, where):
    body = FIG2_INI.format(mode=mode, ts=8, extra="nranks = 2")
    assert old in body
    assert main(["verify", write_config(tmp_path, body.replace(old, new))]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {where} ")
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["run", "verify", "inspect-only", "sweep"])
@pytest.mark.parametrize("old,new,reason", [
    ("cell_w = cells 1 ramp", "cell_w = cells 1 ramp\nCELL_W = cells 1 ramp",
     "option 'cell_w' in section 'datasets' already exists"),
    ("[mesh]", "[mesh", "File contains no section headers."),
    ("[run]", "[run", "Source contains parsing errors:"),
    ("[mesh]", "nx = 3\n[mesh]", "File contains no section headers."),
], ids=["repeated-key", "unclosed-first-header", "unclosed-header",
        "key-before-section"])
def test_malformed_ini_files_are_config_errors(tmp_path, capsys, command, old,
                                               new, reason):
    body = EXPLICIT_INI.format(loops=GOOD_LOOPS)
    assert old in body
    path = write_config(tmp_path, body.replace(old, new))
    assert main([command, path]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"config error: {path}: ")
    assert reason in err
    assert len(err.splitlines()) == 1


def test_sweep_with_a_failed_variant_exits_3(tmp_path, capsys):
    # depth 1 admits one fused loop, but it leaves every halo edge non-exec,
    # so vertices at the cut miss the increments of the other rank's edges
    path = write_config(tmp_path, FIG2_INI.format(
        mode="distributed", ts=8, extra="nranks = 2").replace(
            "nx = 8\nny = 4", "nx = 16\nny = 8").replace("depth = 3", "depth = 1"))
    assert main(["sweep", path, "--modes", "distributed,sequential",
                 "--tile-sizes", "8", "--schemes", "0-0"]) == 3
    out, err = capsys.readouterr()
    rows = _records(out)
    assert [(r["mode"], r["verify"]) for r in rows] == [
        ("distributed", "FAIL"), ("sequential", "pass")]
    assert err == ("verification failure: 1 of 2 sweep variants diverge "
                   "from untiled\n")


def test_dataset_names_are_case_insensitive(tmp_path, capsys):
    # configparser lowercases [datasets] names; accesses must match them
    body = EXPLICIT_INI.format(loops=GOOD_LOOPS.replace(":edge_w", ":Edge_w"))
    path = write_config(tmp_path, body.replace("edge_w = ", "Edge_W = "))
    assert main(["verify", path]) == 0
    assert _records(capsys.readouterr().out)[0]["verify"] == "pass"


def test_run_writes_the_vtk_of_the_schedule_it_executed(tmp_path, monkeypatch):
    import looptile.cli as cli

    calls = []
    original = cli.inspect_chain

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(cli, "inspect_chain", counted)
    monkeypatch.chdir(tmp_path)
    config = str(Path(__file__).resolve().parents[1] / "configs" / "fig2.ini")
    assert main(["run", config]) == 0
    assert len(calls) == 1
    cfg = parse_config(config)
    mesh = build_mesh(cfg)
    sc = cfg.fusion[0]
    sub = global_setup(mesh, cfg.problem, cfg.depth)[0].subchain(sc.start, sc.stop)
    export_vtk(inspect_chain(sub, sc.tile_size, cfg.mode), sub, mesh, "again.vtk")
    written = tmp_path / "out" / "fig2_tiles.vtk"
    assert written.read_bytes() == (tmp_path / "again.vtk").read_bytes()


@pytest.mark.parametrize("command", ["run", "verify", "sweep"])
def test_vtk_output_in_distributed_mode_is_a_config_error(tmp_path, capsys,
                                                          command):
    path = write_config(tmp_path, FIG2_INI.format(
        mode="distributed", ts=8,
        extra=f"nranks = 2\n[output]\nvtk = {tmp_path / 'd.vtk'}"))
    assert main([command, path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: [output] vtk")
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "d.vtk").exists()


def test_vtk_output_without_a_cells_loop_is_a_config_error(tmp_path, capsys):
    # FIG2's first sub-chain 0-0 runs over edges only
    report, vtk_path = tmp_path / "r.jsonl", tmp_path / "t.vtk"
    path = write_config(tmp_path, FIG2_INI.format(
        mode="shared", ts=8, extra=f"fusion = 0-0,1-2\n[output]\n"
                                   f"report = {report}\nvtk = {vtk_path}"))
    assert main(["run", path]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: [output] vtk")
    assert "sub-chain 0-0" in captured.err
    assert len(captured.err.splitlines()) == 1
    assert captured.out == ""
    assert not report.exists() and not vtk_path.exists()


def test_recoloring_guard_trips_on_nonconvergence(monkeypatch, mesh_8x4):
    # a coloring that ignores fake connections can never resolve conflicts
    from looptile import inspector as insp
    from looptile.errors import ColoringLimitError

    def stubborn(regions, pairs, mode):
        return (regions == Region.NONEXEC).astype(np.int64)

    monkeypatch.setattr(insp, "color_tiles", stubborn)
    chain, _, _ = global_setup(mesh_8x4, FIG2, depth=3)
    with pytest.raises(ColoringLimitError):
        insp.inspect_chain(chain, 4, ExecMode.SHARED)


def test_export_vtk_to_unwritable_path_raises(tmp_path):
    mesh = generate_rect_mesh(2, 2)
    chain, _, _ = global_setup(mesh, CELL_SEEDED, depth=1)
    schedule = inspect_chain(chain, 4, ExecMode.SEQUENTIAL)
    with pytest.raises(OSError):
        export_vtk(schedule, chain, mesh, str(tmp_path))  # a directory


def test_main_writes_configured_outputs(tmp_path):
    report = tmp_path / "out" / "report.jsonl"
    vtk_path = tmp_path / "out" / "tiles.vtk"
    extra = f"fusion = 0-1:8,2-2:8\n[output]\nreport = {report}\nvtk = {vtk_path}"
    cfg_path = write_config(tmp_path, FIG2_INI.format(mode="shared", ts=16,
                                                      extra=extra))
    assert main(["run", cfg_path]) == 0
    records = [json.loads(line) for line in report.read_text().splitlines()]
    assert [r["record"] for r in records] == ["schedule", "schedule", "run"]
    assert [r["subchain"] for r in records[:2]] == [[0, 1], [2, 2]]
    assert all(set(r["execute"]) == {"core", "exchange_wait", "boundary"}
               for r in records[:2])
    assert records[2]["execute_s"] == pytest.approx(
        sum(sum(r["execute"].values()) for r in records[:2]), rel=1e-12)
    assert vtk_path.exists()


def test_schedule_record_carries_the_execution_report(registry):
    mesh = generate_rect_mesh(2, 2)
    chain, datasets, bindings = global_setup(mesh, FIG2, depth=3)
    schedule = inspect_chain(chain, 3, ExecMode.SEQUENTIAL)
    for backend, kernels in (("c", registry), ("numpy", numpy_registry())):
        report = execute_schedule(schedule, chain, bindings, datasets, kernels)
        record = schedule_record(Inspected(SubChain(0, 3, 3), None, schedule, report))
        assert json.loads(json.dumps(record)) == record
        assert record["execute"] == report.phase_seconds
        assert record["bytes_exchanged"] == 0
        assert record["backend"] == report.backend == backend
    assert sum(record["tiles_per_color"].values()) == len(
        schedule.executable_tiles())
    assert record["inspect"]["seed_s"] == schedule.stats.seed_s
    unrun = schedule_record(Inspected(SubChain(0, 3, 3), None, schedule))
    assert "execute" not in unrun
    assert unrun["backend"] is None


def _records(text):
    records = [json.loads(line) for line in text.splitlines()]
    assert records and all(r["record"] in ("run", "schedule") for r in records)
    return records


@pytest.mark.parametrize("mode", ["shared", "distributed"])
def test_every_output_line_is_a_record(tmp_path, capsys, mode):
    report = tmp_path / "report.jsonl"
    path = write_config(tmp_path, FIG2_INI.format(
        mode=mode, ts=8, extra=f"nranks = 2\n[output]\nreport = {report}"))
    for argv in (["run", path], ["verify", path], ["inspect-only", path],
                 ["sweep", path, "--tile-sizes", "8", "--modes", mode]):
        assert main(argv) == 0
        records = _records(capsys.readouterr().out)
        kinds = {r["record"] for r in records}
        assert kinds == ({"schedule"} if argv[0] == "inspect-only" else {"run"})
        if argv[0] == "inspect-only":
            assert all(r["backend"] is None for r in records)
    records = _records(report.read_text())
    assert [r["record"] for r in records] == ["schedule"] * (
        2 if mode == "distributed" else 1) + ["run"]
    assert all(r["backend"] == "c" for r in records[:-1])
    if mode == "distributed":
        assert [r["rank"] for r in records[:2]] == [0, 1]
        assert records[-1]["nranks"] == 2
        assert all(r["bytes_exchanged"] > 0 for r in records[:2])


CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.ini"))


def test_verify_leaves_numpy_ma_unimported(tmp_path):
    # np.unique imports numpy.ma on first use, which adds to peak RSS
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, HOME=str(tmp_path))  # an empty C cache of its own
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    script = ("import sys\n"
              "from looptile.cli import main\n"
              "for path in sys.argv[1:]:\n"
              "    assert main(['verify', path]) == 0\n"
              "print('numpy.ma' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script, *map(str, CONFIGS)],
                          capture_output=True, text=True, env=env,
                          cwd=tmp_path, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


@pytest.mark.parametrize("path", CONFIGS, ids=[p.name for p in CONFIGS])
def test_committed_configs_verify(tmp_path, monkeypatch, capsys, path):
    monkeypatch.chdir(tmp_path)  # configured outputs land here
    assert main(["verify", str(path)]) == 0
    assert _records(capsys.readouterr().out)[0]["verify"] == "pass"


@pytest.mark.parametrize("entry", [run_config, inspect_only])
def test_a_distributed_config_partitions_once(monkeypatch, entry):
    import looptile.distsim as distsim

    calls = []
    original = distsim.partition_for_ranks

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(distsim, "partition_for_ranks", counted)
    cfg = parse_config(str(next(p for p in CONFIGS if p.name == "eight_loop.ini")))
    assert cfg.mode is ExecMode.DISTRIBUTED and len(cfg.fusion) == 3
    entry(cfg)
    assert len(calls) == 1
