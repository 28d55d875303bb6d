"""Whole-list kernels against the per-element reference executor."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import looptile.executor as executor
from looptile.cli import main
from looptile.distsim import check_exchange_symmetry, gather, run_distributed, setup_ranks
from looptile.executor import execute_schedule, execute_untiled
from looptile.inspector import ExecMode, inspect_chain
from looptile.mesh import generate_rect_mesh, rcm_renumber
from looptile.problems import EIGHT_LOOP, FIG2, Problem, default_registry, global_setup

from conftest import dataset_values
from reference_executor import run_per_element

REGISTRY = default_registry()


def assert_bitwise_equal(expected, actual):
    for name in expected:
        np.testing.assert_array_equal(actual[name].view(np.int64),
                                      expected[name].view(np.int64), err_msg=name)


def draw_mesh(draw, min_nx=1, min_ny=1):
    mesh = generate_rect_mesh(draw(st.integers(min_nx, 9)), draw(st.integers(min_ny, 6)))
    return rcm_renumber(mesh) if draw(st.booleans()) else mesh


@st.composite
def shared_memory_cases(draw):
    mesh = draw_mesh(draw)
    problem = draw(st.sampled_from([FIG2, EIGHT_LOOP]))
    mode = draw(st.sampled_from([ExecMode.SEQUENTIAL, ExecMode.SHARED]))
    return mesh, problem, mode, draw(st.integers(1, 48)), draw(st.integers(0, 2**32 - 1))


@given(shared_memory_cases())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_batch_equals_per_element_on_float_data(case):
    # np.add.at adds in index order, the per-element order of each target
    mesh, problem, mode, ts, seed = case
    chain, datasets, bindings = global_setup(mesh, problem, len(problem.loops))
    rng = np.random.default_rng(seed)
    for ds in datasets.values():
        ds.values[:] = rng.uniform(-1.0, 1.0, len(ds.values))
    runs = {kind: {name: ds.copy() for name, ds in datasets.items()}
            for kind in ("untiled", "untiled_ref", "tiled", "tiled_ref")}
    schedule = inspect_chain(chain, ts, mode)
    execute_untiled(chain, bindings, runs["untiled"], REGISTRY)
    run_per_element(chain, bindings, runs["untiled_ref"])
    execute_schedule(schedule, chain, bindings, runs["tiled"], REGISTRY)
    run_per_element(chain, bindings, runs["tiled_ref"], schedule)
    for kind in ("untiled", "tiled"):
        assert_bitwise_equal(dataset_values(runs[kind + "_ref"]),
                             dataset_values(runs[kind]))


@st.composite
def distributed_cases(draw):
    mesh = draw_mesh(draw, min_nx=2, min_ny=2)
    n_loops = draw(st.sampled_from([3, 4]))
    problem = Problem(f"eight_loop_{n_loops}", EIGHT_LOOP.loops[:n_loops],
                      EIGHT_LOOP.datasets)
    problem = draw(st.sampled_from([FIG2, problem]))
    depth = len(problem.loops) + draw(st.integers(0, 1))
    return (mesh, problem, draw(st.integers(1, 4)), draw(st.integers(1, 24)),
            depth, draw(st.integers(0, 2**32 - 1)))


def per_element_distributed(mesh, problem, nranks, ts, depth, initial):
    """``run_distributed`` with every rank's schedule run by the reference."""
    ranks = setup_ranks(mesh, problem, nranks, ts, depth, initial)
    endpoints = [vr.endpoint for vr in ranks]
    check_exchange_symmetry(endpoints)
    for e in endpoints:
        e.begin()
    for vr in ranks:
        run_per_element(vr.chain, vr.bindings, vr.datasets, vr.schedule,
                        exchange=vr.endpoint)
    return gather(mesh, problem, ranks)


@given(distributed_cases())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_distributed_batch_run_matches_per_element_and_oracle(case):
    mesh, problem, nranks, ts, depth, seed = case
    chain, datasets, bindings = global_setup(mesh, problem, depth)
    rng = np.random.default_rng(seed)
    for ds in datasets.values():
        ds.values[:] = rng.integers(-50, 50, len(ds.values))
    initial = dataset_values(datasets)
    batch = run_distributed(mesh, problem, nranks, ts, depth, REGISTRY, initial=initial)
    per_element = per_element_distributed(mesh, problem, nranks, ts, depth, initial)
    assert_bitwise_equal(per_element, batch.datasets)
    # a chain as long as its halo depth strands executable iterations on the
    # non-exec tile (ROADMAP item 1), so only deeper halos meet the oracle
    if depth > len(problem.loops):
        run_per_element(chain, bindings, datasets)
        assert_bitwise_equal(dataset_values(datasets), batch.datasets)


WIDE_INI = """
[mesh]
nx = 6
ny = 4
renumber = rcm

[chain]
depth = 4

[loops]
0 = edges edge_inc r@-:edge_w, i@e2v:vertex_acc
1 = cells cell_inc r@-:cell_w, i@c2v:vertex_acc
2 = edges edge_read w@-:edge_out, r@e2v:vertex_acc

[datasets]
edge_w = edges 3 ramp
cell_w = cells 1 ramp
vertex_acc = verts 3 zeros
edge_out = edges 3 zeros

[run]
mode = {mode}
tile_size = 5
nranks = 3
"""


@pytest.mark.parametrize("mode", ["sequential", "shared", "distributed"])
def test_three_values_per_element_verify(tmp_path, capsys, monkeypatch, mode):
    calls = []
    run_batch = executor._run_batch

    def counted(loop, *args):
        calls.append(loop.kernel)
        run_batch(loop, *args)

    monkeypatch.setattr(executor, "_run_batch", counted)
    path = tmp_path / "wide.ini"
    path.write_text(WIDE_INI.format(mode=mode))
    assert main(["verify", str(path)]) == 0
    record = json.loads(capsys.readouterr().out.splitlines()[0])
    assert record["verify"] == "pass"
    assert set(calls) == {"edge_inc", "cell_inc", "edge_read"}
