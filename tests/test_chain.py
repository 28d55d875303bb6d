import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from looptile.chain import (AccessMode, Descriptor, IterationSpace, Loop,
                            MeshMap, build_chain, invert_map)
from looptile.errors import DepthExceededError, InvalidChainError
from looptile.inspector import ExecMode, inspect_chain
from looptile.mesh import generate_rect_mesh, mesh_maps, mesh_spaces, rcm_renumber
from looptile.partition import partition_for_ranks
from looptile.problems import EIGHT_LOOP, FIG2, global_setup, local_setup

from conftest import map_row, region_of, sources_of


def test_invert_known_cell_row():
    # cell 1 maps to vertices 3, 7, 9: it must appear in each of their segments
    cells = IterationSpace("cells", 2)
    verts = IterationSpace("verts", 10)
    m = MeshMap("c2v", cells, verts, 3, np.array([0, 1, 2, 3, 7, 9]))
    inv = invert_map(m)
    for v in (3, 7, 9):
        assert 1 in sources_of(inv, v).tolist()
    assert sources_of(inv, 0).tolist() == [0]


def test_invert_identity_map():
    k = 6
    space = IterationSpace("s", k)
    m = MeshMap("id", space, space, 1, np.arange(k))
    inv = invert_map(m)
    assert inv.offsets.tolist() == list(range(k + 1))
    assert inv.values.tolist() == list(range(k))


@given(st.integers(0, 10_000))
@settings(max_examples=25)
def test_invert_roundtrips_pair_multiset(seed):
    rng = np.random.default_rng(seed)
    src = IterationSpace("src", 50)
    tgt = IterationSpace("tgt", 17)
    m = MeshMap("m", src, tgt, 3, rng.integers(0, 17, size=150))
    inv = invert_map(m)
    forward = sorted((s, int(t)) for s in range(50) for t in map_row(m, s))
    backward = sorted((int(s), t) for t in range(17) for s in sources_of(inv, t))
    assert forward == backward
    # segments sorted ascending
    for t in range(17):
        seg = sources_of(inv, t).tolist()
        assert seg == sorted(seg)


def fig2_parts():
    mesh = generate_rect_mesh(2, 2)
    spaces = mesh_spaces(mesh)
    maps = mesh_maps(mesh, spaces)
    e2v, c2v = maps["e2v"], maps["c2v"]
    loops = (
        Loop(0, spaces["edges"], (Descriptor(None, AccessMode.READ),
                                  Descriptor(e2v, AccessMode.INC)), "edge_inc"),
        Loop(1, spaces["cells"], (Descriptor(None, AccessMode.READ),
                                  Descriptor(c2v, AccessMode.INC)), "cell_inc"),
        Loop(2, spaces["edges"], (Descriptor(None, AccessMode.WRITE),
                                  Descriptor(e2v, AccessMode.READ)), "edge_read"),
    )
    return spaces, maps, loops


def test_fig2_style_chain_accepted():
    spaces, maps, loops = fig2_parts()
    chain = build_chain(spaces.values(), maps.values(), loops, depth=3)
    assert len(chain.loops) == 3
    assert chain.fingerprint


def test_empty_loop_list_rejected():
    spaces, maps, _ = fig2_parts()
    with pytest.raises(InvalidChainError):
        build_chain(spaces.values(), maps.values(), (), depth=1)


def test_descriptor_source_mismatch_rejected():
    spaces, maps, loops = fig2_parts()
    bad = Loop(1, spaces["cells"], (Descriptor(maps["e2v"], AccessMode.READ),),
               "cell_inc")
    with pytest.raises(InvalidChainError, match="sourced"):
        build_chain(spaces.values(), maps.values(),
                    (loops[0], bad, loops[2].__class__(2, loops[2].space,
                                                       loops[2].descriptors,
                                                       loops[2].kernel)),
                    depth=3)


def test_undeclared_map_rejected():
    spaces, maps, loops = fig2_parts()
    with pytest.raises(InvalidChainError, match="not declared"):
        build_chain(spaces.values(), [maps["c2v"]], loops, depth=3)


def test_depth_exceeded_in_distributed_mode():
    # a rank builds its whole chain at any length; inspecting a distributed
    # chain of more loops than its depth is what the halo rule rejects
    mesh = rcm_renumber(generate_rect_mesh(8, 4))
    chain, _, _ = local_setup(partition_for_ranks(mesh, 2, 4)[0], EIGHT_LOOP, 4)
    assert len(chain.loops) == 8 and chain.distributed
    with pytest.raises(DepthExceededError, match="8 loops exceed halo depth 4"):
        inspect_chain(chain, 16, ExecMode.DISTRIBUTED)
    inspect_chain(chain.subchain(0, 4), 16, ExecMode.DISTRIBUTED)
    # fine without the distributed flag
    inspect_chain(global_setup(mesh, EIGHT_LOOP, 4)[0], 16, ExecMode.SEQUENTIAL)


def test_fingerprint_deterministic():
    mesh = generate_rect_mesh(3, 2)
    a, _, _ = global_setup(mesh, FIG2, depth=3)
    b, _, _ = global_setup(mesh, FIG2, depth=3)
    assert a.fingerprint == b.fingerprint


def test_fingerprint_sensitive_to_one_map_value():
    spaces, maps, loops = fig2_parts()
    chain = build_chain(spaces.values(), maps.values(), loops, depth=3)
    flipped = maps["e2v"].values.copy()
    flipped[0] = (flipped[0] + 1) % spaces["verts"].total
    e2v2 = MeshMap("e2v", spaces["edges"], spaces["verts"], 2, flipped)
    loops2 = tuple(
        Loop(lp.index, lp.space,
             tuple(Descriptor(e2v2 if (d.map is maps["e2v"]) else d.map, d.mode)
                   for d in lp.descriptors),
             lp.kernel)
        for lp in loops)
    chain2 = build_chain(spaces.values(), (e2v2, maps["c2v"]), loops2, depth=3)
    assert chain.fingerprint != chain2.fingerprint


def test_fingerprint_sensitive_to_loop_order():
    spaces, maps, loops = fig2_parts()
    chain = build_chain(spaces.values(), maps.values(), loops, depth=3)
    l0, l1, l2 = loops
    swapped = (
        Loop(0, l1.space, l1.descriptors, l1.kernel),
        Loop(1, l0.space, l0.descriptors, l0.kernel),
        Loop(2, l2.space, l2.descriptors, l2.kernel),
    )
    chain2 = build_chain(spaces.values(), maps.values(), swapped, depth=3)
    assert chain.fingerprint != chain2.fingerprint


def test_region_classification():
    space = IterationSpace("s", 4, 3, 2)
    from looptile.chain import Region
    assert space.total == 9
    assert space.executable_size == 7
    assert region_of(space, 0) is Region.CORE
    assert region_of(space, 3) is Region.CORE
    assert region_of(space, 4) is Region.BOUNDARY
    assert region_of(space, 6) is Region.BOUNDARY
    assert region_of(space, 7) is Region.NONEXEC
    with pytest.raises(IndexError):
        region_of(space, 9)
