"""Prebuilt loop-chain problems over triangle meshes.

A Problem names its loops, accesses and datasets symbolically so the same
definition instantiates against the global mesh or any rank-local mesh.
Dataset initializers are functions of global ids, which keeps rank-local
data the exact restriction of the serial data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import AccessMode, Descriptor, IterationSpace, Loop, MeshMap, build_chain
from .executor import Dataset, KernelBinding, KernelRegistry, flat_slots
from .mesh import Mesh, mesh_maps, mesh_spaces


@dataclass(frozen=True)
class AccessSpec:
    map: str | None  # map name, None for direct
    mode: AccessMode
    dataset: str


@dataclass(frozen=True)
class LoopSpec:
    space: str
    kernel: str
    accesses: tuple[AccessSpec, ...]


@dataclass(frozen=True)
class DatasetSpec:
    name: str
    space: str
    values_per_element: int
    init: str  # a key of INITIALIZERS


@dataclass(frozen=True)
class Problem:
    name: str
    loops: tuple[LoopSpec, ...]
    datasets: tuple[DatasetSpec, ...]


# kernels over whole iteration lists: direct (n, k), mapped (n, arity, k)

def _edge_inc(x, verts):
    verts[:, 0] += x
    verts[:, 1] += x


def _cell_inc(res, verts):
    verts += res[:, None]


def _edge_read(out, verts):
    out[:] = verts[:, 0] + verts[:, 1]


def _cell_read(out, verts):
    out[:] = verts[:, 0] + verts[:, 1] + verts[:, 2]


# the same kernels per element in C (argument i is a<i>, k<i> values per
# element, m<i> rows; see looptile.codegen), with the numpy bodies'
# broadcasting of a k = 1 input and the same operations in the same order

_EDGE_INC_C = """\
    for (int c = 0; c < k1; c++) {
        a1[c] += a0[k0 == 1 ? 0 : c];
        a1[k1 + c] += a0[k0 == 1 ? 0 : c];
    }"""

_CELL_INC_C = """\
    for (int r = 0; r < m1; r++)
        for (int c = 0; c < k1; c++)
            a1[r * k1 + c] += a0[k0 == 1 ? 0 : c];"""

_EDGE_READ_C = """\
    for (int c = 0; c < k0; c++) {
        const int s = k1 == 1 ? 0 : c;
        a0[c] = a1[s] + a1[k1 + s];
    }"""

_CELL_READ_C = """\
    for (int c = 0; c < k0; c++) {
        const int s = k1 == 1 ? 0 : c;
        a0[c] = a1[s] + a1[k1 + s] + a1[2 * k1 + s];
    }"""


def default_registry() -> KernelRegistry:
    registry = KernelRegistry()
    for kernel_id, body, c in (("edge_inc", _edge_inc, _EDGE_INC_C),
                               ("cell_inc", _cell_inc, _CELL_INC_C),
                               ("edge_read", _edge_read, _EDGE_READ_C),
                               ("cell_read", _cell_read, _CELL_READ_C)):
        registry.register(kernel_id, body, 2, c=c)
    return registry


# dataset initializers, each a function of the flat value indices
INITIALIZERS = {
    "zeros": lambda flat: np.zeros(len(flat)),
    "ones": lambda flat: np.ones(len(flat)),
    "ramp": lambda flat: (flat % 7 + 1).astype(np.float64),
}


def init_values(spec: DatasetSpec, global_ids: np.ndarray) -> np.ndarray:
    """Deterministic integer-valued data as a function of global ids."""
    if spec.init not in INITIALIZERS:
        raise ValueError(f"unknown initializer {spec.init!r}")
    return INITIALIZERS[spec.init](
        flat_slots(global_ids, spec.values_per_element).ravel())


FIG2 = Problem(
    name="fig2",
    loops=(
        LoopSpec("edges", "edge_inc",
                 (AccessSpec(None, AccessMode.READ, "edge_w"),
                  AccessSpec("e2v", AccessMode.INC, "vertex_acc"))),
        LoopSpec("cells", "cell_inc",
                 (AccessSpec(None, AccessMode.READ, "cell_w"),
                  AccessSpec("c2v", AccessMode.INC, "vertex_acc"))),
        LoopSpec("edges", "edge_read",
                 (AccessSpec(None, AccessMode.WRITE, "edge_out"),
                  AccessSpec("e2v", AccessMode.READ, "vertex_acc"))),
    ),
    datasets=(
        DatasetSpec("edge_w", "edges", 1, "ramp"),
        DatasetSpec("cell_w", "cells", 1, "ramp"),
        DatasetSpec("vertex_acc", "verts", 1, "zeros"),
        DatasetSpec("edge_out", "edges", 1, "zeros"),
    ),
)

# eight loops alternating edge and cell sweeps through two accumulation
# stages, a desk-scale stand-in for long cells/facets interleavings
EIGHT_LOOP = Problem(
    name="eight_loop",
    loops=(
        LoopSpec("edges", "edge_inc",
                 (AccessSpec(None, AccessMode.READ, "edge_w"),
                  AccessSpec("e2v", AccessMode.INC, "vertex_acc"))),
        LoopSpec("cells", "cell_inc",
                 (AccessSpec(None, AccessMode.READ, "cell_w"),
                  AccessSpec("c2v", AccessMode.INC, "vertex_acc"))),
        LoopSpec("edges", "edge_read",
                 (AccessSpec(None, AccessMode.WRITE, "edge_mid"),
                  AccessSpec("e2v", AccessMode.READ, "vertex_acc"))),
        LoopSpec("cells", "cell_read",
                 (AccessSpec(None, AccessMode.WRITE, "cell_mid"),
                  AccessSpec("c2v", AccessMode.READ, "vertex_acc"))),
        LoopSpec("edges", "edge_inc",
                 (AccessSpec(None, AccessMode.READ, "edge_mid"),
                  AccessSpec("e2v", AccessMode.INC, "vertex_acc2"))),
        LoopSpec("cells", "cell_inc",
                 (AccessSpec(None, AccessMode.READ, "cell_mid"),
                  AccessSpec("c2v", AccessMode.INC, "vertex_acc2"))),
        LoopSpec("edges", "edge_read",
                 (AccessSpec(None, AccessMode.WRITE, "edge_out"),
                  AccessSpec("e2v", AccessMode.READ, "vertex_acc2"))),
        LoopSpec("cells", "cell_read",
                 (AccessSpec(None, AccessMode.WRITE, "cell_out"),
                  AccessSpec("c2v", AccessMode.READ, "vertex_acc2"))),
    ),
    datasets=(
        DatasetSpec("edge_w", "edges", 1, "ramp"),
        DatasetSpec("cell_w", "cells", 1, "ramp"),
        DatasetSpec("vertex_acc", "verts", 1, "zeros"),
        DatasetSpec("vertex_acc2", "verts", 1, "zeros"),
        DatasetSpec("edge_mid", "edges", 1, "zeros"),
        DatasetSpec("cell_mid", "cells", 1, "zeros"),
        DatasetSpec("edge_out", "edges", 1, "zeros"),
        DatasetSpec("cell_out", "cells", 1, "zeros"),
    ),
)

PRESETS: dict[str, Problem] = {FIG2.name: FIG2, EIGHT_LOOP.name: EIGHT_LOOP}


def instantiate(problem: Problem, spaces: dict[str, IterationSpace],
                maps: dict[str, MeshMap], global_ids: dict[str, np.ndarray],
                depth: int, distributed: bool = False):
    """Materialize (chain, datasets, bindings) over concrete spaces and maps."""
    loops = []
    for index, spec in enumerate(problem.loops):
        descriptors = tuple(
            Descriptor(map=None if a.map is None else maps[a.map], mode=a.mode)
            for a in spec.accesses)
        loops.append(Loop(index=index, space=spaces[spec.space],
                          descriptors=descriptors, kernel=spec.kernel))
    chain = build_chain(tuple(spaces.values()), tuple(maps.values()),
                        loops, depth, distributed=distributed)
    datasets = {
        d.name: Dataset(d.name, spaces[d.space], d.values_per_element,
                        init_values(d, global_ids[d.space]))
        for d in problem.datasets
    }
    bindings = tuple(
        KernelBinding(spec.kernel, tuple(a.dataset for a in spec.accesses))
        for spec in problem.loops)
    return chain, datasets, bindings


def global_setup(mesh: Mesh, problem: Problem, depth: int):
    """Single-rank instantiation: all regions core, identity global ids."""
    spaces = mesh_spaces(mesh)
    maps = mesh_maps(mesh, spaces)
    gids = {name: np.arange(space.total, dtype=np.int64)
            for name, space in spaces.items()}
    return instantiate(problem, spaces, maps, gids, depth)


def local_setup(local_mesh, problem: Problem, depth: int):
    """Rank-local instantiation of the whole chain, halo regions and true global ids."""
    spaces = local_mesh.spaces()
    maps = local_mesh.maps(spaces)
    return instantiate(problem, spaces, maps, local_mesh.global_ids, depth,
                       distributed=True)
