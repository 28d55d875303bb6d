"""Legacy-ASCII VTK output of meshes and tile assignments, plus a reparser."""

from __future__ import annotations

import numpy as np

from .chain import LoopChain
from .inspector import NO_TILE, Schedule
from .mesh import CELLS, Mesh


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def write_mesh_vtk(mesh: Mesh, path: str, cell_data: dict[str, np.ndarray] | None = None,
                   title: str = "looptile mesh") -> None:
    """Write the triangulation as an unstructured grid (triangle type 5)."""
    lines = [
        "# vtk DataFile Version 3.0",
        title,
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {mesh.num_vertices} double",
    ]
    for x, y in mesh.vertex_coords.tolist():
        lines.append(f"{_fmt(x)} {_fmt(y)} 0")
    lines.append(f"CELLS {mesh.num_cells} {4 * mesh.num_cells}")
    tri = mesh.cells_to_vertices.reshape(-1, 3)
    for a, b, c in tri.tolist():
        lines.append(f"3 {a} {b} {c}")
    lines.append(f"CELL_TYPES {mesh.num_cells}")
    lines.extend(["5"] * mesh.num_cells)
    if cell_data:
        lines.append(f"CELL_DATA {mesh.num_cells}")
        for name, values in cell_data.items():
            lines.append(f"SCALARS {name} int 1")
            lines.append("LOOKUP_TABLE default")
            lines.extend(str(int(v)) for v in values.tolist())
    try:
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write VTK file {path}: {exc}") from exc


def cells_loop_index(chain: LoopChain) -> int:
    """The first loop iterating the cells space; VTK renders per-cell fields."""
    for loop in chain.loops:
        if loop.space.name == CELLS:
            return loop.index
    raise ValueError("chain has no loop over cells; nothing to render per cell")


def export_vtk(schedule: Schedule, chain: LoopChain, mesh: Mesh, path: str) -> None:
    """Write tile_id and color per cell for the chain's cells-loop assignment."""
    j = cells_loop_index(chain)
    tile_of = schedule.tile_of(j, mesh.num_cells)
    if np.any(tile_of == NO_TILE):
        raise ValueError("schedule does not cover every cell")
    write_mesh_vtk(mesh, path, cell_data={"tile_id": tile_of,
                                          "color": schedule.colors[tile_of]},
                   title="looptile tiles")


def parse_vtk(path: str) -> dict:
    """Minimal reader for files this module writes; used for round-trip checks."""
    with open(path) as fh:
        tokens = fh.read().split("\n")
    out = {"points": None, "cells": None, "cell_data": {}}
    i = 0
    while i < len(tokens):
        line = tokens[i].strip()
        if line.startswith("POINTS"):
            n = int(line.split()[1])
            pts = [tuple(float(v) for v in tokens[i + 1 + k].split()) for k in range(n)]
            out["points"] = np.array(pts)
            i += n
        elif line.startswith("CELLS"):
            n = int(line.split()[1])
            rows = [tuple(int(v) for v in tokens[i + 1 + k].split()[1:]) for k in range(n)]
            out["cells"] = np.array(rows, dtype=np.int64)
            i += n
        elif line.startswith("SCALARS"):
            name = line.split()[1]
            n = len(out["cells"])
            values = [int(tokens[i + 2 + k]) for k in range(n)]  # skip LOOKUP_TABLE
            out["cell_data"][name] = np.array(values, dtype=np.int64)
            i += n + 1
        i += 1
    return out
