"""Declarative run configuration: an INI file with mesh, chain, run sections.

Example::

    [mesh]
    nx = 8
    ny = 4
    renumber = rcm

    [chain]
    preset = fig2
    depth = 3

    [run]
    mode = shared
    tile_size = 16
    fusion = 0-2:16
    nranks = 2

    [output]
    report = out/report.jsonl

Chains may also be spelled out explicitly with [loops] / [datasets] sections;
each loop line reads ``<space> <kernel> <mode>@<map|->:<dataset>, ...``.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from typing import NamedTuple

from .chain import AccessMode
from .inspector import ExecMode
from .mesh import CELLS, MAPS, SPACES
from .problems import (INITIALIZERS, PRESETS, AccessSpec, DatasetSpec, LoopSpec,
                       Problem)


class ConfigError(ValueError):
    """Unusable run configuration; message names the offending section/key."""


class SubChain(NamedTuple):
    start: int
    stop: int  # exclusive
    tile_size: int


@dataclass
class RunConfig:
    nx: int
    ny: int
    renumber: bool
    problem: Problem
    depth: int
    mode: ExecMode
    nranks: int
    fusion: tuple[SubChain, ...]
    report_path: str | None = None
    vtk_path: str | None = None

    @property
    def fused_stop(self) -> int:
        return self.fusion[-1].stop if self.fusion else 0


def parse_fusion(text: str, n_loops: int, tile_size: int) -> tuple[SubChain, ...]:
    """Parse "a-b:ts,c-d:ts" (inclusive ranges); must cover a prefix of the loops.

    The halo depth is not checked here but by ``inspect_chain``."""
    subchains = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            span, _, ts_text = part.partition(":")
            lo_text, _, hi_text = span.partition("-")
            lo, hi = int(lo_text), int(hi_text if hi_text else lo_text)
            ts = int(ts_text) if ts_text else tile_size
        except ValueError as exc:
            raise ConfigError(f"bad fusion entry {part!r}: {exc}") from None
        subchains.append(SubChain(lo, hi + 1, ts))
    expected = 0
    for sc in subchains:
        if sc.start != expected:
            raise ConfigError(
                f"fusion sub-chains must cover a gapless prefix; "
                f"expected start {expected}, got {sc.start}")
        if sc.stop <= sc.start or sc.stop > n_loops:
            raise ConfigError(f"fusion range {sc.start}-{sc.stop - 1} out of bounds")
        if sc.tile_size < 1:
            raise ConfigError("fusion tile size must be >= 1")
        expected = sc.stop
    if not subchains:
        raise ConfigError("empty fusion scheme")
    return tuple(subchains)


def _check_known(name: str, known, where: str, what: str) -> None:
    if name not in known:
        raise ConfigError(f"{where}: unknown {what} {name!r}; "
                          f"available: {sorted(known)}")


def _parse_explicit_problem(parser: configparser.ConfigParser) -> Problem:
    if not parser.has_section("loops"):
        raise ConfigError("[chain] needs preset=... or a [loops] section")
    loops = []
    for key in sorted(parser["loops"], key=int):
        tokens = parser["loops"][key].split(None, 2)
        if len(tokens) != 3:
            raise ConfigError(f"[loops] {key}: expected '<space> <kernel> <accesses>'")
        space, kernel, access_text = tokens
        _check_known(space, SPACES, f"[loops] {key}", "space")
        accesses = []
        for item in access_text.split(","):
            item = item.strip()
            try:
                mode_text, _, rest = item.partition("@")
                map_text, _, dataset = rest.partition(":")
            except ValueError:
                raise ConfigError(f"[loops] {key}: bad access {item!r}") from None
            if not dataset:
                raise ConfigError(f"[loops] {key}: access {item!r} names no dataset")
            map_name = None if map_text == "-" else map_text
            if map_name is not None:
                _check_known(map_name, MAPS, f"[loops] {key}", "map")
                if MAPS[map_name][0] != space:
                    raise ConfigError(f"[loops] {key}: map {map_name!r} starts "
                                      f"on {MAPS[map_name][0]!r}, not {space!r}")
            # configparser lowercases the [datasets] names this refers to
            accesses.append(AccessSpec(map_name, AccessMode.parse(mode_text),
                                       dataset.lower()))
        loops.append(LoopSpec(space, kernel, tuple(accesses)))
    if not parser.has_section("datasets"):
        raise ConfigError("explicit chains need a [datasets] section")
    datasets = []
    for name in parser["datasets"]:
        tokens = parser["datasets"][name].split()
        if len(tokens) != 3:
            raise ConfigError(f"[datasets] {name}: expected '<space> <vpe> <init>'")
        space, vpe_text, init = tokens
        _check_known(space, SPACES, f"[datasets] {name}", "space")
        vpe = int(vpe_text)
        if vpe < 1:
            raise ConfigError(f"[datasets] {name}: values per element must be "
                              f">= 1, got {vpe}")
        _check_known(init, INITIALIZERS, f"[datasets] {name}", "initializer")
        datasets.append(DatasetSpec(name, space, vpe, init))
    return Problem("custom", tuple(loops), tuple(datasets))


def parse_config(path: str) -> RunConfig:
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file {path!r} not found")
    try:
        nx = parser.getint("mesh", "nx")
        ny = parser.getint("mesh", "ny")
        for key, value in (("nx", nx), ("ny", ny)):
            if value < 1:
                raise ConfigError(f"[mesh] {key} must be >= 1, got {value}")
        renumber = parser.get("mesh", "renumber", fallback="rcm").lower()
        if renumber not in ("rcm", "none"):
            raise ConfigError(f"[mesh] renumber must be rcm or none, got {renumber!r}")
        preset = parser.get("chain", "preset", fallback=None)
        depth = parser.getint("chain", "depth", fallback=1)
        if depth < 1:
            raise ConfigError(f"[chain] depth must be >= 1, got {depth}")
        if preset is not None:
            try:
                problem = PRESETS[preset]
            except KeyError:
                raise ConfigError(
                    f"unknown preset {preset!r}; available: {sorted(PRESETS)}") from None
        else:
            problem = _parse_explicit_problem(parser)
        mode = ExecMode.parse(parser.get("run", "mode", fallback="sequential"))
        tile_size = parser.getint("run", "tile_size", fallback=16)
        nranks = parser.getint("run", "nranks", fallback=2)
        if mode is ExecMode.DISTRIBUTED and not 1 <= nranks <= 2 * nx * ny:
            raise ConfigError(f"[run] nranks must be from 1 to the {2 * nx * ny} "
                              f"cells of the mesh, got {nranks}")
        fusion_text = parser.get(
            "run", "fusion", fallback=f"0-{len(problem.loops) - 1}:{tile_size}")
        fusion = parse_fusion(fusion_text, len(problem.loops), tile_size)
    except (configparser.Error, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"{path}: {exc}") from exc

    vtk_path = parser.get("output", "vtk", fallback=None)
    if vtk_path and mode is ExecMode.DISTRIBUTED:
        raise ConfigError("[output] vtk draws one global tiling; distributed "
                          "mode tiles every rank's local mesh instead")
    first = fusion[0]
    if vtk_path and all(loop.space != CELLS
                        for loop in problem.loops[first.start:first.stop]):
        raise ConfigError(f"[output] vtk draws the cells loop of the first "
                          f"sub-chain, and sub-chain {first.start}-"
                          f"{first.stop - 1} has no loop over cells")
    return RunConfig(
        nx=nx, ny=ny, renumber=(renumber == "rcm"), problem=problem,
        depth=depth, mode=mode, nranks=nranks,
        fusion=fusion,
        report_path=parser.get("output", "report", fallback=None),
        vtk_path=vtk_path,
    )
