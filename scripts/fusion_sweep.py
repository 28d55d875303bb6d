#!/usr/bin/env python3
"""Time fusion schemes of varying aggressiveness on the eight-loop chain.

Analogous to comparing hand-picked fusion schemes for a long solver loop
sequence: fewer, longer sub-chains buy more cross-loop locality at the price
of more tile expansion.  Timings are reported, not gated.
"""

import argparse

from looptile.cli import sweep_config
from looptile.config import RunConfig, parse_fusion
from looptile.inspector import ExecMode
from looptile.problems import EIGHT_LOOP

SCHEMES = [
    "0-1,2-3,4-5,6-7",  # pairwise only
    "0-2,3-5,6-7",
    "0-3,4-7",
    "0-5,6-7",
    "0-7",              # everything in one chain
]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nx", type=int, default=32)
    parser.add_argument("--ny", type=int, default=16)
    parser.add_argument("--tile-sizes", default="8,32")
    parser.add_argument("--modes", default="sequential,shared")
    args = parser.parse_args()

    cfg = RunConfig(
        nx=args.nx, ny=args.ny, renumber=True, problem=EIGHT_LOOP, depth=8,
        mode=ExecMode.SHARED, tile_size=16, nranks=2,
        fusion=parse_fusion("0-7", 8, 16, 8, ExecMode.SHARED))
    tile_sizes = [int(t) for t in args.tile_sizes.split(",")]
    modes = [ExecMode.parse(m) for m in args.modes.split(",")]
    sweep_config(cfg, tile_sizes, modes, SCHEMES)


if __name__ == "__main__":
    main()
