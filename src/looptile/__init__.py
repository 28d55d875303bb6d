"""Sparse tiling of unstructured-mesh loop chains.

Inspector/executor scheme: declare a chain of loops with access descriptors,
inspect it once into a tile schedule honoring all cross-loop dependences,
then execute the fused schedule — shared-memory style with colored tiles or
against simulated distributed-memory halos.
"""

from .chain import (AccessMode, Descriptor, InverseMap, IterationSpace, Loop,
                    LoopChain, MeshMap, Region, build_chain, chain_fingerprint,
                    invert_map)
from .distsim import (DistributedResult, HaloEndpoint, VirtualRank, gather,
                      run_distributed, run_subchain, setup_ranks)
from .executor import (Dataset, ExecutionReport, KernelBinding, KernelRegistry,
                       execute_schedule, execute_untiled)
from .inspector import (ExecMode, LoopTiling, Schedule, Tile, assign,
                        build_schedule, color_tiles, compute_local_maps,
                        inspect_chain, partition_seed, project, tile_loop)
from .mesh import Mesh, generate_rect_mesh, rcm_renumber
from .partition import LocalMesh, partition_for_ranks
from .problems import PRESETS, Problem, default_registry, global_setup, local_setup

__all__ = [name for name in dir() if not name.startswith("_")]
