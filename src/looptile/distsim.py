"""Simulated distributed-memory execution: N virtual ranks in one process.

A run partitions the mesh once and sets up every rank once: its local mesh,
whole chain and datasets, and per fused sub-chain a slice of that chain, its
schedule and a halo endpoint.  The rank's sub-chains share its datasets, so
values pass from one sub-chain to the next on the rank itself.  All halo
traffic for one sub-chain execution happens in a single exchange: staging
snapshots every owner's values before any rank computes, and each rank
commits its incoming buffers between its core and boundary phases.  Staging
also fills every halo slot with ``POISON``, so a core tile that read one
before the commit would spread it into the gathered values and fail
verification.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import AccessMode, LoopChain
from .errors import InvalidChainError, PartitionBugError
from .executor import (Dataset, ExecutionReport, KernelRegistry,
                       execute_schedule, flat_slots)
from .inspector import ExecMode, Schedule, inspect_chain
from .mesh import Mesh
from .partition import LocalMesh, partition_for_ranks
from .problems import LoopSpec, Problem, local_setup

POISON = 1e30  # every halo slot's value until the exchange commits


class HaloEndpoint:
    """One rank's side of the halo exchange.

    begin() pulls every neighbor-owned value this rank holds a copy of into
    staging buffers and poisons every halo slot of the rank's datasets;
    end() commits the buffers into the local exec/non-exec slots.  The two
    calls strictly alternate.
    """

    def __init__(self, local_mesh: LocalMesh, datasets: dict[str, Dataset],
                 exchanged: tuple[str, ...]):
        self.local_mesh = local_mesh
        self.rank = local_mesh.rank
        self.datasets = datasets
        self.exchanged = exchanged
        self.peer_datasets: dict[int, dict[str, Dataset]] = {}
        self.exchange_count = 0
        self.bytes_exchanged = 0
        self._staged: list[tuple[str, np.ndarray, np.ndarray]] | None = None

    def link(self, endpoints: list["HaloEndpoint"]) -> None:
        # the peers' datasets, not the peers: endpoints holding each other
        # form cycles that keep every rank's arrays alive until a gc pass
        self.peer_datasets = {e.rank: e.datasets for e in endpoints
                              if e.rank != self.rank}

    def begin(self) -> None:
        if self._staged is not None:
            raise PartitionBugError("begin() called twice without end()")
        for ds in self.datasets.values():  # peers stage owned slots only
            owned = self.local_mesh.sizes[ds.space.name].owned_total
            ds.values[owned * ds.values_per_element:] = POISON
        staged = []
        for (space, nbr), table in sorted(self.local_mesh.exchange_table.items()):
            peer = self.peer_datasets[nbr]
            owned_here = self.local_mesh.sizes[space].owned_total
            incoming = table[table[:, 0] >= owned_here]  # rows the neighbor owns
            if not len(incoming):
                continue
            for name in self.exchanged:
                ds = self.datasets[name]
                if ds.space.name != space:
                    continue
                k = ds.values_per_element
                payload = peer[name].values.take(flat_slots(incoming[:, 1], k))
                staged.append((name, flat_slots(incoming[:, 0], k).ravel(),
                               payload.ravel()))
        self._staged = staged

    def end(self) -> None:
        if self._staged is None:
            raise PartitionBugError("end() called without begin()")
        moved = 0
        for name, slots, payload in self._staged:
            self.datasets[name].values[slots] = payload
            moved += payload.nbytes
        self._staged = None
        self.exchange_count += 1
        self.bytes_exchanged += moved


def check_exchange_symmetry(endpoints: list[HaloEndpoint]) -> None:
    """Tables of each rank pair must list identical global ids in identical order."""
    by_rank = {e.rank: e for e in endpoints}
    for e in endpoints:
        for (space, nbr), table in e.local_mesh.exchange_table.items():
            peer = by_rank[nbr]
            mirror = peer.local_mesh.exchange_table.get((space, e.rank))
            if mirror is None or len(mirror) != len(table):
                raise PartitionBugError(
                    f"asymmetric exchange table for {space} between ranks "
                    f"{e.rank} and {nbr}")
            here = e.local_mesh.global_ids[space][table[:, 0]]
            there = peer.local_mesh.global_ids[space][mirror[:, 0]]
            if not np.array_equal(here, there):
                raise PartitionBugError(
                    f"exchange tables for {space} pair different global ids "
                    f"between ranks {e.rank} and {nbr}")


@dataclass
class VirtualRank:
    rank: int
    local_mesh: LocalMesh
    chain: LoopChain
    datasets: dict[str, Dataset]
    bindings: tuple
    schedule: Schedule
    endpoint: HaloEndpoint
    report: ExecutionReport | None = None


@dataclass
class DistributedResult:
    datasets: dict[str, np.ndarray]  # gathered, in global numbering
    ranks: list[VirtualRank]

    @property
    def exchange_counts(self) -> list[int]:
        return [r.endpoint.exchange_count for r in self.ranks]


def exchanged_dataset_names(loops: tuple[LoopSpec, ...]) -> tuple[str, ...]:
    """Datasets any fused loop reads or increments travel in the exchange."""
    names = []
    for spec in loops:
        for access in spec.accesses:
            if access.mode in (AccessMode.READ, AccessMode.INC):
                if access.dataset not in names:
                    names.append(access.dataset)
    return tuple(names)


def gather(mesh: Mesh, problem: Problem, ranks: list[VirtualRank]) -> dict[str, np.ndarray]:
    """Collect every owned element's values into global arrays.

    Halo copies are discarded; overlapping or missing owners are a
    partition bug.
    """
    totals = {"cells": mesh.num_cells, "edges": mesh.num_edges,
              "verts": mesh.num_vertices}
    out: dict[str, np.ndarray] = {}
    for spec in problem.datasets:
        n = totals[spec.space]
        values = np.full(n * spec.values_per_element, np.nan)
        seen = np.zeros(n, dtype=bool)
        for vr in ranks:
            owned = vr.local_mesh.sizes[spec.space].owned_total
            gids = vr.local_mesh.global_ids[spec.space][:owned]
            if np.any(seen[gids]):
                raise PartitionBugError(
                    f"{spec.space} ownership overlaps while gathering {spec.name!r}")
            seen[gids] = True
            k = spec.values_per_element
            local = vr.datasets[spec.name].values.reshape(-1, k)[:owned]
            values.reshape(-1, k)[gids] = local
        if not seen.all():
            raise PartitionBugError(
                f"{spec.space} elements without owner while gathering {spec.name!r}")
        out[spec.name] = values
    return out


def setup_ranks(mesh: Mesh, problem: Problem, nranks: int, fusion, depth: int,
                initial: dict[str, np.ndarray] | None = None) -> list[list[VirtualRank]]:
    """Partition once, then set up and inspect every rank's sub-chains; run nothing.

    ``fusion`` holds one ``(start, stop, ts)`` per fused sub-chain; the
    result holds one list of ranks per sub-chain.  Each rank builds its whole
    chain once and slices the sub-chains from it, so ``inspect_chain`` raises
    ``DepthExceededError`` for one longer than ``depth``; no sub-chain, or a
    range outside the chain, is an ``InvalidChainError``.  A rank's
    sub-chains share its datasets, which ``initial`` fills from given global
    arrays in place of the problem's initializers.  Each sub-chain's endpoints
    are linked to each other, with no exchange begun; their shared tables are
    checked once.
    """
    fusion = list(fusion)
    if not fusion:
        raise InvalidChainError("setup_ranks needs at least one sub-chain")
    local_meshes = partition_for_ranks(mesh, nranks, depth)
    by_subchain: list[list[VirtualRank]] = [[] for _ in fusion]
    for lm in local_meshes:
        chain, datasets, bindings = local_setup(lm, problem, depth)
        for ranks, (start, stop, ts) in zip(by_subchain, fusion):
            sub = chain.subchain(start, stop)
            endpoint = HaloEndpoint(
                lm, datasets, exchanged_dataset_names(problem.loops[start:stop]))
            ranks.append(VirtualRank(lm.rank, lm, sub, datasets, bindings[start:stop],
                                     inspect_chain(sub, ts, ExecMode.DISTRIBUTED),
                                     endpoint))
        if initial is not None:
            for name, ds in datasets.items():
                k = ds.values_per_element
                gids = lm.global_ids[ds.space.name]
                ds.values.reshape(-1, k)[:] = initial[name].reshape(-1, k)[gids]

    for ranks in by_subchain:
        endpoints = [vr.endpoint for vr in ranks]
        for e in endpoints:
            e.link(endpoints)
    check_exchange_symmetry(endpoints)  # every sub-chain's tables are the partition's
    return by_subchain


def run_subchain(ranks: list[VirtualRank], registry: KernelRegistry) -> None:
    """Execute one sub-chain on every rank, with one halo exchange.

    Every endpoint begins, snapshotting owners, before any rank computes;
    each rank commits between its core and boundary phases.
    """
    for vr in ranks:
        vr.endpoint.begin()
    for vr in ranks:
        vr.report = execute_schedule(vr.schedule, vr.chain, vr.bindings,
                                     vr.datasets, registry,
                                     exchange=vr.endpoint)


def run_distributed(mesh: Mesh, problem: Problem, nranks: int, ts: int,
                    depth: int, registry: KernelRegistry,
                    initial: dict[str, np.ndarray] | None = None) -> DistributedResult:
    """Set up the whole chain as one sub-chain on N virtual ranks, run it, gather.

    ``initial`` is passed to ``setup_ranks``.
    """
    ranks, = setup_ranks(mesh, problem, nranks, [(0, len(problem.loops), ts)],
                         depth, initial)
    run_subchain(ranks, registry)
    return DistributedResult(datasets=gather(mesh, problem, ranks), ranks=ranks)
