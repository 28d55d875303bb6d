"""Simulated distributed-memory execution: N virtual ranks in one process.

A run partitions the mesh once and sets up every rank once: its local mesh,
whole chain and datasets, and per fused sub-chain a slice of that chain, its
schedule and a halo endpoint.  The rank's sub-chains share its datasets, so
values pass from one sub-chain to the next on the rank itself.  Linking a
sub-chain's endpoints fixes their routes: which owner slots fill which halo
slots.  All halo traffic for one sub-chain execution happens in a single
exchange: staging snapshots every owner's values before any rank computes,
and each rank commits its incoming buffers between its core and boundary
phases.  Staging also fills every halo slot with ``POISON``, so a core tile
that read one before the commit would spread it into the gathered values
and fail verification.
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
    """One rank's side of the halo exchange, its routes fixed at ``link()``.

    link() resolves every route once: per exchange-table entry and exchanged
    dataset of its space, the flat slots this rank receives into, the
    owner's dataset and the owner's flat slots.  begin() poisons every halo
    slot of the rank's datasets and stages each route's owner values; end()
    commits the staged values.  The two calls strictly alternate.
    """

    def __init__(self, local_mesh: LocalMesh, datasets: dict[str, Dataset],
                 exchanged: tuple[str, ...]):
        self.local_mesh = local_mesh
        self.rank = local_mesh.rank
        self.datasets = datasets
        self.exchanged = exchanged
        self.exchange_count = 0
        self.bytes_exchanged = 0
        # peers stage owned slots only; everything past them is halo
        self._halo_starts = [
            (ds, local_mesh.sizes[ds.space.name].owned_total * ds.values_per_element)
            for ds in datasets.values()]
        self._routes: list[tuple[Dataset, np.ndarray, Dataset, np.ndarray]] = []
        self._staged: list[tuple[Dataset, np.ndarray, np.ndarray]] | None = None

    def link(self, endpoints: list["HaloEndpoint"]) -> None:
        # the owners' datasets, not the owners: endpoints holding each other
        # form cycles that keep every rank's arrays alive until a gc pass
        owner_datasets = {e.rank: e.datasets for e in endpoints}
        self._routes = []
        for (space, owner), table in self.local_mesh.exchange_table.items():
            for name in self.exchanged:
                ds = self.datasets[name]
                if ds.space.name == space:
                    k = ds.values_per_element
                    self._routes.append((ds, flat_slots(table[:, 0], k).ravel(),
                                         owner_datasets[owner][name],
                                         flat_slots(table[:, 1], k).ravel()))

    def begin(self) -> None:
        if self._staged is not None:
            raise PartitionBugError("begin() called twice without end()")
        for ds, start in self._halo_starts:
            ds.values[start:] = POISON
        self._staged = [(ds, slots, source.values.take(source_slots))
                        for ds, slots, source, source_slots in self._routes]

    def end(self) -> None:
        if self._staged is None:
            raise PartitionBugError("end() called without begin()")
        moved = 0
        for ds, slots, payload in self._staged:
            ds.values[slots] = payload
            moved += payload.nbytes
        self._staged = None
        self.exchange_count += 1
        self.bytes_exchanged += moved

    def drop(self) -> None:
        """Forget a begun exchange uncounted; halo slots stay ``POISON``."""
        self._staged = None


def check_exchange_tables(endpoints: list[HaloEndpoint]) -> None:
    """Each rank's tables list every halo element once, paired with its owner's."""
    meshes = {e.rank: e.local_mesh for e in endpoints}
    for lm in meshes.values():
        for space, sizes in lm.sizes.items():
            tables = [(owner, table) for (s, owner), table in lm.exchange_table.items()
                      if s == space]
            rows = np.concatenate([np.empty(0, np.int64),
                                   *(table[:, 0] for _, table in tables)])
            # as many rows as halo elements, each listed: each listed once
            listed = np.bincount(rows, minlength=sizes.total)[sizes.owned_total:]
            if len(listed) != len(rows) or not listed.all():
                raise PartitionBugError(
                    f"rank {lm.rank}'s exchange tables do not list each {space} "
                    f"halo element exactly once")
            for owner, table in tables:
                if (lm.global_ids[space][table[:, 0]]
                        != meshes[owner].global_ids[space][table[:, 1]]).any():
                    raise PartitionBugError(
                        f"rank {lm.rank}'s exchange table for {space} owned by "
                        f"rank {owner} pairs different global ids")


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
    are linked to each other, which fixes their routes, with no exchange
    begun; the partition's tables are checked once.
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
    check_exchange_tables(endpoints)  # every sub-chain's tables are the partition's
    return by_subchain


def run_subchain(ranks: list[VirtualRank], registry: KernelRegistry) -> None:
    """Execute one sub-chain on every rank, with one halo exchange.

    Every endpoint begins, snapshotting owners, before any rank computes;
    each rank commits between its core and boundary phases.
    A rank that raises makes every endpoint drop its exchange.
    """
    for vr in ranks:
        vr.endpoint.begin()
    try:
        for vr in ranks:
            vr.report = execute_schedule(vr.schedule, vr.chain, vr.bindings, vr.datasets,
                                         registry, exchange=vr.endpoint)
    except BaseException:
        for vr in ranks:
            vr.endpoint.drop()
        raise


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
