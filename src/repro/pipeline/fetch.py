"""Fetch stage: charge the working set's pages and materialise vectors.

The stage charges the context's candidate-page union once (the
coalescing primitive of the batch engine; at ``B = 1`` simply the one
query's pages) and peeks the union's vectors I/O-free.  On a
:class:`~repro.storage.sharded.ShardedDataStore` the charge-and-peek
fans out one :class:`~repro.exec.ShardExecutor` task per shard, touched
or not (so a dead shard fails the context in ``raise`` mode even when
no candidate lives there): each task charges its shard's slice of the
page union, sleeps out any modeled device latency
(`BrePartitionConfig.simulated_io_iops`; ``time.sleep`` releases the
GIL, so parallel workers overlap waits like independent disks), then
peeks its slab into the union-ordered vector array.

The stage also owns the buffer-pool batch epoch: every context opens a
fresh :meth:`~repro.storage.buffer_pool.BufferPool.begin_batch` epoch,
stamps it onto its :class:`~repro.storage.io_stats.QueryScope`, and the
pool hits this batch scores off pages an *earlier* (or concurrently
in-flight other) batch paid for land in ``ctx.cross_batch_hits``.  All
charging threads ``ctx.scope`` so concurrent contexts never mix their
page accounting.
"""

from __future__ import annotations

import time
from typing import Sequence, Tuple

import numpy as np

from ..storage.io_stats import IOCostModel
from ..storage.sharded import ShardedDataStore
from .base import PipelineStage
from .context import QueryBatchContext

__all__ = ["FetchStage", "union_rows"]


def union_rows(
    candidates: Sequence[np.ndarray], n_points: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Candidate union (sorted global ids) and global-id -> row map."""
    member = np.zeros(n_points, dtype=bool)
    for ids in candidates:
        member[ids] = True
    union = np.flatnonzero(member)
    row_of = np.empty(n_points, dtype=int)
    row_of[union] = np.arange(union.size)
    return union, row_of


class FetchStage(PipelineStage):
    name = "fetch"

    def _store(self, ctx: QueryBatchContext):
        """The context's datastore: the pinned snapshot's (immutable
        under concurrent merges) or the live attribute without one."""
        snap = ctx.snapshot
        return snap.datastore if snap is not None else self.index.datastore

    def run(self, ctx: QueryBatchContext) -> None:
        pool = self.index.buffer_pool
        store = self._store(ctx)
        if pool is not None:
            epoch = pool.begin_batch()
            if ctx.scope is not None:
                ctx.scope.pool_epoch = epoch
        if isinstance(store, ShardedDataStore):
            self._fetch_fanout(ctx, store)
        else:
            self._fetch_single_disk(ctx, store)
        if pool is not None and ctx.scope is not None:
            # the scope's own counter, not a global delta: exact even
            # with other batches hitting the pool mid-flight
            ctx.cross_batch_hits = ctx.scope.cross_batch_hits

    # ------------------------------------------------------------------
    # one simulated disk
    # ------------------------------------------------------------------

    def _retry_counter(self, ctx: QueryBatchContext):
        """Per-retry callback: count on the context and its scope."""

        def bump() -> None:
            ctx.io_retries += 1
            if ctx.scope is not None:
                ctx.scope.count_retry()

        return bump

    def _fetch_single_disk(self, ctx: QueryBatchContext, store) -> None:
        index = self.index
        ctx.union, ctx.row_of = union_rows(ctx.candidates, store.n_points)
        executor = index._make_executor()
        # retried charges cannot double-count: the scope's dedup set
        # keeps every page a prior attempt managed to charge, so a retry
        # re-bills only the pages the fault interrupted
        ctx.pages_coalesced, charged = executor.call_with_retry(
            lambda: store.charge_pages_detailed(ctx.candidates, scope=ctx.scope),
            on_retry=self._retry_counter(ctx),
        )
        if index.config.simulated_io_iops is not None and charged > 0:
            # latency is modeled only on pages that hit the simulated
            # disk: the per-call charged count excludes buffer-pool hits
            # and scope dedup, mirroring the sharded fan-out (which pays
            # the same model through ShardExecutor.io_wait) -- and,
            # unlike a tracker-total delta, stays exact when other
            # batches charge the same tracker concurrently
            io_model = IOCostModel(
                page_size_bytes=index.config.page_size_bytes,
                iops=index.config.simulated_io_iops,
            )
            time.sleep(io_model.seconds_for(charged))
        ctx.vectors = store.peek(ctx.union)

    # ------------------------------------------------------------------
    # sharded fan-out
    # ------------------------------------------------------------------

    def _fetch_fanout(self, ctx: QueryBatchContext, store: ShardedDataStore) -> None:
        """One executor task per shard: charge, wait, peek the slab.

        Tasks scatter into disjoint slices of the union-ordered vector
        array, so the result is bitwise independent of worker count and
        completion order.  The per-shard page split lands in
        ``ctx.pages_per_shard`` and task timings in ``ctx.shard_seconds``.

        Each task routes through
        :meth:`~repro.exec.ShardExecutor.call_with_failover`: with
        ``replication_factor > 1`` a replica whose disk is broken (or
        breaker-open) fails over to the shard's next replica, and a
        replica slower than ``hedge_after_ms`` races one.  Replicas hold
        identical bytes and share the primary's fileno, so results and
        scoped page accounting stay bitwise equal to the fault-free run
        whichever replicas serve.  A shard only lands in ``errors`` --
        and from there in the partial-mode degrade path -- when *every*
        replica is down.
        """
        index = self.index
        ctx.union, ctx.row_of = union_rows(ctx.candidates, store.n_points)
        plan = store.shard_charge_plan(ctx.candidates)
        splits = store.shard_split(ctx.union)
        executor = index._make_executor()

        vectors = np.empty((ctx.union.size, store.dimensionality), dtype=float)
        # one writer per slot (the hedged slot tolerates its two legs
        # racing: both write identical values)
        retries = [0] * store.n_shards
        failovers = [0] * store.n_shards
        hedges = [0] * store.n_shards

        def make_task(s: int):
            positions, local_rows = splits[s]

            def bump_retry() -> None:
                retries[s] += 1

            def bump_failover() -> None:
                failovers[s] += 1

            def bump_hedge() -> None:
                hedges[s] += 1

            def replica_fetch(r: int):
                def fetch():
                    # modeled latency is paid only on pages that actually
                    # hit the simulated disk: the per-call charged count
                    # excludes buffer-pool hits and scope dedup, while the
                    # returned distinct (pool-oblivious) count feeds
                    # pages_coalesced.  Per-call, not a tracker delta --
                    # concurrent batches share the shard trackers but
                    # never each other's scope
                    distinct, charged = store.charge_shard_replica_detailed(
                        s, r, plan[s], scope=ctx.scope
                    )
                    executor.io_wait(charged)
                    if positions.size:
                        vectors[positions] = store.replicas[s][r].peek(local_rows)
                    return distinct

                return fetch

            def task():
                return executor.call_with_failover(
                    [
                        (store.replica_disk(s, r), replica_fetch(r))
                        for r in range(store.replication_factor)
                    ],
                    on_retry=bump_retry,
                    on_failover=bump_failover,
                    on_hedge=bump_hedge,
                )

            return task

        pages, seconds, errors, _ = executor.run_guarded(
            [make_task(s) for s in range(store.n_shards)]
        )
        n_retries = int(sum(retries))
        if n_retries:
            ctx.io_retries += n_retries
            if ctx.scope is not None:
                ctx.scope.count_retry(n_retries)
        ctx.n_failovers += int(sum(failovers))
        ctx.n_hedged += int(sum(hedges))
        failed = {s: err for s, err in enumerate(errors) if err is not None}
        if failed:
            if index.config.shard_failure != "partial":
                raise next(iter(failed.values()))
            self._degrade(ctx, store, splits, vectors, failed)
        ctx.vectors = vectors
        ctx.pages_coalesced = int(sum(p for p in pages if p is not None))
        # per-shard split from this batch's own task results, not the
        # store's shared last_charge_per_shard (racy across batches)
        ctx.pages_per_shard = [int(p) if p is not None else 0 for p in pages]
        ctx.shard_seconds = seconds

    def _degrade(self, ctx, store, splits, vectors, failed) -> None:
        """Partial mode: a dead shard dooms only the queries whose
        candidates live on it; the rest of the batch stays exact.

        The dead shard's union rows never arrived, so they are filled
        with 0.5 -- inside the domain of every supported divergence --
        purely to keep the dense refinement kernel finite; no surviving
        query reads those scores, because a query touching a failed
        shard is excluded from the result set entirely.
        """
        ctx.shard_errors = dict(failed)
        for s in failed:
            positions, _ = splits[s]
            if positions.size:
                vectors[positions] = 0.5
        down = np.zeros(store.n_shards, dtype=bool)
        down[list(failed)] = True
        for q, ids in enumerate(ctx.candidates):
            if ids.size == 0:
                continue
            hit = np.flatnonzero(down[store.shard_of[ids]])
            if hit.size:
                ctx.query_errors[q] = failed[int(store.shard_of[ids[hit[0]]])]
