"""Parallel query execution: the shard fan-out engine.

The batch engine's per-shard candidate fetches are embarrassingly
parallel -- each shard owns a disjoint slice of the candidate union, its
own simulated disk file and its own mirrored
:class:`~repro.storage.io_stats.DiskAccessTracker` -- but until this
subsystem they ran strictly sequentially.  :class:`ShardExecutor` fans
them out across a configurable number of threads
(:attr:`~repro.core.config.BrePartitionConfig.shard_workers`) of the
index's :class:`FanoutPool`.  The pool starts with the first batch that
needs threads and keeps them across calls, so a batch pays no thread
start or join; a change to ``shard_workers`` restarts it at the new
width, and :meth:`~repro.core.index.BrePartitionIndex.close` joins its
threads.  Concurrent batches share it.

One task per shard
------------------

One fan-out task per shard does the shard's slice of the staged
pipeline's Fetch stage (:class:`repro.pipeline.FetchStage`): it
**charges** the shard's distinct candidate pages
(:meth:`~repro.storage.sharded.ShardedDataStore.charge_shard_replica`,
the per-shard tracker mirroring into the shared aggregate under locks
so totals still sum exactly).  No task copies vectors: the Refine
stage scores the rows straight from the snapshot's pinned frozen base.

Storage is simulated and compute-only: a charge counts pages, it does
not wait for a device.  A charge is a Python loop over pages that holds
the GIL, so worker threads overlap almost nothing, and whether
``shard_workers > 1`` pays off on a given host is a measurement, not a
given.  With one worker the executor degrades to an inline loop in
shard order.  Hedged reads race on threads of their own, not the
pool's.

Determinism: each task returns its own shard's page count and the
scope's dedup decides every charge, so results and page accounting are
bit-for-bit identical for any worker count -- the row parity across
batch sizes survives parallelism untouched.

Replication-aware routing (PR 8): on a store with
``replication_factor > 1`` each fan-out task routes through
:meth:`ShardExecutor.call_with_failover` -- health-ordered replicas,
per-disk circuit breakers (:class:`ShardHealthRegistry`), failover on
permanent failure and optional hedged reads -- keeping results bitwise
identical with any ``R - 1`` replicas of each shard dead.

Compute stays in-process: the Refine stage's NumPy kernels run on the
calling thread after the fan-out returns.
"""

from .executor import FanoutPool, ShardExecutor, ShardHealthRegistry

__all__ = ["FanoutPool", "ShardExecutor", "ShardHealthRegistry"]
