"""Parallel query execution: the shard fan-out engine.

The batch engine's per-shard candidate fetches are embarrassingly
parallel -- each shard owns a disjoint slice of the candidate union, its
own simulated disk file and its own mirrored
:class:`~repro.storage.io_stats.DiskAccessTracker` -- but until this
subsystem they ran strictly sequentially.  :class:`ShardExecutor` fans
them out across a configurable thread pool
(:attr:`~repro.core.config.BrePartitionConfig.shard_workers`).

One task per shard
------------------

One fan-out task per shard does the fetch slice of the staged
pipeline's Fetch stage (:class:`repro.pipeline.FetchStage`):

1. **charge** the shard's distinct candidate pages
   (:meth:`~repro.storage.sharded.ShardedDataStore.charge_shard_replica`,
   the per-shard tracker mirroring into the shared aggregate under
   locks so totals still sum exactly);
2. **peek** the shard's slab of union rows into disjoint slices of the
   union-ordered vector array (a shard holding the whole union hands
   its slab over as that array), which the Refine stage then scores as
   one union slab.

Storage is simulated and compute-only: a charge counts pages, it does
not wait for a device.  Worker threads therefore overlap only the
NumPy work that releases the GIL, and whether ``shard_workers > 1``
pays off on a given host is a measurement, not a given.  With one
worker the executor degrades to an inline loop in shard order.

Determinism: tasks write to disjoint output slices and every kernel is
row/pair-bitwise independent, so results are bit-for-bit identical for
any worker count -- the row parity across batch sizes survives
parallelism untouched.

Replication-aware routing (PR 8): on a store with
``replication_factor > 1`` each fan-out task routes through
:meth:`ShardExecutor.call_with_failover` -- health-ordered replicas,
per-disk circuit breakers (:class:`ShardHealthRegistry`), failover on
permanent failure and optional hedged reads -- keeping results bitwise
identical with any ``R - 1`` replicas of each shard dead.

Compute stays in-process: the Refine stage's NumPy kernels run on the
calling thread after the fan-out returns.
"""

from .executor import ShardExecutor, ShardHealthRegistry

__all__ = ["ShardExecutor", "ShardHealthRegistry"]
