#!/usr/bin/env python
"""Quickstart: exact Bregman kNN with BrePartition in ~30 lines.

Builds a BrePartition index over positive vectors under the
Itakura-Saito distance, runs a query, and checks the answer against a
brute-force scan.

Run:  python examples/quickstart.py

Contributing?  The codebase's concurrency/determinism contracts are
machine-checked: run ``PYTHONPATH=src python -m repro.analysis src``
(or ``python -m repro.cli lint``) before pushing.  Rule ids:
scope-threading, lock-order, async-blocking, fixed-order-reduction,
shm-lifecycle.  Suppress a deliberate exception inline with
``# repro: noqa[RULE]`` plus a one-line justification; see the
Testing section of ROADMAP.md for what each rule enforces and how to
add a checker.
"""

import asyncio
import tempfile
from pathlib import Path

import numpy as np

from repro import (
    BrePartitionConfig,
    BrePartitionIndex,
    ItakuraSaito,
    brute_force_knn,
)
from repro.serve import MicroBatcher


def main() -> None:
    rng = np.random.default_rng(0)

    # 2000 positive 64-dimensional vectors (Itakura-Saito's domain).
    points = np.exp(rng.normal(0.0, 0.6, size=(2000, 64)))
    query = np.exp(rng.normal(0.0, 0.6, size=64))

    divergence = ItakuraSaito()
    config = BrePartitionConfig(seed=0)  # M chosen by Theorem 4
    index = BrePartitionIndex(divergence, config).build(points)
    print(f"built {index!r} in {index.construction_seconds:.2f}s "
          f"(M={index.n_partitions} partitions)")

    result = index.search(query, k=10)
    print(f"\ntop-10 neighbours (I/O: {result.stats.pages_read} pages, "
          f"{result.stats.n_candidates} candidates refined):")
    for pid, div_value in result:
        print(f"  point {pid:5d}  divergence {div_value:.4f}")

    # BrePartition is exact: verify against brute force.
    true_ids, true_dists = brute_force_knn(divergence, points, query, 10)
    assert np.allclose(result.divergences, true_dists), "should be exact!"
    print("\nverified: identical to brute-force kNN")

    # Batched queries share one vectorized pass (bound tensor, BB-forest
    # traversal, coalesced page reads) and return the same exact answers.
    # Refinement scores all (candidate, query) pairs through one blocked
    # cross-divergence kernel instead of a per-query loop.
    queries = np.exp(rng.normal(0.0, 0.6, size=(32, 64)))
    batch = index.search_batch(queries, k=10)
    print(f"\nbatch of {len(batch)}: {batch.stats.pages_read} coalesced page "
          f"reads ({batch.stats.pages_saved} saved vs one-at-a-time), "
          f"{batch.stats.cpu_seconds * 1000.0:.1f}ms total")
    for single_query, batched in zip(queries, batch):
        solo = index.search(single_query, k=10)
        assert np.array_equal(solo.ids, batched.ids), "batch must match search"
    print("verified: search_batch identical to per-query search")

    # Sharded storage: the same index can spread its point file across
    # simulated disks (BB-forest leaves striped round-robin); candidate
    # fetches then fan out per shard, with per-shard I/O accounting.
    index.reshard(4)
    sharded_batch = index.search_batch(queries, k=10)
    print(f"\nresharded across 4 disks: page fan-out "
          f"{sharded_batch.stats.pages_read_per_shard} "
          f"(total {sharded_batch.stats.pages_coalesced})")
    for before, after in zip(batch, sharded_batch):
        assert np.array_equal(before.ids, after.ids), "sharding must not change results"
    print("verified: sharded results identical to single-disk results")

    # Parallel fan-out: shard_workers threads charge each shard's pages
    # concurrently; refinement then scores the union in-process (the
    # CLI exposes this as
    # `brepartition search ... --shards 4 --shard-workers 4`).
    # Results are bitwise identical for any worker count.
    index.config.shard_workers = 4
    parallel_batch = index.search_batch(queries, k=10)
    print(f"\n4 fan-out workers: per-shard task times "
          f"{[f'{s * 1e3:.1f}ms' for s in parallel_batch.stats.shard_seconds]}")
    for before, after in zip(sharded_batch, parallel_batch):
        assert np.array_equal(before.ids, after.ids), "workers must not change results"
    print("verified: parallel fan-out identical to sequential fan-out")

    # Every search runs the staged pipeline (Plan -> Fetch -> Refine ->
    # Rerank); per-stage wall time shows where batch time goes.
    split = "  ".join(f"{name} {seconds * 1e3:.1f}ms"
                      for name, seconds in parallel_batch.stats.stage_seconds.items())
    print(f"pipeline stage times: {split}")

    # Async serving: a MicroBatcher coalesces concurrent requests into
    # micro-batches (max_batch_size / max_wait_ms deadlines) and runs the
    # same pipeline on a worker thread -- each client awaits its own
    # SearchResult, bitwise identical to a direct search() call.  The CLI
    # exposes a closed-loop benchmark as `brepartition serve-bench ...`.
    async def serve_demo() -> None:
        serve_queries = np.exp(rng.normal(0.0, 0.6, size=(24, 64)))
        async with MicroBatcher(index, k=10, max_batch_size=8,
                                max_wait_ms=5.0) as batcher:
            responses = await asyncio.gather(
                *(batcher.search(query) for query in serve_queries)
            )
        print(f"\nmicro-batched serving: {len(responses)} concurrent requests "
              f"answered in {batcher.stats.n_batches} batches "
              f"(effective sizes {list(batcher.stats.batch_sizes)})")
        for query, served in zip(serve_queries, responses):
            direct = index.search(query, k=10)
            assert np.array_equal(direct.ids, served.ids), "serving must be exact"
        print("verified: every served response identical to direct search")

    asyncio.run(serve_demo())

    # Concurrent in-flight batches with backpressure: every search call
    # opens its own I/O QueryScope, so up to max_concurrent_batches
    # micro-batches may overlap on the worker pool without corrupting
    # each other's pages-per-query accounting, and max_queue_depth bounds
    # how many requests may wait for dispatch (overflow="wait" parks
    # them; overflow="reject" fails fast with ServerOverloadedError).
    async def concurrent_serve_demo() -> None:
        serve_queries = np.exp(rng.normal(0.0, 0.6, size=(32, 64)))
        async with MicroBatcher(index, k=10, max_batch_size=8,
                                max_wait_ms=5.0, max_concurrent_batches=4,
                                max_queue_depth=16, overflow="wait") as batcher:
            responses = await asyncio.gather(
                *(batcher.search(query) for query in serve_queries)
            )
        stats = batcher.stats
        print(f"\noverlapped serving: {stats.n_requests} requests in "
              f"{stats.n_batches} batches across 4 in-flight workers "
              f"(cancelled {stats.n_cancelled}, failed {stats.n_failed}, "
              f"rejected {stats.n_rejected})")
        for query, served in zip(serve_queries, responses):
            direct = index.search(query, k=10)
            assert np.array_equal(direct.ids, served.ids), \
                "overlapping batches must not change results"
        print("verified: every overlapped response identical to direct search")

    asyncio.run(concurrent_serve_demo())

    # Serving while the index mutates: inserts/deletes land in an
    # in-memory delta buffer (searched exactly alongside the frozen
    # index), every search runs against the atomic (frozen base, delta)
    # snapshot it captured, and merge_threshold folds the delta back
    # into the frozen structures on a background worker -- all while
    # requests keep flowing.
    async def mutating_serve_demo() -> None:
        serve_queries = np.exp(rng.normal(0.0, 0.6, size=(16, 64)))
        fresh = np.exp(rng.normal(0.0, 0.6, size=(12, 64)))
        async with MicroBatcher(index, k=10, max_batch_size=8,
                                max_wait_ms=5.0, merge_threshold=8) as batcher:
            first_pid = await batcher.insert(fresh[0])
            for vec in fresh[1:]:
                await batcher.insert(vec)
            await batcher.delete(int(result.ids[0]))  # retire the old top-1
            responses = await asyncio.gather(
                *(batcher.search(query) for query in serve_queries)
            )
        stats = batcher.stats
        print(f"\nserving under mutation: {stats.n_inserts} inserts + "
              f"{stats.n_deletes} delete served alongside "
              f"{len(responses)} searches ({stats.n_merges} background "
              f"merge(s); index now at epoch {index.epoch})")
        hit = index.search(fresh[0], k=1)
        assert hit.ids[0] == first_pid and hit.divergences[0] == 0.0
        assert int(result.ids[0]) not in index.search(query, k=10).ids
        print("verified: inserts are searchable, the deleted point is gone")

    asyncio.run(mutating_serve_demo())

    # Durability: with a write-ahead log every insert/delete is appended
    # (checksummed, versioned) before it is acknowledged, and merges
    # checkpoint the frozen base atomically.  After a crash,
    # BrePartitionIndex.recover replays the log -- the reopened index
    # answers bitwise identically to the one that crashed.
    with tempfile.TemporaryDirectory() as tmp:
        wal_path = str(Path(tmp) / "quickstart.wal")
        durable_config = BrePartitionConfig(seed=0, wal_path=wal_path)
        durable = BrePartitionIndex(divergence, durable_config).build(points)
        fresh = np.exp(rng.normal(0.0, 0.6, size=(8, 64)))
        for vec in fresh:
            durable.insert(vec)       # WAL-logged before acknowledged
        durable.delete(3)
        before_crash = durable.search(query, k=10)

        # simulate the crash: release the index's log handle, keep only
        # the disk state (the log + its checkpoint sidecar), reopen from it
        durable.close()
        recovered = BrePartitionIndex.recover(
            wal_path, divergence, config=durable_config
        )
        stats = recovered.recovery_stats
        print(f"\ncrash recovery: replayed {stats.replayed_inserts} inserts "
              f"+ {stats.replayed_deletes} deletes from the write-ahead log")
        after_crash = recovered.search(query, k=10)
        assert np.array_equal(before_crash.ids, after_crash.ids)
        assert np.array_equal(before_crash.divergences, after_crash.divergences)
        print("verified: recovered index identical to the pre-crash index")
        recovered.close()

    # Serving through a dead shard: with replication_factor=2 every
    # shard's pages live on two simulated disks (rotating placement),
    # so when a disk dies mid-serve the executor fails reads over to
    # the surviving replica -- same answers, same page accounting --
    # and the per-disk circuit breaker steers later reads around the
    # corpse without paying for the failure again.
    from repro.storage import FaultInjector

    index.reshard(4, replication_factor=2)
    index.shard_health.failure_threshold = 1   # breaker opens on 1 failure
    want = index.search_batch(queries, k=10)
    injector = FaultInjector(seed=0)
    index.attach_fault_injector(injector)
    injector.set_plan(shard=0, broken=True)   # disk 0 is now a brick
    got = index.search_batch(queries, k=10)
    for healthy, degraded in zip(want, got):
        assert np.array_equal(healthy.ids, degraded.ids), \
            "failover must not change results"
    health = index.shard_health.snapshot()
    print(f"\nserving through a dead disk (R=2): {got.stats.n_failovers} "
          f"failover(s), {got.stats.pages_read} pages read "
          f"(healthy run read {want.stats.pages_read}); disk 0 breaker "
          f"state {health[0]['state']!r}")
    injector.heal(0)                          # the disk comes back
    revived = index.search_batch(queries, k=10)
    for healthy, after_heal in zip(want, revived):
        assert np.array_equal(healthy.ids, after_heal.ids)
    print("verified: answers bitwise-identical with a replica of every "
          "shard dead, and again after heal()")


if __name__ == "__main__":
    main()
