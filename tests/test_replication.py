"""R-way shard replication: layout, failover parity, breakers, hedging.

The replication contract under test: with ``replication_factor = R``
every shard's pages exist on ``R`` distinct simulated disks (rotating
placement), replicas share the primary's fileno (logical page identity),
and serving stays *bitwise* equal to a fault-free twin -- results and
page accounting both -- with any ``R - 1`` replicas of each shard dead.
Routing is health-aware: consecutive permanent failures open a disk's
circuit breaker (skipped by failover until its half-open probe), and
``hedge_after_ms`` races a slow replica against the next live one.
"""

from __future__ import annotations

import asyncio
import time

import numpy as np
import pytest

from repro.core.config import BrePartitionConfig
from repro.core.index import BrePartitionIndex
from repro.exceptions import InvalidParameterError, ShardUnavailableError
from repro.exec import ShardExecutor, ShardHealthRegistry
from repro.serve import MicroBatcher, make_serving_index
from repro.storage import FaultInjector, FaultPlan
from repro.storage.sharded import ShardedDataStore

from conftest import all_decomposable_divergences, charge_groups, points_for

DIV = all_decomposable_divergences(8)[0][1]

N_SHARDS = 4
R = 2
#: with rotating placement (replica r of shard s on disk (s + r) % S),
#: breaking disks {0, 2} kills exactly one replica of every shard:
#: shard 0 and 3 lose a copy to disk 0, shards 1 and 2 to disk 2.
HALF_THE_DISKS = (0, 2)


def _build(divergence, points, *, injector=None, **overrides):
    config = BrePartitionConfig(
        n_partitions=2, seed=0, page_size_bytes=512, **overrides
    )
    index = BrePartitionIndex(divergence, config)
    if injector is not None:
        index.attach_fault_injector(injector)
    return index.build(points)


def _replicated(divergence, points, *, injector=None, **overrides):
    overrides.setdefault("n_shards", N_SHARDS)
    overrides.setdefault("replication_factor", R)
    return _build(divergence, points, injector=injector, **overrides)


def _assert_same(got, want):
    np.testing.assert_array_equal(got.ids, want.ids)
    np.testing.assert_array_equal(got.divergences, want.divergences)


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------


class TestConfigValidation:
    def test_replication_factor_bounds(self):
        with pytest.raises(InvalidParameterError):
            BrePartitionConfig(n_shards=2, replication_factor=3)
        with pytest.raises(InvalidParameterError):
            BrePartitionConfig(replication_factor=0)
        BrePartitionConfig(n_shards=4, replication_factor=4)  # R == S is fine

    def test_breaker_and_hedge_knobs(self):
        with pytest.raises(InvalidParameterError):
            BrePartitionConfig(breaker_threshold=0)
        with pytest.raises(InvalidParameterError):
            BrePartitionConfig(breaker_reset_s=-0.1)
        with pytest.raises(InvalidParameterError):
            BrePartitionConfig(hedge_after_ms=0.0)
        with pytest.raises(InvalidParameterError):
            BrePartitionConfig(wal_group_commit_ms=-1.0)

    def test_store_rejects_bad_factor(self):
        points = points_for(DIV, 32, 4, seed=1)
        with pytest.raises(InvalidParameterError):
            ShardedDataStore(
                points, page_size_bytes=256, n_shards=2, replication_factor=3
            )

    def test_reshard_validates_factor(self):
        index = _build(DIV, points_for(DIV, 32, 8, seed=2))
        with pytest.raises(InvalidParameterError):
            index.reshard(2, replication_factor=3)


# ----------------------------------------------------------------------
# replicated layout
# ----------------------------------------------------------------------


class TestReplicatedLayout:
    def _store(self):
        points = points_for(DIV, 48, 4, seed=3)
        return ShardedDataStore(
            points, page_size_bytes=256, n_shards=N_SHARDS, replication_factor=R
        )

    def test_rotating_placement(self):
        store = self._store()
        assert len(store.replicas) == N_SHARDS
        for s in range(N_SHARDS):
            assert len(store.replicas[s]) == R
            assert store.replica_disk(s, 0) == s  # primary stays put
            disks = {store.replica_disk(s, r) for r in range(R)}
            assert len(disks) == R  # distinct disks per shard
        # every disk hosts the same number of copies (balanced)
        load = [0] * N_SHARDS
        for s in range(N_SHARDS):
            for r in range(R):
                load[store.replica_disk(s, r)] += 1
        assert load == [R] * N_SHARDS

    def test_replicas_share_fileno_and_bytes(self):
        store = self._store()
        for s in range(N_SHARDS):
            primary = store.replicas[s][0]
            assert primary is store.shards[s]
            for r in range(1, R):
                copy = store.replicas[s][r]
                assert copy.fileno == primary.fileno
                rows = np.arange(primary.n_points)
                np.testing.assert_array_equal(copy.peek(rows), primary.peek(rows))

    def test_replica_trackers_mirror_the_aggregate(self):
        store = self._store()
        for s in range(N_SHARDS):
            assert store.replica_trackers[s][0] is store.shard_trackers[s]
        ids = np.arange(store.n_points)
        charge_groups(store, [ids])
        assert sum(store.shard_pages_read) == store.tracker.total_pages_read
        assert [sum(row) for row in store.replica_pages_read] == (
            store.shard_pages_read
        )
        # a fault-free fetch serves from primaries only
        for row in store.replica_pages_read:
            assert row[1:] == [0] * (R - 1)

    def test_attach_faults_keys_replicas_by_hosting_disk(self):
        store = self._store()
        injector = FaultInjector(seed=0)
        store.attach_faults(injector)
        dead = 1
        injector.set_plan(shard=dead, broken=True)
        for s in range(N_SHARDS):
            for r in range(R):
                replica = store.replicas[s][r]
                local = np.arange(min(2, replica.n_points))
                if store.replica_disk(s, r) == dead:
                    with pytest.raises(ShardUnavailableError):
                        store.charge_shard_replica(s, r, [local])
                else:
                    store.charge_shard_replica(s, r, [local])

    def test_extended_preserves_replication(self):
        store = self._store()
        charge_groups(store, [np.arange(8)])
        before = store.replica_pages_read
        extra = points_for(DIV, 8, 4, seed=4)
        bigger = store.extended(extra)
        assert bigger.replication_factor == R
        assert bigger.replica_pages_read == before  # lifetime counters kept
        for s in range(N_SHARDS):
            for r in range(R):
                assert bigger.replicas[s][r].fileno == store.replicas[s][r].fileno

    def test_repr_mentions_replication(self):
        assert "replication=2" in repr(self._store())


# ----------------------------------------------------------------------
# acceptance core: bitwise parity with one replica of every shard dead
# ----------------------------------------------------------------------


@pytest.mark.parametrize("shard_workers", [1, 4])
def test_serving_with_dead_replicas_is_exact(decomposable, shard_workers):
    """R=2 with one replica of *every* shard broken: ``search``,
    ``search_batch`` and the MicroBatcher must all return bits equal to
    the fault-free twin, with identical page accounting."""
    divergence = decomposable
    points = points_for(divergence, 64, 8, seed=21)
    queries = points_for(divergence, 6, 8, seed=22)
    k = 5

    clean = _replicated(divergence, points, shard_workers=shard_workers)
    injector = FaultInjector(seed=0)
    faulty = _replicated(
        divergence, points, injector=injector, shard_workers=shard_workers
    )
    for disk in HALF_THE_DISKS:
        injector.set_plan(shard=disk, broken=True)

    # single-query path
    for q in queries:
        _assert_same(faulty.search(q, k), clean.search(q, k))

    # batch path: results, page totals, and the per-query scope counts
    want = clean.search_batch(queries, k)
    got = faulty.search_batch(queries, k)
    for w, g in zip(want.results, got.results):
        _assert_same(g, w)
    assert got.failures == {}
    assert got.stats.pages_read == want.stats.pages_read
    assert got.stats.pages_coalesced == want.stats.pages_coalesced
    assert got.stats.pages_read_per_shard == want.stats.pages_read_per_shard
    assert got.stats.n_failovers > 0

    # aggregate accounting equals the fault-free run exactly, and the
    # per-replica mirrors still sum to it
    assert faulty.tracker.total_pages_read == clean.tracker.total_pages_read
    store = faulty.datastore
    assert sum(store.shard_pages_read) == store.tracker.total_pages_read
    assert [sum(row) for row in store.replica_pages_read] == (
        store.shard_pages_read
    )
    # the dead disks never served a page
    for s in range(N_SHARDS):
        for r in range(R):
            if store.replica_disk(s, r) in HALF_THE_DISKS:
                assert store.replica_pages_read[s][r] == 0

    # the micro-batched serving layer rides the same failover
    async def serve():
        async with MicroBatcher(faulty, k, max_batch_size=4) as batcher:
            results = await asyncio.gather(*(batcher.search(q) for q in queries))
            return results, batcher.stats

    results, stats = asyncio.run(serve())
    for q, g in zip(queries, results):
        _assert_same(g, clean.search(q, k))
    assert stats.n_failed == 0
    assert stats.n_failovers > 0
    assert stats.shard_health is not None


def test_all_replicas_dead_still_raises():
    """Failover is not magic: when every replica of a shard is down the
    error propagates (or partial mode fails the doomed queries)."""
    points = points_for(DIV, 64, 8, seed=23)
    injector = FaultInjector(seed=0)
    index = _replicated(DIV, points, injector=injector, n_shards=2)
    injector.set_plan(shard=0, broken=True)
    injector.set_plan(shard=1, broken=True)
    with pytest.raises(ShardUnavailableError):
        index.search_batch(points_for(DIV, 2, 8, seed=24), 3)


def test_replication_is_free_without_faults(decomposable):
    """R > 1 on a healthy store serves from primaries and stays bitwise
    identical to the unreplicated layout, counters included."""
    divergence = decomposable
    points = points_for(divergence, 64, 8, seed=25)
    queries = points_for(divergence, 4, 8, seed=26)
    plain = _build(divergence, points, n_shards=N_SHARDS)
    replicated = _replicated(divergence, points)
    want = plain.search_batch(queries, 5)
    got = replicated.search_batch(queries, 5)
    for w, g in zip(want.results, got.results):
        _assert_same(g, w)
    assert got.stats.pages_read == want.stats.pages_read
    assert got.stats.n_failovers == 0
    assert got.stats.n_hedged == 0
    assert replicated.datastore.shard_pages_read == (
        plain.datastore.shard_pages_read
    )


def test_reshard_into_replication():
    """An unreplicated index can re-lay into a replicated one in place;
    results do not move."""
    points = points_for(DIV, 64, 8, seed=27)
    queries = points_for(DIV, 3, 8, seed=28)
    index = _build(DIV, points)
    want = [index.search(q, 4) for q in queries]
    index.reshard(N_SHARDS, replication_factor=R)
    assert index.config.replication_factor == R
    assert index.datastore.replication_factor == R
    for q, w in zip(queries, want):
        _assert_same(index.search(q, 4), w)


# ----------------------------------------------------------------------
# circuit breaker
# ----------------------------------------------------------------------


class TestShardHealthRegistry:
    def test_full_arc_is_deterministic(self):
        """closed -> open (threshold) -> half_open (reset elapses) ->
        closed (probe success); a failed probe re-opens and re-counts."""
        health = ShardHealthRegistry(failure_threshold=2, reset_seconds=0.05)
        assert health.state(0) == "closed"
        health.record_failure(0)
        assert health.state(0) == "closed"  # streak below threshold
        health.record_failure(0)
        assert health.state(0) == "open"
        assert not health.allow(0)
        assert health.n_breaker_opens == 1

        time.sleep(0.06)
        assert health.state(0) == "half_open"
        assert health.allow(0)  # the probe is admitted

        health.record_failure(0)  # probe fails: re-open, fresh timer
        assert health.state(0) == "open"
        assert health.n_breaker_opens == 2

        time.sleep(0.06)
        assert health.state(0) == "half_open"
        health.record_success(0)  # probe succeeds: closed again
        assert health.state(0) == "closed"
        snap = health.snapshot()
        assert snap[0]["n_breaker_opens"] == 2
        assert snap[0]["n_failures"] == 3
        assert snap[0]["n_successes"] == 1

    def test_success_resets_the_streak(self):
        health = ShardHealthRegistry(failure_threshold=2, reset_seconds=1.0)
        health.record_failure(3)
        health.record_success(3)
        health.record_failure(3)
        assert health.state(3) == "closed"  # never two in a row

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            ShardHealthRegistry(failure_threshold=0)
        with pytest.raises(InvalidParameterError):
            ShardHealthRegistry(reset_seconds=-1.0)


class TestFailoverRouting:
    def _executor(self, **kwargs):
        return ShardExecutor(max_retries=0, backoff_seconds=0.0, **kwargs)

    def test_open_breaker_is_skipped(self):
        health = ShardHealthRegistry(failure_threshold=1, reset_seconds=60.0)
        health.record_failure(0)  # disk 0's breaker opens
        ex = self._executor(health=health)
        calls = []

        def primary():
            calls.append("primary")
            return "primary"

        def backup():
            calls.append("backup")
            return "backup"

        failovers = []
        result = ex.call_with_failover(
            [(0, primary), (1, backup)], on_failover=lambda: failovers.append(1)
        )
        assert result == "backup"
        assert calls == ["backup"]  # disk 0 never attempted
        assert len(failovers) == 1

    def test_open_breaker_is_the_last_resort(self):
        """A deferred replica is still tried once every alternative has
        failed: the breaker may hide a disk that has healed since."""
        health = ShardHealthRegistry(failure_threshold=1, reset_seconds=3600.0)
        health.record_failure(0)  # disk 0's breaker opens
        ex = self._executor(health=health)
        calls = []

        def primary():
            calls.append("primary")
            return "primary"

        def backup():
            calls.append("backup")
            raise ShardUnavailableError("disk 1 is offline")

        failovers = []
        result = ex.call_with_failover(
            [(0, primary), (1, backup)], on_failover=lambda: failovers.append(1)
        )
        assert result == "primary"
        assert calls == ["backup", "primary"]
        # one for deferring disk 0, one for moving past disk 1's failure
        assert len(failovers) == 2
        assert health.state(0) == "closed"  # the success closed it
        assert health.state(1) == "open"

    def test_healed_replica_behind_open_breaker_serves_end_to_end(self):
        """Disk 2's breaker opens, disk 2 heals, disk 3 breaks: shard 2
        (replicas on disks 2 and 3) is served from disk 2 instead of
        raising, although its breaker cannot reset for an hour."""
        points = points_for(DIV, 96, 8, seed=33)
        queries = points_for(DIV, 4, 8, seed=34)
        clean = _replicated(DIV, points)
        injector = FaultInjector(seed=0)
        index = _replicated(
            DIV, points, injector=injector, breaker_threshold=1, breaker_reset_s=3600.0
        )
        want = clean.search_batch(queries, 4)

        injector.set_plan(shard=2, broken=True)
        got = index.search_batch(queries, 4)
        for w, g in zip(want.results, got.results):
            _assert_same(g, w)
        assert index.shard_health.state(2) == "open"

        injector.heal(2)
        injector.set_plan(shard=3, broken=True)
        got = index.search_batch(queries, 4)
        assert got.failures == {}
        for w, g in zip(want.results, got.results):
            _assert_same(g, w)
        assert got.stats.pages_read == want.stats.pages_read
        assert got.stats.n_failovers > 0
        assert index.shard_health.state(2) == "closed"
        assert index.shard_health.state(3) == "open"

    def test_all_breakers_open_probes_placement_order(self):
        """With nowhere live to route, the placement order is probed
        anyway -- a healed single-replica store recovers instantly."""
        health = ShardHealthRegistry(failure_threshold=1, reset_seconds=60.0)
        health.record_failure(0)
        ex = self._executor(health=health)
        result = ex.call_with_failover([(0, lambda: "served")])
        assert result == "served"
        assert health.state(0) == "closed"  # the success closed it

    def test_breaker_opens_end_to_end_and_probe_closes_it(self):
        """Scripted arc through real searches: a mid-run kill opens the
        disk's breaker; after heal + reset the probe closes it, and
        every response along the way stays exact."""
        points = points_for(DIV, 64, 8, seed=31)
        queries = points_for(DIV, 3, 8, seed=32)
        clean = _replicated(DIV, points, n_shards=2)
        injector = FaultInjector(seed=0)
        index = _replicated(
            DIV,
            points,
            injector=injector,
            n_shards=2,
            breaker_threshold=1,
            breaker_reset_s=0.05,
        )
        want = clean.search_batch(queries, 4)

        injector.set_plan(shard=0, fail_after_n_calls=0)  # disk 0 dies now
        got = index.search_batch(queries, 4)
        for w, g in zip(want.results, got.results):
            _assert_same(g, w)
        assert got.stats.n_failovers > 0
        assert index.shard_health.state(0) == "open"
        assert index.shard_health.n_breaker_opens == 1

        # while open, disk 0 is skipped without touching the injector
        before = injector.n_injected
        got = index.search_batch(queries, 4)
        for w, g in zip(want.results, got.results):
            _assert_same(g, w)
        assert injector.n_injected == before

        injector.heal(0)
        time.sleep(0.06)  # breaker reports half_open
        assert index.shard_health.state(0) == "half_open"
        # break the *other* disk: shard 0's closed replica (disk 1) now
        # fails, so routing falls through to the half-open probe on
        # disk 0 -- which succeeds and closes the breaker
        injector.set_plan(shard=1, broken=True)
        got = index.search_batch(queries, 4)
        for w, g in zip(want.results, got.results):
            _assert_same(g, w)
        assert index.shard_health.state(0) == "closed"
        assert index.shard_health.state(1) == "open"
        assert index.shard_health.n_breaker_opens == 2


class TestHeal:
    def test_heal_one_shard_overrides_faulty_default(self):
        injector = FaultInjector(seed=0)
        injector.set_plan(broken=True)  # default: everything is down
        injector.heal(2)
        assert injector.plan_for(2).idle
        assert injector.plan_for(0).broken

    def test_heal_everything_equals_clear(self):
        injector = FaultInjector(seed=0)
        injector.set_plan(shard=1, broken=True)
        injector.set_plan(shard=2, stall_seconds=0.5)
        injector.heal()
        assert injector.plan_for(1).idle
        assert injector.plan_for(2).idle

    def test_fail_after_n_calls_validation(self):
        with pytest.raises(InvalidParameterError):
            FaultPlan(fail_after_n_calls=-1)
        assert not FaultPlan(fail_after_n_calls=0).idle
        assert FaultPlan().idle


# ----------------------------------------------------------------------
# hedged reads
# ----------------------------------------------------------------------


class TestHedgedReads:
    def test_hedge_wins_against_a_stalled_replica(self, decomposable):
        """A stalled primary is raced after ``hedge_after_ms``; the
        backup's result is bitwise the same and arrives without waiting
        out the stall."""
        divergence = decomposable
        points = points_for(divergence, 64, 8, seed=41)
        queries = points_for(divergence, 4, 8, seed=42)
        clean = _replicated(divergence, points, n_shards=2)
        want = clean.search_batch(queries, 4)

        injector = FaultInjector(seed=0)
        index = _replicated(
            divergence,
            points,
            injector=injector,
            n_shards=2,
            hedge_after_ms=10.0,
        )
        injector.set_plan(shard=0, stall_seconds=0.25)
        start = time.perf_counter()
        got = index.search_batch(queries, 4)
        elapsed = time.perf_counter() - start
        for w, g in zip(want.results, got.results):
            _assert_same(g, w)
        assert got.stats.n_hedged > 0
        assert got.stats.pages_read == want.stats.pages_read
        # two shards stall at most one hedge window each plus slack --
        # far below the 0.25s-per-charge stalled path
        assert elapsed < 0.2

    def test_no_hedge_on_a_fast_store(self):
        points = points_for(DIV, 64, 8, seed=43)
        index = _replicated(DIV, points, n_shards=2, hedge_after_ms=200.0)
        got = index.search_batch(points_for(DIV, 3, 8, seed=44), 4)
        assert got.stats.n_hedged == 0

    def test_hedge_straggler_does_not_corrupt_accounting(self):
        """The losing leg keeps running after the winner returns; its
        charges dedup in the same scope, so totals match a clean run."""
        points = points_for(DIV, 64, 8, seed=45)
        queries = points_for(DIV, 4, 8, seed=46)
        clean = _replicated(DIV, points, n_shards=2)
        want = clean.search_batch(queries, 4)
        injector = FaultInjector(seed=0)
        index = _replicated(
            DIV, points, injector=injector, n_shards=2, hedge_after_ms=5.0
        )
        injector.set_plan(shard=0, stall_seconds=0.05)
        got = index.search_batch(queries, 4)
        time.sleep(0.15)  # let every straggler finish charging
        for w, g in zip(want.results, got.results):
            _assert_same(g, w)
        assert index.tracker.total_pages_read == clean.tracker.total_pages_read
        store = index.datastore
        assert sum(store.shard_pages_read) == store.tracker.total_pages_read


def test_mid_run_disk_kill_is_served_exactly_then_healed():
    """An R=2 fonts store loses disk 0 mid-run to a scheduled
    ``fail_after_n_calls`` kill.  Batches and batcher-served requests
    stay bitwise equal to the fault-free twin with exact page
    accounting (failover re-charges dedup in the same scope), the dead
    disk's breaker opens, and serving stays exact after the heal."""
    shape = dict(
        dataset_name="fonts",
        n=400,
        n_queries=32,
        n_shards=N_SHARDS,
        replication_factor=R,
    )
    dataset, clean = make_serving_index(**shape)
    _, chaotic = make_serving_index(
        **shape, breaker_threshold=1, breaker_reset_s=0.05
    )
    injector = FaultInjector(seed=0)
    chaotic.attach_fault_injector(injector)
    queries = dataset.queries
    k = 10
    store = chaotic.datastore

    def assert_mirrors_exact():
        assert sum(store.shard_pages_read) == store.tracker.total_pages_read
        assert [sum(row) for row in store.replica_pages_read] == (
            store.shard_pages_read
        )

    # the same four batches on both indexes; disk 0 serves two more
    # charge calls, so it dies between the second and third batch
    injector.set_plan(shard=0, fail_after_n_calls=2)
    n_failovers = 0
    for start in range(0, len(queries), 8):
        chunk = queries[start : start + 8]
        want = clean.search_batch(chunk, k)
        got = chaotic.search_batch(chunk, k)
        for w, g in zip(want.results, got.results):
            _assert_same(g, w)
        assert got.failures == {}
        assert got.stats.pages_read == want.stats.pages_read
        assert got.stats.pages_read_per_shard == want.stats.pages_read_per_shard
        n_failovers += got.stats.n_failovers
    assert n_failovers > 0  # the kill actually re-routed reads
    assert chaotic.tracker.total_pages_read == clean.tracker.total_pages_read
    assert chaotic.shard_health.n_breaker_opens >= 1
    assert_mirrors_exact()

    # the asyncio front-end rides the same failover while the disk
    # stays dead, then again after the heal
    reference = [clean.search(query, k) for query in queries]

    async def serve():
        async with MicroBatcher(chaotic, k, max_batch_size=8) as batcher:
            results = await asyncio.gather(
                *(batcher.search(query) for query in queries)
            )
            return results, batcher.stats

    results, stats = asyncio.run(serve())
    for w, g in zip(reference, results):
        _assert_same(g, w)
    assert stats.n_failed == 0
    assert stats.n_breaker_opens >= 1
    # the opened breaker is surfaced, and routing steered around the
    # dead disk without failing a served request
    assert stats.shard_health is not None
    assert stats.shard_health[0]["state"] != "closed"

    injector.heal(0)
    results, stats = asyncio.run(serve())
    for w, g in zip(reference, results):
        _assert_same(g, w)
    assert stats.n_failed == 0
    assert_mirrors_exact()


# ----------------------------------------------------------------------
# seeded chaos soak: mutations + faults + heal vs the fault-free twin
# ----------------------------------------------------------------------


@pytest.mark.slow
def test_chaos_soak_matches_fault_free_twin():
    """Satellite acceptance: a seeded storm of mutations, searches,
    transient/stall/broken faults and one mid-run heal.  Every response
    must be bitwise equal to the fault-free twin (or an explicitly
    surfaced failure -- none occur here, since R=2 keeps a live replica
    per shard throughout), and page accounting must stay exact."""
    points = points_for(DIV, 96, 8, seed=51)
    pool = points_for(DIV, 24, 8, seed=52)
    queries = points_for(DIV, 8, 8, seed=53)
    k = 5

    twin = _replicated(DIV, points)
    injector = FaultInjector(seed=9)
    chaos = _replicated(
        DIV,
        points,
        injector=injector,
        io_max_retries=16,
        io_backoff_ms=0.0,
        io_backoff_cap_ms=0.0,
        breaker_threshold=3,
        breaker_reset_s=0.05,
    )

    #: step -> fault-schedule change (disks, not logical shards)
    script = {
        3: lambda: injector.set_plan(shard=1, probability=0.3),
        6: lambda: injector.set_plan(shard=2, broken=True),
        9: lambda: injector.set_plan(shard=0, stall_seconds=0.002),
        12: lambda: injector.heal(2),
        15: lambda: injector.set_plan(shard=3, fail_after_n_calls=4),
    }

    rng = np.random.default_rng(7)
    next_pool = 0
    inserted = []
    for step in range(20):
        if step in script:
            script[step]()
        action = rng.choice(["search", "batch", "insert", "delete"])
        if action == "insert" and next_pool < len(pool):
            point = pool[next_pool]
            next_pool += 1
            pid = twin.insert(point)
            assert chaos.insert(point) == pid
            inserted.append(pid)
        elif action == "delete" and inserted:
            pid = inserted.pop()  # same id on both sides
            twin.delete(pid)
            chaos.delete(pid)
        elif action == "batch":
            want = twin.search_batch(queries, k)
            got = chaos.search_batch(queries, k)
            assert got.failures == {}
            for w, g in zip(want.results, got.results):
                _assert_same(g, w)
            assert got.stats.pages_read == want.stats.pages_read
        else:
            q = queries[int(rng.integers(len(queries)))]
            _assert_same(chaos.search(q, k), twin.search(q, k))

    # the storm actually happened
    assert injector.n_injected > 0 or injector.n_stalls > 0

    # end state: accounting exact, mirrors sum to the aggregate
    assert chaos.tracker.total_pages_read == twin.tracker.total_pages_read
    store = chaos.datastore
    assert sum(store.shard_pages_read) == store.tracker.total_pages_read
    assert [sum(row) for row in store.replica_pages_read] == (
        store.shard_pages_read
    )

    # and serving still works after the storm with everything healed
    injector.heal()
    want = twin.search_batch(queries, k)
    got = chaos.search_batch(queries, k)
    for w, g in zip(want.results, got.results):
        _assert_same(g, w)
