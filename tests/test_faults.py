"""Fault injection, retry/backoff, degraded serving, exact accounting.

The robustness contract under test: with seeded transient faults on the
simulated disks and retry/backoff enabled, every serving response is
bitwise equal to a fault-free run and the page accounting stays exact
(per-scope counts unchanged, per-shard mirrors summing to the
aggregate); a permanently dead shard either propagates
(``shard_failure="raise"``) or fails only the queries whose candidates
live on it (``"partial"``), and the asyncio serving layer degrades per
request -- deadlines, admission timeouts, merge retries -- instead of
falling over.
"""

from __future__ import annotations

import asyncio
import time

import numpy as np
import pytest

from repro.core.config import BrePartitionConfig
from repro.core.index import BrePartitionIndex
from repro.exceptions import (
    DeadlineExceededError,
    InvalidParameterError,
    ServerOverloadedError,
    ShardUnavailableError,
    TransientIOError,
)
from repro.exec import ShardExecutor
from repro.pipeline import PlanStage, QueryBatchContext
from repro.serve import MicroBatcher
from repro.storage import DataStore, FaultInjector, FaultPlan

from conftest import all_decomposable_divergences, points_for

DIV = all_decomposable_divergences(8)[0][1]


def _build(divergence, points, *, injector=None, **overrides):
    config = BrePartitionConfig(
        n_partitions=2, seed=0, page_size_bytes=512, **overrides
    )
    index = BrePartitionIndex(divergence, config)
    if injector is not None:
        index.attach_fault_injector(injector)
    return index.build(points)


# ----------------------------------------------------------------------
# plans and the injector
# ----------------------------------------------------------------------


class TestFaultPlan:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            FaultPlan(probability=1.5)
        with pytest.raises(InvalidParameterError):
            FaultPlan(max_faults=-1)
        with pytest.raises(InvalidParameterError):
            FaultPlan(stall_seconds=-0.1)

    def test_idle(self):
        assert FaultPlan().idle
        assert FaultPlan(probability=0.9, max_faults=0).idle
        assert not FaultPlan(probability=0.1).idle
        assert not FaultPlan(broken=True).idle
        assert not FaultPlan(stall_seconds=0.01).idle


class TestFaultInjector:
    def _faulty_store(self, seed, probability=0.5, **kwargs):
        points = points_for(DIV, 40, 4, seed=11)
        store = DataStore(points, page_size_bytes=64)
        injector = FaultInjector(seed=seed)
        injector.set_plan(probability=probability, **kwargs)
        store.attach_faults(injector)
        return store, injector

    def _outcome_trace(self, store, n_calls=30):
        trace = []
        for _ in range(n_calls):
            scope = store.tracker.scope()
            try:
                store.fetch(np.arange(store.n_points), scope=scope)
                trace.append("ok")
            except TransientIOError:
                trace.append("fault")
            finally:
                store.tracker.finish_scope(scope)
        return trace

    def test_same_seed_same_faults(self):
        a_store, a = self._faulty_store(seed=7)
        b_store, b = self._faulty_store(seed=7)
        assert self._outcome_trace(a_store) == self._outcome_trace(b_store)
        assert a.n_injected == b.n_injected > 0

    def test_max_faults_budget_is_exact(self):
        store, injector = self._faulty_store(seed=1, probability=1.0, max_faults=3)
        trace = self._outcome_trace(store, n_calls=10)
        assert trace == ["fault"] * 3 + ["ok"] * 7
        assert injector.n_injected == 3
        assert injector.injected_per_shard == {0: 3}

    def test_clear_stops_faults_keeps_counters(self):
        store, injector = self._faulty_store(seed=2, probability=1.0)
        with pytest.raises(TransientIOError):
            store.fetch([0, 1])
        injector.clear()
        store.fetch([0, 1])  # no fault
        assert injector.n_injected == 1

    def test_broken_shard_refuses_every_access(self):
        store, injector = self._faulty_store(seed=3, probability=0.0)
        injector.set_plan(broken=True)
        with pytest.raises(ShardUnavailableError):
            store.fetch([0])
        with pytest.raises(ShardUnavailableError):
            store.scan()

    def test_stall_counts_and_sleeps(self):
        store, injector = self._faulty_store(
            seed=4, probability=0.0, stall_seconds=0.01
        )
        start = time.perf_counter()
        store.fetch([0])
        assert time.perf_counter() - start >= 0.01
        assert injector.n_stalls == 1

    def test_fail_after_n_calls_kills_mid_run(self):
        """The scheduled kill allows exactly N more access calls, then
        behaves as broken -- until a heal repairs it."""
        store, injector = self._faulty_store(seed=8, probability=0.0)
        injector.set_plan(fail_after_n_calls=2)
        store.fetch([0])
        store.fetch([1])  # the allowance is spent
        with pytest.raises(ShardUnavailableError):
            store.fetch([2])
        with pytest.raises(ShardUnavailableError):
            store.fetch([2])  # and stays dead
        injector.heal(0)
        store.fetch([2])  # repaired

    def test_reinstalling_a_plan_resets_the_countdown(self):
        store, injector = self._faulty_store(seed=9, probability=0.0)
        injector.set_plan(fail_after_n_calls=1)
        store.fetch([0])
        injector.set_plan(fail_after_n_calls=1)  # fresh allowance
        store.fetch([1])
        with pytest.raises(ShardUnavailableError):
            store.fetch([2])

    def test_cached_pages_never_fault(self):
        """A page the scope already admitted models cached data -- the
        flaky device cannot fail it, which is what makes retries make
        monotone progress (the attempt's surviving prefix shrinks the
        fault surface)."""
        store, injector = self._faulty_store(seed=5, probability=0.0)
        with store.tracker.scope() as scope:
            store.fetch([0, 1, 2, 3], scope=scope)  # charge these fault-free
            injector.set_plan(probability=1.0)
            store.fetch([0, 1, 2, 3], scope=scope)  # same scope: cached
            assert injector.n_injected == 0
            with pytest.raises(TransientIOError):
                # new pages fault
                store.fetch(np.arange(store.n_points), scope=scope)
            assert injector.n_injected == 1


# ----------------------------------------------------------------------
# executor retry/backoff
# ----------------------------------------------------------------------


class TestExecutorRetry:
    def test_backoff_is_capped_exponential(self):
        ex = ShardExecutor(max_retries=8, backoff_seconds=0.001, backoff_cap_seconds=0.004)
        assert [ex.backoff_for(a) for a in range(4)] == [0.001, 0.002, 0.004, 0.004]

    def test_transient_faults_retry_to_success(self):
        ex = ShardExecutor(max_retries=3, backoff_seconds=0.0)
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise TransientIOError("flap")
            return "done"

        retried = []
        assert ex.call_with_retry(flaky, on_retry=lambda: retried.append(1)) == "done"
        assert len(attempts) == 3 and len(retried) == 2

    def test_exhaustion_becomes_permanent(self):
        ex = ShardExecutor(max_retries=2, backoff_seconds=0.0)

        def always():
            raise TransientIOError("flap")

        with pytest.raises(ShardUnavailableError):
            ex.call_with_retry(always)

    def test_permanent_and_foreign_errors_never_retry(self):
        ex = ShardExecutor(max_retries=5, backoff_seconds=0.0)
        calls = []

        def broken():
            calls.append(1)
            raise ShardUnavailableError("down")

        with pytest.raises(ShardUnavailableError):
            ex.call_with_retry(broken)
        assert len(calls) == 1  # no retry on permanent faults

        def bug():
            raise ValueError("not a device problem")

        with pytest.raises(ValueError):
            ex.call_with_retry(bug)

    def test_run_guarded_captures_per_task(self):
        ex = ShardExecutor(max_retries=1, backoff_seconds=0.0)
        flaps = []

        def flaky():
            flaps.append(1)
            if len(flaps) == 1:
                raise TransientIOError("flap")
            return "recovered"

        def dead():
            raise ShardUnavailableError("down")

        results, seconds, errors, retries = ex.run_guarded(
            [flaky, dead, lambda: "fine"]
        )
        assert results == ["recovered", None, "fine"]
        assert errors[0] is None and errors[2] is None
        assert isinstance(errors[1], ShardUnavailableError)
        assert retries == [1, 0, 0]
        assert len(seconds) == 3

        with pytest.raises(ValueError):  # bugs still propagate
            ex.run_guarded([lambda: (_ for _ in ()).throw(ValueError("bug"))])


# ----------------------------------------------------------------------
# transient faults end to end: bitwise parity + exact accounting
# ----------------------------------------------------------------------


@pytest.mark.parametrize("n_shards", [1, 4])
def test_search_under_transient_faults_is_exact(decomposable, n_shards):
    """Acceptance core: per-shard transient faults + retry/backoff must
    change neither a single bit of any response nor a single page of
    any count."""
    divergence = decomposable
    points = points_for(divergence, 64, 8, seed=21)
    queries = points_for(divergence, 6, 8, seed=22)
    k = 5

    clean = _build(divergence, points, n_shards=n_shards)
    injector = FaultInjector(seed=42)
    injector.set_plan(probability=0.3)  # >= the 0.05 acceptance floor
    faulty = _build(
        divergence,
        points,
        injector=injector,
        n_shards=n_shards,
        io_max_retries=64,
        io_backoff_ms=0.0,
        io_backoff_cap_ms=0.0,
    )

    batch_clean = clean.search_batch(queries, k)
    batch_faulty = faulty.search_batch(queries, k)
    for want, got in zip(batch_clean.results, batch_faulty.results):
        np.testing.assert_array_equal(got.ids, want.ids)
        np.testing.assert_array_equal(got.divergences, want.divergences)
    assert batch_faulty.failures == {}
    assert injector.n_injected > 0
    assert batch_faulty.stats.io_retries > 0

    # accounting is exact under retries: same pages as the fault-free
    # run, and the shard mirrors still sum to the aggregate
    assert batch_faulty.stats.pages_read == batch_clean.stats.pages_read
    assert batch_faulty.stats.pages_coalesced == batch_clean.stats.pages_coalesced
    assert faulty.tracker.total_pages_read == clean.tracker.total_pages_read
    if n_shards > 1:
        assert batch_faulty.stats.pages_read_per_shard == (
            batch_clean.stats.pages_read_per_shard
        )
        mirrors = sum(
            t.total_pages_read for t in faulty.datastore.shard_trackers
        )
        assert mirrors == faulty.tracker.total_pages_read

    # the single-query path retries too, to the same bits
    for q in queries:
        want = clean.search(q, k)
        got = faulty.search(q, k)
        np.testing.assert_array_equal(got.ids, want.ids)
        np.testing.assert_array_equal(got.divergences, want.divergences)
    assert faulty.tracker.total_pages_read == clean.tracker.total_pages_read


def test_fault_budget_counts_retries_deterministically():
    """probability=1.0 with a finite budget: exactly ``max_faults``
    injections, absorbed by exactly that many counted retries."""
    points = points_for(DIV, 64, 8, seed=23)
    queries = points_for(DIV, 4, 8, seed=24)
    injector = FaultInjector(seed=0)
    injector.set_plan(probability=1.0, max_faults=5)
    index = _build(
        DIV, points, injector=injector, io_max_retries=16, io_backoff_ms=0.0
    )
    batch = index.search_batch(queries, 3)
    assert injector.n_injected == 5
    assert batch.stats.io_retries == 5


def test_exhausted_retries_raise_by_default():
    points = points_for(DIV, 64, 8, seed=25)
    injector = FaultInjector(seed=0)
    injector.set_plan(probability=1.0)  # unbounded: retries cannot win
    index = _build(
        DIV, points, injector=injector, io_max_retries=2, io_backoff_ms=0.0
    )
    with pytest.raises(ShardUnavailableError):
        index.search_batch(points_for(DIV, 2, 8, seed=26), 3)


def test_injector_survives_merge_republish():
    """The injector is attached at the index, so the datastore a merge
    publishes is faulty too."""
    points = points_for(DIV, 48, 8, seed=27)
    injector = FaultInjector(seed=0)
    index = _build(DIV, points, injector=injector, io_max_retries=0)
    for p in points_for(DIV, 4, 8, seed=28):
        index.insert(p)
    index.merge()
    injector.set_plan(probability=1.0)
    with pytest.raises(ShardUnavailableError):
        index.search_batch(points_for(DIV, 2, 8, seed=29), 3)


# ----------------------------------------------------------------------
# permanent shard failure: raise vs partial
# ----------------------------------------------------------------------


class TestShardFailurePolicies:
    N_SHARDS = 4
    BROKEN = 1

    def _index(self, **overrides):
        points = points_for(DIV, 64, 8, seed=31)
        injector = FaultInjector(seed=0)
        index = _build(
            DIV, points, injector=injector, n_shards=self.N_SHARDS, **overrides
        )
        return index, injector

    def test_raise_mode_propagates(self):
        index, injector = self._index()
        injector.set_plan(shard=self.BROKEN, broken=True)
        with pytest.raises(ShardUnavailableError):
            index.search_batch(points_for(DIV, 3, 8, seed=32), 3)

    @pytest.mark.parametrize("mode", ["raise", "partial"])
    def test_search_raises_when_its_candidates_touch_a_broken_shard(self, mode):
        """A single search has no partial result to return: in either
        mode a dead shard holding one of its candidates raises."""
        index, injector = self._index(shard_failure=mode)
        query = points_for(DIV, 1, 8, seed=35)[0]
        ctx = QueryBatchContext(
            queries=query[None, :], k=3, snapshot=index.snapshot()
        )
        PlanStage(index).run(ctx)
        broken = int(index.datastore.shard_of[ctx.candidates[0][0]])
        injector.set_plan(shard=broken, broken=True)
        with pytest.raises(ShardUnavailableError):
            index.search(query, 3)

    def test_partial_mode_fails_only_doomed_queries(self, monkeypatch):
        """Steer query 0's candidates off the broken shard: it must
        return bits identical to the same steered fault-free run, while
        query 1 (candidates untouched, so it lands on the broken shard)
        fails alone."""
        index, injector = self._index(shard_failure="partial")
        queries = points_for(DIV, 2, 8, seed=33)
        broken = self.BROKEN
        original = PlanStage.run

        def steered(stage, ctx):
            original(stage, ctx)
            store = ctx.snapshot.datastore
            keep = store.shard_of[ctx.candidates[0]] != broken
            ctx.candidates[0] = ctx.candidates[0][keep]

        monkeypatch.setattr(PlanStage, "run", steered)
        baseline = index.search_batch(queries, 3)
        assert baseline.failures == {}

        injector.set_plan(shard=broken, broken=True)
        degraded = index.search_batch(queries, 3)
        assert set(degraded.failures) == {1}
        assert isinstance(degraded.failures[1], ShardUnavailableError)
        assert degraded.results[1] is None
        assert degraded.ids[1] is None
        assert degraded.stats.n_failed_queries == 1
        np.testing.assert_array_equal(
            degraded.results[0].ids, baseline.results[0].ids
        )
        np.testing.assert_array_equal(
            degraded.results[0].divergences, baseline.results[0].divergences
        )

    def test_partial_mode_recovers_after_repair(self):
        index, injector = self._index(shard_failure="partial")
        queries = points_for(DIV, 3, 8, seed=34)
        want = index.search_batch(queries, 3)
        injector.set_plan(shard=self.BROKEN, broken=True)
        degraded = index.search_batch(queries, 3)
        assert degraded.failures  # broad queries touch every shard
        injector.clear()  # the shard comes back
        healed = index.search_batch(queries, 3)
        assert healed.failures == {}
        for w, h in zip(want.results, healed.results):
            np.testing.assert_array_equal(h.ids, w.ids)
            np.testing.assert_array_equal(h.divergences, w.divergences)


# ----------------------------------------------------------------------
# serving layer under faults
# ----------------------------------------------------------------------

K = 4


def _serve_points():
    points = points_for(DIV, 64, 8, seed=41)
    queries = points_for(DIV, 8, 8, seed=42)
    return points, queries


class TestServeUnderFaults:
    def test_serving_parity_under_transient_faults(self):
        points, queries = _serve_points()
        clean = _build(DIV, points)
        injector = FaultInjector(seed=5)
        injector.set_plan(probability=1.0, max_faults=4)
        faulty = _build(
            DIV, points, injector=injector, io_max_retries=16, io_backoff_ms=0.0
        )

        async def serve():
            async with MicroBatcher(faulty, K, max_batch_size=4) as batcher:
                return await asyncio.gather(*(batcher.search(q) for q in queries))

        results = asyncio.run(serve())
        assert injector.n_injected == 4
        for q, got in zip(queries, results):
            want = clean.search(q, K)
            np.testing.assert_array_equal(got.ids, want.ids)
            np.testing.assert_array_equal(got.divergences, want.divergences)

    def test_broken_shard_fails_requests_not_server(self):
        points, queries = _serve_points()
        injector = FaultInjector(seed=6)
        index = _build(
            DIV, points, injector=injector, n_shards=4, shard_failure="partial"
        )
        want = [index.search(q, K) for q in queries]
        injector.set_plan(shard=2, broken=True)

        async def serve():
            async with MicroBatcher(index, K, max_batch_size=4) as batcher:
                degraded = await asyncio.gather(
                    *(batcher.search(q) for q in queries), return_exceptions=True
                )
                injector.clear()  # repair: the same server keeps going
                healed = await asyncio.gather(
                    *(batcher.search(q) for q in queries)
                )
                return degraded, healed, batcher.stats

        degraded, healed, stats = asyncio.run(serve())
        n_failed = sum(isinstance(r, ShardUnavailableError) for r in degraded)
        assert n_failed > 0  # broad queries hit the dead shard
        assert stats.n_failed == n_failed
        for r, w in zip(degraded, want):  # survivors stay exact
            if not isinstance(r, BaseException):
                np.testing.assert_array_equal(r.ids, w.ids)
        for r, w in zip(healed, want):
            np.testing.assert_array_equal(r.ids, w.ids)
            np.testing.assert_array_equal(r.divergences, w.divergences)

    def test_merge_retry_then_success(self, monkeypatch):
        points, _ = _serve_points()
        index = _build(DIV, points)
        real_merge = index.merge
        failures = [TransientIOError("flap"), TransientIOError("flap")]

        def flaky_merge(*args, **kwargs):
            if failures:
                raise failures.pop()
            return real_merge(*args, **kwargs)

        monkeypatch.setattr(index, "merge", flaky_merge)

        async def serve():
            async with MicroBatcher(
                index,
                K,
                merge_threshold=1,
                merge_max_retries=3,
                merge_backoff_ms=1.0,
            ) as batcher:
                await batcher.insert(points_for(DIV, 1, 8, seed=43)[0])
                for _ in range(200):
                    if batcher.stats.n_merges:
                        break
                    await asyncio.sleep(0.005)
                return batcher.stats

        stats = asyncio.run(serve())
        assert stats.n_merges == 1
        assert stats.n_merge_retries == 2
        assert stats.n_merge_failures == 0
        assert index.delta_ops == 0

    def test_merge_exhaustion_surfaces_on_next_mutation(self, monkeypatch):
        points, _ = _serve_points()
        index = _build(DIV, points)
        monkeypatch.setattr(
            index,
            "merge",
            lambda *a, **kw: (_ for _ in ()).throw(TransientIOError("dead")),
        )
        extra = points_for(DIV, 2, 8, seed=44)

        async def serve():
            async with MicroBatcher(
                index,
                K,
                merge_threshold=1,
                merge_max_retries=1,
                merge_backoff_ms=1.0,
            ) as batcher:
                await batcher.insert(extra[0])
                for _ in range(200):
                    if batcher.stats.n_merge_failures:
                        break
                    await asyncio.sleep(0.005)
                with pytest.raises(TransientIOError):
                    await batcher.insert(extra[1])
                # surfaced once: the delta is intact, serving continues,
                # and close() below must not raise it again
                assert batcher.merge_error is None
                stats = batcher.stats
            return stats

        stats = asyncio.run(serve())
        assert stats.n_merge_retries == 1
        assert stats.n_merge_failures == 1
        assert index.delta_ops > 0  # nothing lost, just unmerged

    def test_admission_timeout_bounds_the_wait(self):
        points, queries = _serve_points()
        index = _build(DIV, points)

        async def serve():
            async with MicroBatcher(
                index,
                K,
                max_batch_size=8,
                max_wait_ms=150.0,
                max_queue_depth=1,
                overflow="wait",
                admission_timeout_ms=20.0,
            ) as batcher:
                # the first request parks in the queue until the 150ms
                # flush; the second waits at the door and must time out
                first = asyncio.ensure_future(batcher.search(queries[0]))
                await asyncio.sleep(0.01)
                with pytest.raises(ServerOverloadedError):
                    await batcher.search(queries[1])
                result = await first
                return result, batcher.stats

        result, stats = asyncio.run(serve())
        assert stats.n_admission_timeouts == 1
        assert stats.n_rejected == 0  # distinct counters
        np.testing.assert_array_equal(result.ids, index.search(queries[0], K).ids)

    def test_request_deadline_expires_in_flight(self, monkeypatch):
        points, queries = _serve_points()
        index = _build(DIV, points)
        real = index.search_batch

        def slow(qs, k):
            time.sleep(0.15)
            return real(qs, k)

        monkeypatch.setattr(index, "search_batch", slow)

        async def serve():
            async with MicroBatcher(
                index,
                K,
                max_batch_size=1,
                max_wait_ms=0.0,
                request_timeout_ms=25.0,
            ) as batcher:
                with pytest.raises(DeadlineExceededError):
                    await batcher.search(queries[0])
                return batcher.stats

        stats = asyncio.run(serve())
        assert stats.n_deadline_expired == 1

    def test_request_deadline_frees_queued_slot(self):
        points, queries = _serve_points()
        index = _build(DIV, points)

        async def serve():
            async with MicroBatcher(
                index,
                K,
                max_batch_size=8,
                max_wait_ms=500.0,
                max_queue_depth=1,
                request_timeout_ms=20.0,
            ) as batcher:
                with pytest.raises(DeadlineExceededError):
                    await batcher.search(queries[0])
                # the expired request was pulled out of the batch, so
                # its queue slot is free again for the next arrival
                assert batcher._pending == []
                return batcher.stats

        stats = asyncio.run(serve())
        assert stats.n_deadline_expired == 1
