"""Multiprocess refinement pool tests: scoring parity, death, lifecycle.

The contract under test (ISSUE 9's tentpole): scoring the refinement
problem across worker *processes* over shared-memory slabs must change
nothing but wall-clock time -- dense row-block and sparse pair-range
outputs stay bitwise equal to the serial kernels for any worker count,
per-scope page accounting is untouched (workers never charge), a worker
death mid-batch is healed by respawn-and-retry (bitwise equal again),
and a double death fails cleanly with ``RefinementPoolError`` without
stranding the pool.
"""

from __future__ import annotations

import multiprocessing
import threading

import numpy as np
import pytest

from repro import (
    BrePartitionConfig,
    BrePartitionIndex,
    GeneralizedKL,
    SquaredEuclidean,
)
from repro.exceptions import InvalidParameterError, RefinementPoolError
from repro.exec import RefinementProcessPool, shared_memory_available

from conftest import points_for

DIM = 12
K = 5

needs_shm = pytest.mark.skipif(
    not shared_memory_available(),
    reason="no POSIX shared memory on this platform",
)


def make_problem(divergence, n_rows=160, n_queries=8):
    vectors = points_for(divergence, n_rows, DIM, seed=1)
    queries = points_for(divergence, n_queries, DIM, seed=2)
    return vectors, queries


def make_pairs(n_rows, n_queries, per_query=37, seed=3):
    """Query-major pair list with uneven buckets, like build_pairs emits."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, per_query, size=n_queries)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    pair_rows = rng.integers(0, n_rows, size=int(offsets[-1]))
    pair_queries = np.repeat(np.arange(n_queries), sizes)
    return pair_rows, pair_queries, offsets


@needs_shm
class TestPoolScoring:
    @pytest.mark.parametrize("workers", [1, 2, 5])
    def test_dense_bitwise_matches_serial_kernel(self, workers):
        divergence = GeneralizedKL()
        vectors, queries = make_problem(divergence)
        expected = divergence.cross_divergence(vectors, queries)
        pool = RefinementProcessPool(divergence, workers)
        try:
            out = pool.score_dense(vectors, queries, factor=1.0, block=48)
            np.testing.assert_array_equal(out, expected)
        finally:
            pool.shutdown()

    @pytest.mark.parametrize("workers", [1, 2, 5])
    def test_sparse_bitwise_matches_grouped_kernel(self, workers):
        divergence = GeneralizedKL()
        vectors, queries = make_problem(divergence)
        pair_rows, pair_queries, offsets = make_pairs(
            vectors.shape[0], queries.shape[0]
        )
        expected = divergence.cross_divergence_grouped(
            vectors, queries, pair_rows, pair_queries, pair_block=64
        )
        pool = RefinementProcessPool(divergence, workers)
        try:
            out = pool.score_sparse(
                vectors, queries, pair_rows, pair_queries, offsets,
                factor=1.0, pair_block=64,
            )
            np.testing.assert_array_equal(out, expected)
        finally:
            pool.shutdown()

    def test_output_factor_applied_like_serial_path(self):
        # the serial path computes values * factor after the kernel;
        # workers must fold the factor in at the same spot -- same op,
        # same order, bitwise equal
        divergence = SquaredEuclidean()
        vectors, queries = make_problem(divergence)
        factor = 2.5
        expected = divergence.cross_divergence(vectors, queries) * factor
        pool = RefinementProcessPool(divergence, 2)
        try:
            out = pool.score_dense(vectors, queries, factor=factor, block=64)
            np.testing.assert_array_equal(out, expected)
        finally:
            pool.shutdown()

    def test_more_workers_than_rows(self):
        divergence = SquaredEuclidean()
        vectors, queries = make_problem(divergence, n_rows=3)
        expected = divergence.cross_divergence(vectors, queries)
        pool = RefinementProcessPool(divergence, 8)
        try:
            out = pool.score_dense(vectors, queries, factor=1.0, block=16)
            np.testing.assert_array_equal(out, expected)
        finally:
            pool.shutdown()

    def test_zero_pairs_dispatches_nothing(self):
        divergence = SquaredEuclidean()
        vectors, queries = make_problem(divergence)
        pool = RefinementProcessPool(divergence, 2)
        try:
            out = pool.score_sparse(
                vectors, queries,
                np.empty(0, dtype=int), np.empty(0, dtype=int),
                np.array([0, 0]), factor=1.0, pair_block=64,
            )
            assert out.size == 0
            assert not pool.started  # nothing to do -> no spawn
        finally:
            pool.shutdown()

    def test_split_even_partitions_exactly(self):
        pool = RefinementProcessPool(SquaredEuclidean(), 4)
        for n_items in (1, 3, 4, 7, 100):
            ranges = pool._split_even(n_items)
            assert len(ranges) <= 4
            assert ranges[0][0] == 0 and ranges[-1][1] == n_items
            for (_, a_hi), (b_lo, _) in zip(ranges, ranges[1:]):
                assert a_hi == b_lo  # contiguous, disjoint

    def test_split_at_buckets_lands_on_boundaries(self):
        pool = RefinementProcessPool(SquaredEuclidean(), 3)
        offsets = np.array([0, 10, 15, 40, 41, 90])
        ranges = pool._split_at_buckets(90, offsets)
        assert ranges[0][0] == 0 and ranges[-1][1] == 90
        assert len(ranges) <= 3
        boundaries = set(int(o) for o in offsets)
        for lo, hi in ranges:
            assert lo in boundaries and hi in boundaries
        # one huge bucket: fewer ranges, never a mid-bucket cut
        assert pool._split_at_buckets(50, np.array([0, 50])) == [(0, 50)]


@needs_shm
class TestWorkerDeath:
    def test_death_mid_batch_respawns_and_retries_bitwise(self):
        divergence = GeneralizedKL()
        vectors, queries = make_problem(divergence)
        expected = divergence.cross_divergence(vectors, queries)
        pool = RefinementProcessPool(divergence, 2)
        try:
            pool.inject_worker_exit(0)  # dies on its next task, unacked
            out = pool.score_dense(vectors, queries, factor=1.0, block=48)
            np.testing.assert_array_equal(out, expected)
            assert all(p.is_alive() for p in pool._processes)  # respawned
        finally:
            pool.shutdown()

    def test_double_death_raises_clean_and_pool_survives(self):
        divergence = GeneralizedKL()
        vectors, queries = make_problem(divergence)
        expected = divergence.cross_divergence(vectors, queries)
        pool = RefinementProcessPool(divergence, 2)
        try:
            # the task queue survives a respawn, so two queued exits
            # kill the worker and then its replacement on the retry
            pool.inject_worker_exit(0)
            pool.inject_worker_exit(0)
            with pytest.raises(RefinementPoolError, match="died twice"):
                pool.score_dense(vectors, queries, factor=1.0, block=48)
            # the failed dispatch respawned its dead worker: the pool
            # stays usable with no stranded state
            out = pool.score_dense(vectors, queries, factor=1.0, block=48)
            np.testing.assert_array_equal(out, expected)
        finally:
            pool.shutdown()

    def test_worker_compute_error_propagates(self):
        divergence = SquaredEuclidean()
        vectors, queries = make_problem(divergence)
        # pair rows beyond the vector slab: the worker's kernel raises,
        # the ack carries the error, the parent wraps it
        bad_rows = np.array([vectors.shape[0] + 5])
        pool = RefinementProcessPool(divergence, 1)
        try:
            with pytest.raises(RefinementPoolError, match="failed its slice"):
                pool.score_sparse(
                    vectors, queries, bad_rows, np.array([0]),
                    np.array([0, 1]), factor=1.0, pair_block=64,
                )
        finally:
            pool.shutdown()

    def test_search_batch_heals_injected_death(self):
        divergence = SquaredEuclidean()
        points = points_for(divergence, 240, DIM, seed=1)
        queries = points_for(divergence, 8, DIM, seed=2)
        index = BrePartitionIndex(
            divergence,
            BrePartitionConfig(
                n_partitions=3, seed=0, refine_backend="process",
                refine_workers=2, min_refine_rows_per_worker=1,
            ),
        ).build(points)
        serial = BrePartitionIndex(
            divergence, BrePartitionConfig(n_partitions=3, seed=0)
        ).build(points)
        try:
            reference = serial.search_batch(queries, K)
            healthy = index.search_batch(queries, K)  # spawns the pool
            index._refine_pool.inject_worker_exit(0)
            healed = index.search_batch(queries, K)
            assert healed.stats.refine_backend == "process"
            for a, b, c in zip(reference, healthy, healed):
                np.testing.assert_array_equal(a.ids, b.ids)
                np.testing.assert_array_equal(a.ids, c.ids)
                np.testing.assert_array_equal(a.divergences, c.divergences)
        finally:
            index.close()


@needs_shm
class TestPoolLifecycle:
    def test_lazy_start_and_idempotent_shutdown(self):
        pool = RefinementProcessPool(SquaredEuclidean(), 2)
        assert not pool.started  # construction spawns nothing
        divergence = SquaredEuclidean()
        vectors, queries = make_problem(divergence)
        pool.score_dense(vectors, queries, factor=1.0, block=64)
        assert pool.started
        pool.shutdown()
        assert not pool.started
        pool.shutdown()  # safe to repeat

    def test_ensure_workers_resizes(self):
        divergence = SquaredEuclidean()
        vectors, queries = make_problem(divergence)
        expected = divergence.cross_divergence(vectors, queries)
        pool = RefinementProcessPool(divergence, 2)
        try:
            pool.score_dense(vectors, queries, factor=1.0, block=64)
            pool.ensure_workers(3)
            assert pool.n_workers == 3 and not pool.started
            out = pool.score_dense(vectors, queries, factor=1.0, block=64)
            assert len(pool._processes) == 3
            np.testing.assert_array_equal(out, expected)
        finally:
            pool.shutdown()

    def test_rejects_bad_worker_count(self):
        with pytest.raises(RefinementPoolError, match="n_workers"):
            RefinementProcessPool(SquaredEuclidean(), 0)

    def test_index_close_releases_pool_and_index_stays_usable(self):
        divergence = SquaredEuclidean()
        points = points_for(divergence, 240, DIM, seed=1)
        queries = points_for(divergence, 8, DIM, seed=2)
        index = BrePartitionIndex(
            divergence,
            BrePartitionConfig(
                n_partitions=3, seed=0, refine_backend="process",
                refine_workers=2, min_refine_rows_per_worker=1,
            ),
        ).build(points)
        try:
            first = index.search_batch(queries, K)
            assert index._refine_pool.started
            index.close()
            assert not index._refine_pool.started
            again = index.search_batch(queries, K)  # respawns lazily
            for a, b in zip(first, again):
                np.testing.assert_array_equal(a.ids, b.ids)
                np.testing.assert_array_equal(a.divergences, b.divergences)
        finally:
            index.close()


@needs_shm
class TestThreadSafety:
    """One pool is shared by every concurrent serve batch.

    Regression suite for the review findings: unserialized dispatches
    share one ack queue, so thread A could consume thread B's ack, drop
    it as stale, and leave B polling live workers forever; unguarded
    lazy creation could leak a second worker set; and a close racing a
    dispatch could tear down the queues under it.
    """

    def _run_threads(self, target, n_threads=4, timeout=120.0):
        errors = []

        def guarded(thread_id):
            try:
                target(thread_id)
            except BaseException as error:  # surfaced by the assert below
                errors.append(error)

        threads = [
            threading.Thread(target=guarded, args=(i,), daemon=True)
            for i in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=timeout)
        assert not any(t.is_alive() for t in threads), "dispatch hung"
        assert not errors, errors

    def test_concurrent_dispatches_bitwise_and_no_hang(self):
        divergence = GeneralizedKL()
        vectors, queries = make_problem(divergence)
        pair_rows, pair_queries, offsets = make_pairs(
            vectors.shape[0], queries.shape[0]
        )
        dense_expected = divergence.cross_divergence(vectors, queries)
        sparse_expected = divergence.cross_divergence_grouped(
            vectors, queries, pair_rows, pair_queries, pair_block=64
        )
        pool = RefinementProcessPool(divergence, 2)

        def dispatch(thread_id):
            for _ in range(3):
                if thread_id % 2 == 0:
                    out = pool.score_dense(
                        vectors, queries, factor=1.0, block=48
                    )
                    np.testing.assert_array_equal(out, dense_expected)
                else:
                    out = pool.score_sparse(
                        vectors, queries, pair_rows, pair_queries, offsets,
                        factor=1.0, pair_block=64,
                    )
                    np.testing.assert_array_equal(out, sparse_expected)

        try:
            self._run_threads(dispatch)
        finally:
            pool.shutdown()

    def test_shutdown_races_dispatch_without_tearing_queues(self):
        # close takes the dispatch lock: it waits out an in-flight
        # dispatch instead of closing its queues, and the next dispatch
        # respawns lazily -- so interleaved close/dispatch stays bitwise
        divergence = SquaredEuclidean()
        vectors, queries = make_problem(divergence)
        expected = divergence.cross_divergence(vectors, queries)
        pool = RefinementProcessPool(divergence, 2)
        stop = threading.Event()

        def dispatch(thread_id):
            while not stop.is_set():
                out = pool.score_dense(vectors, queries, factor=1.0, block=48)
                np.testing.assert_array_equal(out, expected)

        closer_errors = []

        def closer():
            try:
                for _ in range(5):
                    pool.shutdown()
            except BaseException as error:
                closer_errors.append(error)
            finally:
                stop.set()

        closer_thread = threading.Thread(target=closer, daemon=True)
        closer_thread.start()
        try:
            self._run_threads(dispatch, n_threads=2)
            closer_thread.join(timeout=60)
            assert not closer_thread.is_alive()
            assert not closer_errors, closer_errors
        finally:
            stop.set()
            pool.shutdown()

    def test_concurrent_lazy_creation_yields_one_pool(self):
        divergence = SquaredEuclidean()
        points = points_for(divergence, 240, DIM, seed=1)
        index = BrePartitionIndex(
            divergence,
            BrePartitionConfig(
                n_partitions=3, seed=0, refine_backend="process",
                refine_workers=2, min_refine_rows_per_worker=1,
            ),
        ).build(points)
        pools = []
        barrier = threading.Barrier(4)

        def grab(thread_id):
            barrier.wait(timeout=30)
            pools.append(index.refine_pool())

        try:
            self._run_threads(grab)
            assert len(pools) == 4
            assert len({id(pool) for pool in pools}) == 1
        finally:
            index.close()

    def test_concurrent_search_batch_parity(self):
        # the end-to-end shape of the review's hang: the micro-batcher
        # runs search_batch on max_concurrent_batches executor threads,
        # all routing Refine through the index's one process pool
        divergence = SquaredEuclidean()
        points = points_for(divergence, 240, DIM, seed=1)
        queries = points_for(divergence, 8, DIM, seed=2)
        serial = BrePartitionIndex(
            divergence, BrePartitionConfig(n_partitions=3, seed=0)
        ).build(points)
        reference = serial.search_batch(queries, K)
        index = BrePartitionIndex(
            divergence,
            BrePartitionConfig(
                n_partitions=3, seed=0, refine_backend="process",
                refine_workers=2, min_refine_rows_per_worker=1,
            ),
        ).build(points)

        def search(thread_id):
            for _ in range(3):
                batch = index.search_batch(queries, K)
                assert batch.stats.refine_backend == "process"
                for got, want in zip(batch, reference):
                    np.testing.assert_array_equal(got.ids, want.ids)
                    np.testing.assert_array_equal(
                        got.divergences, want.divergences
                    )

        try:
            self._run_threads(search)
        finally:
            index.close()


class TestStartMethod:
    def test_default_never_forks_implicitly(self):
        # workers spawn lazily from an already multithreaded serving
        # parent; fork there can deadlock children on inherited locks
        if not shared_memory_available():
            pytest.skip("no POSIX shared memory on this platform")
        pool = RefinementProcessPool(SquaredEuclidean(), 2)
        assert pool.start_method in ("forkserver", "spawn")

    def test_env_var_overrides_default(self, monkeypatch):
        if not shared_memory_available():
            pytest.skip("no POSIX shared memory on this platform")
        monkeypatch.setenv("REPRO_REFINE_START_METHOD", "spawn")
        pool = RefinementProcessPool(SquaredEuclidean(), 2)
        assert pool.start_method == "spawn"

    def test_unavailable_method_raises_clean(self):
        if not shared_memory_available():
            pytest.skip("no POSIX shared memory on this platform")
        with pytest.raises(RefinementPoolError, match="unavailable"):
            RefinementProcessPool(SquaredEuclidean(), 1, start_method="bogus")

    @needs_shm
    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="no fork on this platform",
    )
    def test_explicit_fork_still_scores_bitwise(self):
        divergence = SquaredEuclidean()
        vectors, queries = make_problem(divergence)
        expected = divergence.cross_divergence(vectors, queries)
        pool = RefinementProcessPool(divergence, 2, start_method="fork")
        try:
            assert pool.start_method == "fork"
            out = pool.score_dense(vectors, queries, factor=1.0, block=64)
            np.testing.assert_array_equal(out, expected)
        finally:
            pool.shutdown()

    def test_config_validates_start_method(self):
        with pytest.raises(InvalidParameterError, match="refine_start_method"):
            BrePartitionConfig(refine_start_method="bogus")
        assert BrePartitionConfig(
            refine_start_method="spawn"
        ).refine_start_method == "spawn"

    @needs_shm
    def test_config_start_method_reaches_pool(self):
        divergence = SquaredEuclidean()
        points = points_for(divergence, 240, DIM, seed=1)
        index = BrePartitionIndex(
            divergence,
            BrePartitionConfig(
                n_partitions=3, seed=0, refine_backend="process",
                refine_workers=2, refine_start_method="spawn",
            ),
        ).build(points)
        try:
            assert index.refine_pool().start_method == "spawn"
        finally:
            index.close()


class TestBackendResolution:
    def _index(self, **kwargs):
        divergence = SquaredEuclidean()
        points = points_for(divergence, 240, DIM, seed=1)
        return BrePartitionIndex(
            divergence, BrePartitionConfig(n_partitions=3, seed=0, **kwargs)
        ).build(points)

    def test_serial_and_single_worker_never_dispatch(self):
        index = self._index(refine_backend="serial", refine_workers=4)
        stage = index.pipeline.stage("refine")
        assert stage.choose_backend("dense", 10**9, 8) == ("serial", 1)
        index.config.refine_backend = "auto"
        index.config.refine_workers = 1
        assert stage.choose_backend("dense", 10**9, 8) == ("serial", 1)

    def test_forced_process_ignores_amortization_floor(self):
        index = self._index(
            refine_backend="process", refine_workers=3,
            min_refine_rows_per_worker=10**6,
        )
        stage = index.pipeline.stage("refine")
        assert stage.choose_backend("dense", 1, 8) == ("process", 3)

    @needs_shm
    def test_auto_respects_amortization_floor(self):
        index = self._index(
            refine_backend="auto", refine_workers=2,
            min_refine_rows_per_worker=100,
        )
        stage = index.pipeline.stage("refine")
        assert stage.choose_backend("dense", 199, 8) == ("serial", 1)
        assert stage.choose_backend("dense", 200, 8) == ("process", 2)
        assert stage.choose_backend("sparse", 10_000, 8) == ("process", 2)

    @needs_shm
    def test_single_search_stays_serial_and_never_spawns(self):
        index = self._index(
            refine_backend="process", refine_workers=2,
            min_refine_rows_per_worker=1,
        )
        query = points_for(SquaredEuclidean(), 1, DIM, seed=2)[0]
        index.search(query, K)
        assert index._refine_pool is None  # singles never touch the pool


@needs_shm
class TestMergeParity:
    def test_process_backend_bitwise_across_mutations_and_merge(self):
        divergence = SquaredEuclidean()
        points = points_for(divergence, 240, DIM, seed=1)
        extra = points_for(divergence, 20, DIM, seed=4)
        queries = points_for(divergence, 8, DIM, seed=2)

        def build(**kwargs):
            return BrePartitionIndex(
                divergence,
                BrePartitionConfig(n_partitions=3, seed=0, **kwargs),
            ).build(points)

        serial = build()
        process = build(
            refine_backend="process", refine_workers=2,
            min_refine_rows_per_worker=1,
        )
        try:
            for index in (serial, process):
                for point in extra:
                    index.insert(point)
                index.delete(3)
            # delta-buffer phase: unmerged updates score alongside
            before_s = serial.search_batch(queries, K)
            before_p = process.search_batch(queries, K)
            for a, b in zip(before_s, before_p):
                np.testing.assert_array_equal(a.ids, b.ids)
                np.testing.assert_array_equal(a.divergences, b.divergences)
            # merge republishes base + conditioner; slabs are
            # per-dispatch, so the pool needs no republish step
            serial.merge()
            process.merge()
            after_s = serial.search_batch(queries, K)
            after_p = process.search_batch(queries, K)
            assert after_p.stats.refine_backend == "process"
            for a, b in zip(after_s, after_p):
                np.testing.assert_array_equal(a.ids, b.ids)
                np.testing.assert_array_equal(a.divergences, b.divergences)
        finally:
            process.close()
