"""Parallel shard fan-out tests: executor, parity matrix, accounting.

The contract under test (ISSUE 3's tentpole): fanning ``search_batch``'s
per-shard candidate fetches out across a thread pool must change
*nothing* about the results -- for every decomposable divergence and
every worker count ({1, 4}), batched top-k ids and divergences stay
bitwise equal to per-query ``search`` -- while per-shard I/O accounting
keeps summing exactly to the aggregate even when charges race on worker
threads.
"""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest

from repro import (
    BrePartitionConfig,
    BrePartitionIndex,
    SquaredEuclidean,
    brute_force_knn,
)
from repro.datasets import load_dataset
from repro.exceptions import InvalidParameterError
from repro.exec import FanoutPool, ShardExecutor
from repro.pipeline import survivors
from repro.storage import BufferPool, DiskAccessTracker, ShardedDataStore

from conftest import all_decomposable_divergences, points_for

N_POINTS = 240
N_QUERIES = 10
DIM = 12
K = 5
# tiny pages (8 points each) so every batch spans several pages per shard
PAGE_BYTES = 8 * DIM * 8


def sharded_index(divergence, points, tracker=None, buffer_pool=None, **kwargs):
    config = BrePartitionConfig(
        n_partitions=3,
        seed=0,
        n_shards=4,
        page_size_bytes=PAGE_BYTES,
        **kwargs,
    )
    return BrePartitionIndex(
        divergence, config, tracker=tracker, buffer_pool=buffer_pool
    ).build(points)


def assert_fanout_matrix(index, queries, k):
    """Every {1, 4} workers cell is bitwise equal to per-query search and
    charges the same pages, and per-shard counts sum exactly to the
    coalesced and the aggregate totals."""
    reference = [index.search(query, k) for query in queries]
    reference_pages = None
    for workers in (1, 4):
        index.config.shard_workers = workers
        batch = index.search_batch(queries, k)
        assert batch.stats.shard_workers == workers
        # exact page accounting: every cell charges the same pages
        if reference_pages is None:
            reference_pages = batch.stats.pages_read
        assert batch.stats.pages_read == reference_pages
        assert sum(batch.stats.pages_read_per_shard) == batch.stats.pages_coalesced
        assert len(batch.stats.shard_seconds) == index.datastore.n_shards
        for single, batched in zip(reference, batch):
            np.testing.assert_array_equal(single.ids, batched.ids)
            np.testing.assert_array_equal(single.divergences, batched.divergences)
    assert sum(index.datastore.shard_pages_read) == index.tracker.total_pages_read


class TestShardExecutor:
    def test_results_keep_submission_order(self):
        tasks = [lambda v=v: v * v for v in range(7)]
        for workers in (1, 4):
            results, seconds = ShardExecutor(workers).run(tasks)
            assert results == [v * v for v in range(7)]
            assert len(seconds) == 7
            assert all(s >= 0.0 for s in seconds)

    def test_tasks_actually_run_concurrently(self):
        # four tasks that each wait on a shared barrier can only all
        # finish when four threads run them at the same time
        barrier = threading.Barrier(4, timeout=5.0)
        results, _ = ShardExecutor(4).run([barrier.wait] * 4)
        assert sorted(results) == [0, 1, 2, 3]

    def test_exceptions_propagate(self):
        def boom():
            raise RuntimeError("shard died")

        for workers in (1, 4):
            with pytest.raises(RuntimeError, match="shard died"):
                ShardExecutor(workers).run([lambda: 1, boom])

    def test_rejects_bad_worker_count(self):
        with pytest.raises(InvalidParameterError, match="n_workers"):
            ShardExecutor(0)

    def test_empty_task_list(self):
        assert ShardExecutor(4).run([]) == ([], [])


class TestFanoutPool:
    """The index keeps Fetch's fan-out threads across calls: they start
    with the first batch that needs them, a worker-count change restarts
    them at the new width, and ``close()`` joins them.  Results, pages
    and the per-shard split are those of one worker."""

    DIV = SquaredEuclidean()

    def _index(self, workers):
        points = points_for(self.DIV, N_POINTS, DIM, seed=1)
        return sharded_index(self.DIV, points, shard_workers=workers)

    def _queries(self, n=N_QUERIES, seed=2):
        return points_for(self.DIV, n, DIM, seed=seed)

    @staticmethod
    def _started(monkeypatch):
        """Every thread started from now on."""
        started = []
        original = threading.Thread.start

        def start(self):
            started.append(self)
            original(self)

        monkeypatch.setattr(threading.Thread, "start", start)
        return started

    @staticmethod
    def _assert_same(a, b):
        assert a.stats.pages_read == b.stats.pages_read
        assert a.stats.pages_coalesced == b.stats.pages_coalesced
        assert a.stats.pages_read_per_shard == b.stats.pages_read_per_shard
        assert a.stats.io_retries == b.stats.io_retries == 0
        assert a.stats.n_failovers == b.stats.n_failovers == 0
        assert len(a.stats.shard_seconds) == len(b.stats.shard_seconds)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.ids, y.ids)
            np.testing.assert_array_equal(x.divergences, y.divergences)

    def test_threads_start_only_on_the_first_call(self, monkeypatch):
        index = self._index(2)
        queries = self._queries()
        started = self._started(monkeypatch)
        counts = []
        for _ in range(5):
            index.search_batch(queries, K)
            counts.append(len(started))
        assert counts == [2] * 5
        assert all(thread.is_alive() for thread in started)
        index.close()
        assert not any(thread.is_alive() for thread in started)

    def test_worker_count_change_takes_effect(self, monkeypatch):
        index, reference = self._index(2), self._index(1)
        queries = self._queries()
        want = reference.search_batch(queries, K)
        started = self._started(monkeypatch)
        self._assert_same(index.search_batch(queries, K), want)
        assert len(started) == 2
        index.config.shard_workers = 4
        batch = index.search_batch(queries, K)
        assert batch.stats.shard_workers == 4
        self._assert_same(batch, want)
        assert len(started) == 6
        # the two-thread pool was retired and joined
        assert not any(thread.is_alive() for thread in started[:2])
        index.config.shard_workers = 1
        batch = index.search_batch(queries, K)
        assert batch.stats.shard_workers == 1
        self._assert_same(batch, want)
        assert len(started) == 6  # one worker is an inline loop
        index.close()
        assert not any(thread.is_alive() for thread in started)

    def test_results_and_pages_match_one_worker(self):
        index, reference = self._index(2), self._index(1)
        for n, seed in ((1, 3), (3, 4), (N_QUERIES, 5), (40, 6)):
            queries = self._queries(n, seed)
            self._assert_same(
                index.search_batch(queries, K), reference.search_batch(queries, K)
            )
        index.close()

    def test_searches_work_after_close(self):
        index = self._index(2)
        queries = self._queries()
        want = index.search_batch(queries, K)
        index.close()
        self._assert_same(index.search_batch(queries, K), want)
        index.close()
        index.close()

    def test_concurrent_batches_never_meet_a_retired_pool(self):
        # three batch threads (more than this host's cores) while the
        # main thread flips the worker count and closes the index under
        # them; a batch that submitted to a shut-down pool would raise
        index = self._index(2)
        queries = self._queries()
        want = self._index(1).search_batch(queries, K)
        errors, served, stop = [], [], threading.Event()

        def serve():
            try:
                while not stop.is_set():
                    self._assert_same(index.search_batch(queries, K), want)
                    served.append(1)
            except Exception as exc:  # reported below
                errors.append(exc)

        threads = [threading.Thread(target=serve) for _ in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for i in range(40):
                index.config.shard_workers = (2, 3, 4)[i % 3]
                if i % 4 == 0:
                    index.close()
                time.sleep(0.002)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=60.0)
            sys.setswitchinterval(interval)
            index.close()
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert served

    def test_pool_submits_and_closes_from_many_threads(self):
        pool, errors, done = FanoutPool(), [], []

        def submit(width):
            try:
                for _ in range(50):
                    futures = pool.submit(width, [lambda: 7] * 3)
                    assert [future.result() for future in futures] == [7] * 3
                    done.append(width)
                    if width == 3:
                        pool.close()
            except Exception as exc:  # reported below
                errors.append(exc)

        threads = [threading.Thread(target=submit, args=(w,)) for w in (2, 2, 3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
            pool.close()
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(done) == 150


class TestParallelParityMatrix:
    """Acceptance: bitwise single/batch parity for every divergence under
    {1, 4} workers -- with per-scope page accounting bitwise equal in
    every cell.  (The test names keep the kernel axis they once had.)"""

    @pytest.mark.parametrize("name,divergence", all_decomposable_divergences(DIM))
    def test_backends_kernels_and_workers_bitwise_identical(self, name, divergence):
        points = points_for(divergence, N_POINTS, DIM, seed=1)
        queries = points_for(divergence, N_QUERIES, DIM, seed=2)
        assert_fanout_matrix(sharded_index(divergence, points), queries, K)

    @pytest.mark.parametrize(
        "n,n_queries,n_partitions,page_size_bytes,leaf_capacity",
        [(400, 16, 3, 8192, 16), (600, 64, 4, 16384, 40)],
        ids=["n400-B16", "n600-B64"],
    )
    def test_kernels_and_workers_bitwise_identical_on_fonts(
        self, n, n_queries, n_partitions, page_size_bytes, leaf_capacity
    ):
        # the fonts proxy (Itakura-Saito, d=400) over 4 shards
        dataset = load_dataset("fonts", n=n, n_queries=n_queries, seed=0)
        config = BrePartitionConfig(
            n_partitions=n_partitions,
            page_size_bytes=page_size_bytes,
            leaf_capacity=leaf_capacity,
            seed=0,
            n_shards=4,
        )
        index = BrePartitionIndex(dataset.divergence, config).build(dataset.points)
        assert_fanout_matrix(index, dataset.queries, 10)

class TestConcurrentAccounting:
    """Satellite: stress the per-shard trackers under a real thread pool."""

    def _run_batches(self, tracker, buffer_pool=None, workers=4, batches=3):
        divergence = SquaredEuclidean()
        points = points_for(divergence, N_POINTS, DIM, seed=1)
        index = sharded_index(
            divergence,
            points,
            tracker=tracker,
            buffer_pool=buffer_pool,
            shard_workers=workers,
        )
        per_batch = []
        for b in range(batches):
            queries = points_for(divergence, N_QUERIES, DIM, seed=10 + b)
            stats = index.search_batch(queries, K).stats
            per_batch.append(stats)
        return index, per_batch

    def test_shard_totals_sum_bitwise_to_aggregate(self):
        tracker = DiskAccessTracker()
        index, per_batch = self._run_batches(tracker)
        store = index.datastore
        assert isinstance(store, ShardedDataStore)
        assert sum(store.shard_pages_read) == tracker.total_pages_read
        assert sum(
            shard.total_pages_read for shard in store.shard_trackers
        ) == tracker.total_pages_read
        for stats in per_batch:
            assert sum(stats.pages_read_per_shard) == stats.pages_coalesced
            assert stats.shard_seconds is not None
            assert len(stats.shard_seconds) == store.n_shards

    def test_fanout_deterministic_across_runs(self):
        # same workload, fresh index + pool each run: the per-shard page
        # split and every result must repeat exactly, however threads
        # interleave
        runs = [self._run_batches(DiskAccessTracker())[1] for _ in range(3)]
        for other in runs[1:]:
            for stats_a, stats_b in zip(runs[0], other):
                assert stats_a.pages_read_per_shard == stats_b.pages_read_per_shard
                assert stats_a.pages_coalesced == stats_b.pages_coalesced
                assert stats_a.pages_read == stats_b.pages_read

    def test_parallel_matches_sequential_accounting(self):
        sequential = self._run_batches(DiskAccessTracker(), workers=1)[1]
        parallel = self._run_batches(DiskAccessTracker(), workers=4)[1]
        for stats_s, stats_p in zip(sequential, parallel):
            assert stats_s.pages_read_per_shard == stats_p.pages_read_per_shard
            assert stats_s.pages_read == stats_p.pages_read
            assert stats_s.pages_read_unshared == stats_p.pages_read_unshared

    def test_shared_buffer_pool_stays_consistent_under_threads(self):
        tracker = DiskAccessTracker()
        pool = BufferPool(capacity_pages=10_000)
        index, _ = self._run_batches(tracker, buffer_pool=pool, batches=4)
        store = index.datastore
        # pool hits are charged on neither tracker, so shard totals must
        # still sum exactly to the aggregate
        assert sum(store.shard_pages_read) == tracker.total_pages_read
        assert pool.hits + pool.misses >= pool.hits > 0


class TestAdaptiveRerankBuffer:
    """Adversarial estimates under the certificate.  (The
    adaptive noise-floor buffer these inputs were built against is gone;
    the certificate keeps every row its bound cannot rule out.  The test
    names are kept.)"""

    def _index(self, points):
        return BrePartitionIndex(
            SquaredEuclidean(), BrePartitionConfig(n_partitions=2, seed=0)
        ).build(points)

    def test_tied_preselection_grows_buffer_to_true_neighbour(self):
        # 40 candidates whose estimates all tie at 0.0 (total
        # cancellation); the direct kernel ranks the true nearest last
        # by id.  A fixed buffer of the k lowest ids would silently drop
        # it; under the certificate every tied row survives.
        rng = np.random.default_rng(0)
        points = rng.normal(size=(60, DIM))
        query = rng.normal(size=DIM)
        index = self._index(points)
        ids = np.arange(40)
        # craft vectors: candidate 39 is the true nearest, 0..38 farther
        vectors = query + np.linspace(2.0, 3.0, 40)[:, None] * np.ones(DIM)
        vectors[39] = query + 1e-3
        scores = np.zeros(40)  # expansion floor: everything tied
        _, bounds = index.pipeline.stage("refine").certify(vectors, query[None, :])
        assert survivors(scores, bounds[:, 0], 3).size == 40
        top_ids, top_divs = index.pipeline.stage("rerank").topk(
            ids, scores, bounds[:, 0], query, 3, lambda sel: vectors[sel]
        )
        assert top_ids[0] == 39
        oracle = SquaredEuclidean().batch_divergence(vectors[top_ids], query)
        np.testing.assert_array_equal(top_divs, oracle)

    def test_accurate_scores_keep_buffer_small(self):
        # when the estimates are accurate their bound is tight: exactly
        # k rows survive, and the direct kernel's top-k is the oracle's
        rng = np.random.default_rng(1)
        points = rng.normal(size=(80, DIM))
        query = rng.normal(size=DIM)
        index = self._index(points)
        ids = np.arange(80)
        vectors = points[:80]
        scores, bounds = index.pipeline.stage("refine").certify(
            vectors, query[None, :]
        )
        assert survivors(scores[:, 0], bounds[:, 0], K).size == K
        top_ids, top_divs = index.pipeline.stage("rerank").topk(
            ids, scores[:, 0], bounds[:, 0], query, K, lambda sel: vectors[sel]
        )
        oracle_ids, oracle_divs = brute_force_knn(
            SquaredEuclidean(), vectors, query, K
        )
        np.testing.assert_array_equal(top_ids, oracle_ids)
        np.testing.assert_array_equal(top_divs, oracle_divs)

    def test_spread_data_with_oversized_tie_set_matches_oracle(self):
        # two clusters at +-1e8: the conditioned expansion's rounding
        # (~eps * 1e16 * d) dwarfs genuine gaps of O(1), so the bound
        # keeps *every* near-cluster candidate -- far more than k -- and
        # only the far cluster is pruned.  The direct kernel must still
        # recover the exact oracle answer.
        rng = np.random.default_rng(4)
        near = rng.normal(1e8, 1e-4, size=(40, DIM))  # 40-way noise tie
        far = rng.normal(-1e8, 1.0, size=(40, DIM))
        query = near[0].copy()
        # true top-3 hidden at the highest ids of the tied cluster
        near[37] = near[0]
        near[37, 0] += 1e-6
        near[38] = near[0]
        near[38, 0] += 2e-6
        near[39] = near[0]
        points = np.concatenate([near, far])
        index = self._index(points)
        oracle_ids, oracle_divs = brute_force_knn(
            SquaredEuclidean(), points, query, 3
        )
        result = index.search(query, 3)
        np.testing.assert_array_equal(result.ids, oracle_ids)
        np.testing.assert_array_equal(result.divergences, oracle_divs)
        batch = index.search_batch(query[None, :], 3)
        np.testing.assert_array_equal(batch[0].ids, result.ids)
        np.testing.assert_array_equal(batch[0].divergences, result.divergences)


class TestConfigValidation:
    def test_rejects_bad_shard_workers(self):
        with pytest.raises(InvalidParameterError, match="shard_workers"):
            BrePartitionConfig(shard_workers=0)

    def test_unknown_fields_are_rejected(self):
        # slots: a retired or misspelt knob raises instead of creating an
        # attribute nothing reads
        with pytest.raises(TypeError, match="refine_kernel"):
            BrePartitionConfig(refine_kernel="dense")
        config = BrePartitionConfig()
        with pytest.raises(AttributeError):
            config.refine_kernel = "sparse"
        with pytest.raises(AttributeError):
            config.shard_worker = 4
        assert config.shard_workers == 1


class TestHarnessPlumbing:
    def test_run_workload_threads_workers_and_kernel(self):
        # (the name keeps the kernel argument the harness no longer takes)
        from repro.datasets import load_dataset
        from repro.eval.harness import run_workload

        dataset = load_dataset("uniform", n=300, n_queries=8, seed=0)
        index = BrePartitionIndex(
            dataset.divergence,
            BrePartitionConfig(
                n_partitions=3, seed=0, page_size_bytes=dataset.page_size_bytes
            ),
        ).build(dataset.points)
        result = run_workload(
            index,
            dataset,
            k=K,
            batch_size=4,
            shards=4,
            shard_workers=4,
        )
        assert index.config.shard_workers == 4
        assert result.extras["shard_workers"] == 4
        assert index.datastore.n_shards == 4
        assert result.mean_recall == 1.0

    def test_run_workload_rejects_bad_kernel(self):
        from repro.datasets import load_dataset
        from repro.eval.harness import run_workload

        dataset = load_dataset("uniform", n=200, n_queries=4, seed=0)
        index = BrePartitionIndex(
            dataset.divergence, BrePartitionConfig(n_partitions=2, seed=0)
        ).build(dataset.points)
        # the refinement-kernel argument is gone
        with pytest.raises(TypeError, match="refine_kernel"):
            run_workload(index, dataset, k=2, refine_kernel="dense")
        with pytest.raises(InvalidParameterError, match="shard_workers"):
            run_workload(index, dataset, k=2, shard_workers=0)
