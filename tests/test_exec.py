"""Parallel shard fan-out tests: executor, parity matrix, accounting.

The contract under test (ISSUE 3's tentpole): fanning ``search_batch``'s
per-shard candidate fetches out across a thread pool must change
*nothing* about the results -- for every decomposable divergence, under
every refinement kernel ({dense, sparse, auto}) and every worker count
({1, 4}), batched top-k ids and divergences stay bitwise equal to
per-query ``search`` -- while per-shard I/O accounting keeps summing
exactly to the aggregate even when charges race on worker threads.
"""

from __future__ import annotations

import threading

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
from repro.exec import ShardExecutor
from repro.pipeline import refine as refine_module
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
    """Every {1, 4} workers x {dense, sparse, auto} cell is bitwise equal
    to per-query search and charges the same pages, and per-shard counts
    sum exactly to the coalesced and the aggregate totals."""
    reference = [index.search(query, k) for query in queries]
    reference_pages = None
    for workers in (1, 4):
        for kernel in ("dense", "sparse", "auto"):
            index.config.refine_kernel = kernel
            index.config.shard_workers = workers
            batch = index.search_batch(queries, k)
            assert batch.stats.shard_workers == workers
            assert batch.stats.refine_kernel in ("dense", "sparse")
            if kernel != "auto":
                assert batch.stats.refine_kernel == kernel
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


class TestParallelParityMatrix:
    """Acceptance: bitwise single/batch parity for every divergence under
    all of {1, 4} workers x {dense, sparse, auto} kernels -- with
    per-scope page accounting bitwise equal in every cell."""

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

    def test_sparse_kernel_on_single_disk_store(self):
        divergence = SquaredEuclidean()
        points = points_for(divergence, N_POINTS, DIM, seed=1)
        queries = points_for(divergence, N_QUERIES, DIM, seed=2)
        dense_index = BrePartitionIndex(
            divergence,
            BrePartitionConfig(n_partitions=3, seed=0, refine_kernel="dense"),
        ).build(points)
        sparse_index = BrePartitionIndex(
            divergence,
            BrePartitionConfig(n_partitions=3, seed=0, refine_kernel="sparse"),
        ).build(points)
        dense = dense_index.search_batch(queries, K)
        sparse = sparse_index.search_batch(queries, K)
        assert dense.stats.refine_kernel == "dense"
        assert sparse.stats.refine_kernel == "sparse"
        for a, b in zip(dense, sparse):
            np.testing.assert_array_equal(a.ids, b.ids)
            np.testing.assert_array_equal(a.divergences, b.divergences)

    def test_auto_dispatch_follows_density_threshold(self, monkeypatch):
        divergence = SquaredEuclidean()
        points = points_for(divergence, N_POINTS, DIM, seed=1)
        queries = points_for(divergence, N_QUERIES, DIM, seed=2)
        index = sharded_index(divergence, points)
        # threshold 0 can never be undercut (strict <) -> always dense
        monkeypatch.setattr(refine_module, "SPARSE_DENSITY_THRESHOLD", 0.0)
        assert index.search_batch(queries, K).stats.refine_kernel == "dense"
        # skewed candidate sets: density 30/(2*100) = 0.15
        skewed = [np.arange(10), np.arange(20)]
        refine = index.pipeline.stage("refine")
        monkeypatch.setattr(refine_module, "SPARSE_DENSITY_THRESHOLD", 0.2)
        assert refine.choose_kernel(skewed, 100, 2) == "sparse"
        monkeypatch.setattr(refine_module, "SPARSE_DENSITY_THRESHOLD", 0.1)
        assert refine.choose_kernel(skewed, 100, 2) == "dense"
        # pinned kernels ignore the threshold entirely
        index.config.refine_kernel = "sparse"
        assert refine.choose_kernel(skewed, 100, 2) == "sparse"


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
    """Satellite: the rerank buffer grows past noise-floor tie sets."""

    def _index(self, points):
        return BrePartitionIndex(
            SquaredEuclidean(), BrePartitionConfig(n_partitions=2, seed=0)
        ).build(points)

    def test_tied_preselection_grows_buffer_to_true_neighbour(self):
        # 40 candidates whose expansion scores all tie at 0.0 (total
        # cancellation); the direct kernel ranks the true nearest last
        # by id.  A fixed buffer of max(2k, k+16) = 19 would rerank only
        # the 19 lowest ids and silently drop it.
        rng = np.random.default_rng(0)
        points = rng.normal(size=(60, DIM))
        query = rng.normal(size=DIM)
        index = self._index(points)
        ids = np.arange(40)
        # craft vectors: candidate 39 is the true nearest, 0..38 farther
        vectors = query + np.linspace(2.0, 3.0, 40)[:, None] * np.ones(DIM)
        vectors[39] = query + 1e-3
        scores = np.zeros(40)  # expansion floor: everything tied
        top_ids, top_divs = index.pipeline.stage("rerank").topk(
            ids, scores, query, 3, lambda sel: vectors[sel]
        )
        assert top_ids[0] == 39
        oracle = SquaredEuclidean().batch_divergence(vectors[top_ids], query)
        np.testing.assert_array_equal(top_divs, oracle)

    def test_accurate_scores_keep_buffer_small(self):
        # when expansion and direct kernels agree to ~ulp, the measured
        # noise floor cannot sweep extra candidates into the buffer and
        # the first-pass rerank stands
        rng = np.random.default_rng(1)
        points = rng.normal(size=(80, DIM))
        query = rng.normal(size=DIM)
        index = self._index(points)
        ids = np.arange(80)
        vectors = points[:80]
        scores = index.pipeline.stage("refine").score_dense(
            vectors, query[None, :]
        )[:, 0]
        top_ids, top_divs = index.pipeline.stage("rerank").topk(
            ids, scores, query, K, lambda sel: vectors[sel]
        )
        oracle_ids, oracle_divs = brute_force_knn(
            SquaredEuclidean(), vectors, query, K
        )
        np.testing.assert_array_equal(top_ids, oracle_ids)
        np.testing.assert_array_equal(top_divs, oracle_divs)

    def test_spread_data_with_oversized_tie_set_matches_oracle(self):
        # two clusters at +-1e8: the conditioned expansion's noise floor
        # (~eps * 1e16 * d) dwarfs genuine gaps of O(1), so *every*
        # cluster candidate ties -- far more than the fixed buffer.  The
        # adaptive rerank must still recover the exact oracle answer.
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

    def test_rejects_bad_refine_kernel(self):
        with pytest.raises(InvalidParameterError, match="refine_kernel"):
            BrePartitionConfig(refine_kernel="blocked")


class TestHarnessPlumbing:
    def test_run_workload_threads_workers_and_kernel(self):
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
            refine_kernel="sparse",
        )
        assert index.config.shard_workers == 4
        assert index.config.refine_kernel == "sparse"
        assert result.extras["refine_kernel"] == "sparse"
        assert result.extras["shard_workers"] == 4
        assert result.mean_recall == 1.0

    def test_run_workload_rejects_bad_kernel(self):
        from repro.datasets import load_dataset
        from repro.eval.harness import run_workload

        dataset = load_dataset("uniform", n=200, n_queries=4, seed=0)
        index = BrePartitionIndex(
            dataset.divergence, BrePartitionConfig(n_partitions=2, seed=0)
        ).build(dataset.points)
        with pytest.raises(InvalidParameterError, match="refine_kernel"):
            run_workload(index, dataset, k=2, refine_kernel="fast")
        with pytest.raises(InvalidParameterError, match="shard_workers"):
            run_workload(index, dataset, k=2, shard_workers=0)
