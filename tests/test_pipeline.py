"""Staged-pipeline and serving-layer tests.

The contracts under test (ISSUE 4's tentpole): decomposing
``search_batch`` into Plan -> Fetch -> Refine -> Rerank stages must
change *nothing* about the results -- for every decomposable divergence,
every refinement kernel and the sharded fan-out, batched top-k ids and
divergences stay bitwise equal to a brute-force oracle -- and the
asyncio micro-batching front-end must serve every concurrent client a
response bitwise identical to a direct ``search`` call.
"""

from __future__ import annotations

import asyncio
import time

import numpy as np
import pytest

from repro import (
    BrePartitionConfig,
    BrePartitionIndex,
    ItakuraSaito,
    SquaredEuclidean,
    brute_force_knn,
)
from repro.exceptions import (
    DomainError,
    InvalidParameterError,
    ServerOverloadedError,
)
from repro.pipeline import (
    PipelineStage,
    QueryBatchContext,
    SearchPipeline,
    default_stages,
)
from repro.pipeline import refine as refine_module
from repro.serve import MicroBatchConfig, MicroBatcher
from repro.storage import BufferPool, DataStore

from conftest import all_decomposable_divergences, points_for

N_POINTS = 240
N_QUERIES = 12
DIM = 12
K = 5
# tiny pages (8 points each) so batches span several pages per shard
PAGE_BYTES = 8 * DIM * 8

STAGE_NAMES = ("plan", "fetch", "refine", "rerank")


def build_index(divergence, points, **config_kwargs):
    config_kwargs.setdefault("n_partitions", 3)
    config_kwargs.setdefault("seed", 0)
    return BrePartitionIndex(
        divergence, BrePartitionConfig(**config_kwargs)
    ).build(points)


class TestPipelineOracleParity:
    """Acceptance: staged-pipeline results are bitwise the oracle's."""

    @pytest.mark.parametrize("name,divergence", all_decomposable_divergences(DIM))
    def test_batch_matches_brute_force_bitwise(self, name, divergence):
        points = points_for(divergence, N_POINTS, DIM, seed=1)
        queries = points_for(divergence, N_QUERIES, DIM, seed=2)
        index = build_index(
            divergence, points, n_shards=4, page_size_bytes=PAGE_BYTES
        )
        index.config.shard_workers = 4
        for kernel in ("dense", "sparse", "auto"):
            index.config.refine_kernel = kernel
            batch = index.search_batch(queries, K)
            for query, result in zip(queries, batch):
                oracle_ids, oracle_divs = brute_force_knn(
                    divergence, points, query, K
                )
                np.testing.assert_array_equal(result.ids, oracle_ids)
                np.testing.assert_array_equal(result.divergences, oracle_divs)

    @pytest.mark.parametrize("name,divergence", all_decomposable_divergences(DIM))
    def test_single_search_matches_brute_force_bitwise(self, name, divergence):
        points = points_for(divergence, N_POINTS, DIM, seed=1)
        queries = points_for(divergence, 4, DIM, seed=2)
        index = build_index(divergence, points)
        for query in queries:
            result = index.search(query, K)
            oracle_ids, oracle_divs = brute_force_knn(divergence, points, query, K)
            np.testing.assert_array_equal(result.ids, oracle_ids)
            np.testing.assert_array_equal(result.divergences, oracle_divs)


class TestChooseKernelEdges:
    """Satellite: the adaptive dispatcher's degenerate and boundary cases."""

    def _stage(self, **kwargs):
        divergence = SquaredEuclidean()
        points = points_for(divergence, N_POINTS, DIM, seed=1)
        index = build_index(divergence, points, **kwargs)
        return index, index.pipeline.stage("refine")

    def test_empty_candidate_lists_have_zero_density(self):
        # all-empty candidate lists: total_pairs == 0, density 0 is
        # strictly below any positive threshold -> sparse (which then
        # scores zero pairs)
        _, stage = self._stage()
        empty = [np.empty(0, dtype=int) for _ in range(3)]
        assert stage.choose_kernel(empty, 100, 3) == "sparse"

    def test_zero_union_or_zero_queries_is_dense(self):
        # density is undefined at union 0 / B 0; the dispatcher answers
        # "dense" and the stage scores nothing either way
        _, stage = self._stage()
        assert stage.choose_kernel([], 0, 0) == "dense"
        assert stage.choose_kernel([], 100, 0) == "dense"
        assert stage.choose_kernel([np.arange(3)], 0, 1) == "dense"

    def test_density_exactly_at_threshold_is_dense(self, monkeypatch):
        # the comparison is strict: density == threshold keeps dense
        _, stage = self._stage()
        candidates = [np.arange(25), np.arange(25)]  # 50 / (100 * 2) = 0.25
        monkeypatch.setattr(refine_module, "SPARSE_DENSITY_THRESHOLD", 0.25)
        assert stage.choose_kernel(candidates, 100, 2) == "dense"
        monkeypatch.setattr(refine_module, "SPARSE_DENSITY_THRESHOLD", 0.2500001)
        assert stage.choose_kernel(candidates, 100, 2) == "sparse"

    def test_forced_kernels_ignore_degenerate_batches(self):
        index, stage = self._stage(refine_kernel="sparse")
        assert stage.choose_kernel([], 0, 0) == "sparse"
        assert stage.choose_kernel([np.empty(0, dtype=int)], 0, 1) == "sparse"
        index.config.refine_kernel = "dense"
        assert stage.choose_kernel([np.empty(0, dtype=int)], 0, 1) == "dense"


class TestStageMechanics:
    def _index(self, **kwargs):
        divergence = SquaredEuclidean()
        points = points_for(divergence, N_POINTS, DIM, seed=1)
        return build_index(divergence, points, **kwargs), points

    def test_batch_stats_record_stage_seconds(self):
        index, _ = self._index()
        queries = points_for(SquaredEuclidean(), N_QUERIES, DIM, seed=2)
        stats = index.search_batch(queries, K).stats
        assert tuple(stats.stage_seconds) == STAGE_NAMES  # insertion order
        assert all(seconds >= 0.0 for seconds in stats.stage_seconds.values())
        # the stages are timed inside the driver's elapsed window
        assert sum(stats.stage_seconds.values()) <= stats.cpu_seconds + 0.05

    def test_single_search_records_stage_seconds(self):
        index, _ = self._index()
        query = points_for(SquaredEuclidean(), 1, DIM, seed=2)[0]
        stats = index.search(query, K).stats
        assert tuple(stats.stage_seconds) == STAGE_NAMES

    def test_stage_lookup(self):
        index, _ = self._index()
        assert index.pipeline.stage("plan").name == "plan"
        with pytest.raises(KeyError, match="no stage"):
            index.pipeline.stage("shuffle")

    def test_refine_prefetched_matches_looped_reference(self):
        index, _ = self._index()
        queries = points_for(SquaredEuclidean(), N_QUERIES, DIM, seed=2)
        rng = np.random.default_rng(3)
        candidates = [
            np.unique(rng.integers(0, N_POINTS, size=rng.integers(K, 60)))
            for _ in range(N_QUERIES)
        ]
        index.datastore.charge_pages_for(candidates)
        staged = index.pipeline.refine_prefetched(candidates, queries, K).refined
        looped = index.pipeline.refine_looped(candidates, queries, K)
        for (a_ids, a_divs), (b_ids, b_divs) in zip(staged, looped):
            np.testing.assert_array_equal(a_ids, b_ids)
            np.testing.assert_array_equal(a_divs, b_divs)

    def test_custom_stage_splices_into_pipeline(self):
        # the stage list is open: appending an observer stage must not
        # disturb results, and the driver must run (and time) it
        index, points = self._index()
        query = points_for(SquaredEuclidean(), 1, DIM, seed=2)[0]
        before = index.search(query, K)
        seen = []

        class ProbeStage(PipelineStage):
            name = "probe"

            def run(self, ctx: QueryBatchContext) -> None:
                seen.append((len(ctx.refined), ctx.refine_backend))

        index.pipeline = SearchPipeline(
            index, default_stages(index) + [ProbeStage(index)]
        )
        after = index.search(query, K)
        np.testing.assert_array_equal(before.ids, after.ids)
        np.testing.assert_array_equal(before.divergences, after.divergences)
        assert "probe" in after.stats.stage_seconds
        # observers see the finished context; scoring always runs in-process
        assert seen == [(1, "serial")]


class TestCrossBatchPoolReuse:
    """Satellite: the buffer pool measures reuse across batches."""

    def _index(self, pool):
        divergence = SquaredEuclidean()
        points = points_for(divergence, N_POINTS, DIM, seed=1)
        config = BrePartitionConfig(
            n_partitions=3, seed=0, page_size_bytes=PAGE_BYTES
        )
        return BrePartitionIndex(divergence, config, buffer_pool=pool).build(points)

    def test_second_batch_reuses_first_batch_pages(self):
        pool = BufferPool(capacity_pages=10_000)
        index = self._index(pool)
        queries = points_for(SquaredEuclidean(), N_QUERIES, DIM, seed=2)
        first = index.search_batch(queries, K).stats
        second = index.search_batch(queries, K).stats
        # a cold pool has nothing from earlier batches to hand back
        assert first.cross_batch_hits == 0
        # identical queries: the whole coalesced working set is served
        # from pages the first batch inserted
        assert second.cross_batch_hits == second.pages_coalesced > 0
        assert second.pages_read == 0
        assert pool.cross_batch_hits == second.cross_batch_hits

    def test_disjoint_working_sets_count_no_cross_reuse(self):
        rng = np.random.default_rng(5)
        points = rng.normal(size=(40, 6))
        pool = BufferPool(capacity_pages=10_000)
        store = DataStore(points, page_size_bytes=4 * 6 * 8, buffer_pool=pool)
        pool.begin_batch()
        store.charge_pages_for([np.arange(0, 8)])
        pool.begin_batch()
        store.charge_pages_for([np.arange(20, 28)])  # page-disjoint batch
        assert pool.cross_batch_hits == 0
        pool.begin_batch()
        store.charge_pages_for([np.arange(0, 8)])  # revisits batch 1's pages
        assert pool.cross_batch_hits == store.count_pages_of(np.arange(0, 8))

    def test_no_pool_reports_none(self):
        divergence = SquaredEuclidean()
        points = points_for(divergence, N_POINTS, DIM, seed=1)
        index = build_index(divergence, points)
        queries = points_for(divergence, N_QUERIES, DIM, seed=2)
        assert index.search_batch(queries, K).stats.cross_batch_hits is None

    def test_pool_epoch_separates_intra_from_cross(self):
        pool = BufferPool(capacity_pages=16)
        pool.begin_batch()
        assert pool.access(1, 7) is False  # miss inserts
        assert pool.access(1, 7) is True  # intra-batch re-hit
        assert pool.cross_batch_hits == 0
        pool.begin_batch()
        assert pool.access(1, 7) is True  # cross-batch reuse
        assert pool.cross_batch_hits == 1
        pool.clear()
        assert pool.cross_batch_hits == 0


class TestMicroBatcher:
    """Satellite: async serving parity under concurrent clients."""

    def _index(self, divergence=None, points=None, **kwargs):
        divergence = divergence if divergence is not None else SquaredEuclidean()
        if points is None:
            points = points_for(divergence, N_POINTS, DIM, seed=1)
        return build_index(divergence, points, **kwargs), points

    def test_32_concurrent_clients_bitwise_identical_to_search(self):
        index, _ = self._index(n_shards=4, page_size_bytes=PAGE_BYTES)
        index.config.shard_workers = 4
        queries = points_for(SquaredEuclidean(), 32, DIM, seed=2)
        reference = [index.search(query, K) for query in queries]

        async def serve():
            async with MicroBatcher(
                index, K, max_batch_size=8, max_wait_ms=50.0
            ) as batcher:
                results = await asyncio.gather(
                    *(batcher.search(query) for query in queries)
                )
            return results, batcher.stats

        results, stats = asyncio.run(serve())
        for expected, served in zip(reference, results):
            np.testing.assert_array_equal(expected.ids, served.ids)
            np.testing.assert_array_equal(expected.divergences, served.divergences)
        assert stats.n_requests == 32
        assert sum(stats.batch_sizes) == 32
        assert max(stats.batch_sizes) <= 8
        assert stats.mean_batch_size > 1.0

    def test_deadline_flushes_partial_batch(self):
        index, _ = self._index()
        queries = points_for(SquaredEuclidean(), 3, DIM, seed=2)

        async def serve():
            async with MicroBatcher(
                index, K, max_batch_size=100, max_wait_ms=1.0
            ) as batcher:
                results = await asyncio.gather(
                    *(batcher.search(query) for query in queries)
                )
            return results, batcher.stats

        results, stats = asyncio.run(serve())
        assert stats.n_batches == 1
        assert list(stats.batch_sizes) == [3]
        for query, served in zip(queries, results):
            expected = index.search(query, K)
            np.testing.assert_array_equal(expected.ids, served.ids)

    def test_per_request_mode_dispatches_singleton_batches(self):
        index, _ = self._index()
        queries = points_for(SquaredEuclidean(), 6, DIM, seed=2)

        async def serve():
            async with MicroBatcher(
                index, K, config=MicroBatchConfig(max_batch_size=1, max_wait_ms=0.0)
            ) as batcher:
                return await asyncio.gather(
                    *(batcher.search(query) for query in queries)
                ), batcher.stats

        _, stats = asyncio.run(serve())
        assert stats.n_batches == 6
        assert list(stats.batch_sizes) == [1] * 6

    def test_bad_query_fails_alone_not_its_batch(self):
        divergence = ItakuraSaito()
        points = points_for(divergence, N_POINTS, DIM, seed=1)
        index, _ = self._index(divergence=divergence, points=points)
        good = points_for(divergence, 4, DIM, seed=2)
        bad = good[0].copy()
        bad[0] = -1.0  # outside the Itakura-Saito domain

        async def serve():
            async with MicroBatcher(
                index, K, max_batch_size=8, max_wait_ms=5.0
            ) as batcher:
                return await asyncio.gather(
                    *(batcher.search(query) for query in good),
                    batcher.search(bad),
                    return_exceptions=True,
                )

        results = asyncio.run(serve())
        assert isinstance(results[-1], DomainError)
        for query, served in zip(good, results[:-1]):
            expected = index.search(query, K)
            np.testing.assert_array_equal(expected.ids, served.ids)

    def test_wrong_shape_query_fails_alone_not_its_batch(self):
        # shape mismatches must be rejected eagerly: once batched, a
        # misshapen query would make np.stack fail the whole dispatch
        index, _ = self._index()
        good = points_for(SquaredEuclidean(), 4, DIM, seed=2)

        async def serve():
            async with MicroBatcher(
                index, K, max_batch_size=8, max_wait_ms=5.0
            ) as batcher:
                return await asyncio.gather(
                    *(batcher.search(query) for query in good),
                    batcher.search(good[0][: DIM - 2]),
                    batcher.search(good[:2]),  # 2-D input
                    return_exceptions=True,
                )

        results = asyncio.run(serve())
        assert isinstance(results[-2], InvalidParameterError)
        assert isinstance(results[-1], InvalidParameterError)
        for query, served in zip(good, results[:-2]):
            expected = index.search(query, K)
            np.testing.assert_array_equal(expected.ids, served.ids)

    def test_closed_batcher_rejects_requests(self):
        index, _ = self._index()
        query = points_for(SquaredEuclidean(), 1, DIM, seed=2)[0]

        async def serve():
            batcher = MicroBatcher(index, K)
            await batcher.close()
            with pytest.raises(InvalidParameterError, match="closed"):
                await batcher.search(query)

        asyncio.run(serve())

    def test_config_validation(self):
        index, _ = self._index()
        with pytest.raises(InvalidParameterError, match="max_batch_size"):
            MicroBatchConfig(max_batch_size=0)
        with pytest.raises(InvalidParameterError, match="max_wait_ms"):
            MicroBatchConfig(max_wait_ms=-1.0)
        with pytest.raises(InvalidParameterError, match="k must be"):
            MicroBatcher(index, 0)

    def test_serving_accounting_flows_through(self):
        # the engine-side BatchQueryStats ride along per dispatched batch
        index, _ = self._index()
        queries = points_for(SquaredEuclidean(), 8, DIM, seed=2)

        async def serve():
            async with MicroBatcher(
                index, K, max_batch_size=8, max_wait_ms=50.0
            ) as batcher:
                await asyncio.gather(*(batcher.search(query) for query in queries))
                return batcher.stats

        stats = asyncio.run(serve())
        assert len(stats.batch_stats) == stats.n_batches
        engine = stats.batch_stats[0]
        assert engine.n_queries == stats.batch_sizes[0]
        assert tuple(engine.stage_seconds) == STAGE_NAMES


class _HeadlessIndex:
    """An index proxy exposing only ``search_batch`` + ``divergence``.

    Models a serving target with no declared dimensionality (the
    MicroBatcher's ``_dimensionality`` probes find nothing), so batch
    shape consistency must come from the first pending request.
    """

    def __init__(self, inner) -> None:
        self._inner = inner
        self.divergence = inner.divergence

    def search_batch(self, queries, k):
        return self._inner.search_batch(queries, k)


class _SlowIndex(_HeadlessIndex):
    """Delays each batch on the worker thread (cancellation windows)."""

    def __init__(self, inner, delay_seconds: float) -> None:
        super().__init__(inner)
        self.delay_seconds = delay_seconds

    def search_batch(self, queries, k):
        time.sleep(self.delay_seconds)
        return self._inner.search_batch(queries, k)


class TestConcurrentServing:
    """ISSUE 5: overlapped in-flight batches, backpressure, accounting."""

    def _index(self, **kwargs):
        divergence = SquaredEuclidean()
        points = points_for(divergence, N_POINTS, DIM, seed=1)
        return build_index(divergence, points, **kwargs), points

    @pytest.mark.parametrize("workers", (1, 4))
    def test_parity_matrix_vs_direct_search(self, workers):
        # acceptance: with max_concurrent_batches in {1, 4}, every served
        # response is bitwise identical to direct search -- under the
        # sharded fan-out, so shard-tracker mirroring is also exercised
        # by overlapping batch scopes
        index, _ = self._index(n_shards=4, page_size_bytes=PAGE_BYTES)
        index.config.shard_workers = 2
        queries = points_for(SquaredEuclidean(), 32, DIM, seed=2)
        reference = [index.search(query, K) for query in queries]

        async def serve():
            async with MicroBatcher(
                index,
                K,
                max_batch_size=8,
                max_wait_ms=50.0,
                max_concurrent_batches=workers,
            ) as batcher:
                results = await asyncio.gather(
                    *(batcher.search(query) for query in queries)
                )
            return results, batcher.stats

        results, stats = asyncio.run(serve())
        for expected, served in zip(reference, results):
            np.testing.assert_array_equal(expected.ids, served.ids)
            np.testing.assert_array_equal(expected.divergences, served.divergences)
        assert stats.n_requests == 32
        assert stats.n_batches == 4
        assert stats.n_cancelled == stats.n_failed == stats.n_rejected == 0
        assert stats.mean_batch_size == 8.0

    def test_per_batch_pages_read_matches_serialized_run(self):
        # acceptance: per-batch pages_read under 4 overlapped batches is
        # exactly what a serialized run of the same batches charges --
        # the scoped-dedup guarantee the tentpole exists for
        index, _ = self._index(page_size_bytes=PAGE_BYTES)
        queries = points_for(SquaredEuclidean(), 32, DIM, seed=2)

        async def serve():
            async with MicroBatcher(
                index,
                K,
                max_batch_size=8,
                max_wait_ms=200.0,
                max_concurrent_batches=4,
            ) as batcher:
                await asyncio.gather(*(batcher.search(query) for query in queries))
                return batcher.stats

        stats = asyncio.run(serve())
        # submission order fills batches in 8-request chunks; completion
        # (hence batch_stats) order is scheduler-dependent, so compare
        # the per-batch page bills as multisets
        concurrent_pages = sorted(s.pages_read for s in stats.batch_stats)
        serialized_pages = sorted(
            index.search_batch(queries[lo : lo + 8], K).stats.pages_read
            for lo in range(0, 32, 8)
        )
        assert concurrent_pages == serialized_pages
        assert stats.total_pages_read == sum(serialized_pages)

    def test_mixed_dimension_request_fails_alone_without_index_dim(self):
        # satellite: with no index-declared dimensionality, the first
        # pending request defines the batch's dimension and a mismatched
        # query is rejected eagerly instead of poisoning the whole batch
        index, _ = self._index()
        headless = _HeadlessIndex(index)
        good = points_for(SquaredEuclidean(), 4, DIM, seed=2)
        short = good[0][: DIM - 3]

        async def serve():
            async with MicroBatcher(
                headless, K, max_batch_size=8, max_wait_ms=20.0
            ) as batcher:
                return await asyncio.gather(
                    *(batcher.search(query) for query in good),
                    batcher.search(short),
                    return_exceptions=True,
                )

        results = asyncio.run(serve())
        assert isinstance(results[-1], InvalidParameterError)
        for query, served in zip(good, results[:-1]):
            expected = index.search(query, K)
            np.testing.assert_array_equal(expected.ids, served.ids)
            np.testing.assert_array_equal(expected.divergences, served.divergences)

    def test_cancelled_client_still_counts_as_dispatched(self):
        # satellite: n_requests counts dispatched requests, cancelled
        # clients land in n_cancelled, and mean_batch_size keeps
        # agreeing with the dispatched batch_sizes history
        index, _ = self._index()
        slow = _SlowIndex(index, delay_seconds=0.2)
        queries = points_for(SquaredEuclidean(), 4, DIM, seed=2)

        async def serve():
            async with MicroBatcher(
                slow, K, max_batch_size=4, max_wait_ms=5.0
            ) as batcher:
                tasks = [
                    asyncio.ensure_future(batcher.search(query))
                    for query in queries
                ]
                # let all four requests enqueue; the 4th triggers the
                # size-based flush, dispatching the batch to the worker
                await asyncio.sleep(0.05)
                assert batcher.stats.n_batches == 1
                tasks[1].cancel()
                results = await asyncio.gather(*tasks, return_exceptions=True)
            return results, batcher.stats

        results, stats = asyncio.run(serve())
        assert isinstance(results[1], asyncio.CancelledError)
        assert stats.n_requests == 4
        assert stats.n_cancelled == 1
        assert stats.n_failed == 0
        assert stats.mean_batch_size == 4.0
        assert list(stats.batch_sizes) == [4]
        for slot in (0, 2, 3):
            expected = index.search(queries[slot], K)
            np.testing.assert_array_equal(expected.ids, results[slot].ids)

    def test_queue_depth_reject_sheds_overload(self):
        # a 10-request burst against depth 3 with the batch cap above it
        # (the queue cannot drain mid-burst): 3 admitted, 7 shed
        index, _ = self._index()
        queries = points_for(SquaredEuclidean(), 10, DIM, seed=2)

        async def serve():
            async with MicroBatcher(
                index,
                K,
                max_batch_size=64,
                max_wait_ms=5.0,
                max_queue_depth=3,
                overflow="reject",
            ) as batcher:
                results = await asyncio.gather(
                    *(batcher.search(query) for query in queries),
                    return_exceptions=True,
                )
            return results, batcher.stats

        results, stats = asyncio.run(serve())
        shed = [r for r in results if isinstance(r, ServerOverloadedError)]
        assert len(shed) == 7
        assert stats.n_rejected == 7
        assert stats.n_requests == 3  # only admitted requests dispatched
        for slot in range(3):
            expected = index.search(queries[slot], K)
            np.testing.assert_array_equal(expected.ids, results[slot].ids)

    def test_queue_depth_wait_backpressures_and_serves_all(self):
        index, _ = self._index()
        queries = points_for(SquaredEuclidean(), 10, DIM, seed=2)
        reference = [index.search(query, K) for query in queries]

        async def serve():
            async with MicroBatcher(
                index,
                K,
                max_batch_size=64,
                max_wait_ms=2.0,
                max_queue_depth=3,
                overflow="wait",
            ) as batcher:
                results = await asyncio.gather(
                    *(batcher.search(query) for query in queries)
                )
            return results, batcher.stats

        results, stats = asyncio.run(serve())
        assert stats.n_rejected == 0
        assert stats.n_requests == 10
        assert stats.n_batches >= 3  # depth 3 forces several waves
        for expected, served in zip(reference, results):
            np.testing.assert_array_equal(expected.ids, served.ids)

    def test_concurrency_config_validation(self):
        index, _ = self._index()
        with pytest.raises(InvalidParameterError, match="max_concurrent_batches"):
            MicroBatchConfig(max_concurrent_batches=0)
        with pytest.raises(InvalidParameterError, match="max_queue_depth"):
            MicroBatchConfig(max_queue_depth=0)
        with pytest.raises(InvalidParameterError, match="overflow"):
            MicroBatchConfig(overflow="drop")
        with pytest.raises(InvalidParameterError, match="overflow"):
            MicroBatcher(index, K, overflow="spill")
