"""Batch engine tests: single/batch parity, coalesced I/O, batch plumbing.

The contract under test (ISSUE 1's tentpole): ``search_batch`` must
return *exactly* what per-query ``search`` returns -- same neighbour ids,
same divergence values -- for every registered decomposable divergence,
while charging less simulated I/O than the queries would pay one at a
time.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    ApproximateBrePartitionIndex,
    BatchSearchResult,
    BrePartitionConfig,
    BrePartitionIndex,
    LinearScanIndex,
    SquaredEuclidean,
)
from repro.bbtree import BBForest, BBTree
from repro.bbtree import flat as flat_module
from repro.core.transforms import (
    determine_search_bounds,
    determine_search_bounds_batch,
)
from repro.datasets import load_dataset
from repro.exceptions import (
    DomainError,
    InvalidParameterError,
    NotFittedError,
)
from repro.geometry import (
    BallTerms,
    BatchRangeProber,
    ball_intersects_range,
    batch_ball_intersects_range,
)
from repro.partitioning import ContiguousPartitioner
from repro.pipeline import QueryBatchContext
from repro.storage import BufferPool, DataStore, DiskAccessTracker, ShardedDataStore

from conftest import all_decomposable_divergences, charge_groups, points_for

N_POINTS = 220
N_QUERIES = 12
DIM = 12
K = 5


def build_index(divergence, points, **config_kwargs):
    config = BrePartitionConfig(n_partitions=3, seed=0, **config_kwargs)
    return BrePartitionIndex(divergence, config).build(points)


@pytest.fixture(scope="module")
def fonts_batch():
    """The fonts proxy (Itakura-Saito, d=400) at M=16 with a B=64 batch:
    the regime where the shared forest traversal pays off most."""
    dataset = load_dataset("fonts", n=1500, n_queries=64, seed=0)
    index = BrePartitionIndex(
        dataset.divergence,
        BrePartitionConfig(
            n_partitions=16, page_size_bytes=dataset.page_size_bytes, seed=0
        ),
    ).build(dataset.points)
    return index, dataset.queries


def assert_batch_matches_search(index, queries, k):
    batch = index.search_batch(queries, k)
    assert isinstance(batch, BatchSearchResult)
    assert len(batch) == len(queries)
    for query, batched in zip(queries, batch):
        single = index.search(query, k)
        np.testing.assert_array_equal(single.ids, batched.ids)
        np.testing.assert_array_equal(single.divergences, batched.divergences)


def assert_batch_coalesces(index, queries, k):
    stats = index.search_batch(queries, k).stats
    # The coalesced working set can never exceed what the queries
    # would touch individually, nor the number of pages that exist,
    # and with no buffer pool the actual charge equals it.
    assert stats.pages_coalesced <= stats.pages_read_unshared
    assert stats.pages_coalesced <= index.datastore.n_pages
    assert stats.pages_read == stats.pages_coalesced
    assert stats.pages_saved == stats.pages_read_unshared - stats.pages_coalesced
    assert stats.pages_saved > 0  # the queries share pages
    assert stats.n_queries == len(queries)


class TestSearchBatchParity:
    @pytest.mark.parametrize(
        "name,divergence", all_decomposable_divergences(DIM)
    )
    def test_matches_per_query_search(self, name, divergence):
        points = points_for(divergence, N_POINTS, DIM, seed=1)
        queries = points_for(divergence, N_QUERIES, DIM, seed=2)
        assert_batch_matches_search(build_index(divergence, points), queries, K)

    def test_matches_per_query_search_on_fonts(self, fonts_batch):
        index, queries = fonts_batch
        assert_batch_matches_search(index, queries, 10)

    def test_single_query_batch(self):
        divergence = SquaredEuclidean()
        points = points_for(divergence, N_POINTS, DIM, seed=1)
        query = points_for(divergence, 1, DIM, seed=2)
        index = build_index(divergence, points)
        batch = index.search_batch(query, K)
        single = index.search(query[0], K)
        assert len(batch) == 1
        np.testing.assert_array_equal(batch[0].ids, single.ids)
        np.testing.assert_array_equal(batch[0].divergences, single.divergences)

    def test_results_sorted_ascending(self):
        divergence = SquaredEuclidean()
        points = points_for(divergence, N_POINTS, DIM, seed=1)
        queries = points_for(divergence, N_QUERIES, DIM, seed=2)
        index = build_index(divergence, points)
        for result in index.search_batch(queries, K):
            assert np.all(np.diff(result.divergences) >= 0.0)

    def test_point_filter_config(self):
        divergence = SquaredEuclidean()
        points = points_for(divergence, N_POINTS, DIM, seed=1)
        queries = points_for(divergence, N_QUERIES, DIM, seed=2)
        index = build_index(divergence, points, point_filter=True)
        batch = index.search_batch(queries, K)
        for query, batched in zip(queries, batch):
            single = index.search(query, K)
            np.testing.assert_array_equal(single.ids, batched.ids)
            np.testing.assert_array_equal(single.divergences, batched.divergences)

    def test_approximate_index_batch(self):
        divergence = SquaredEuclidean()
        points = points_for(divergence, N_POINTS, DIM, seed=1)
        queries = points_for(divergence, N_QUERIES, DIM, seed=2)
        index = ApproximateBrePartitionIndex(
            divergence,
            probability=0.9,
            config=BrePartitionConfig(n_partitions=3, seed=0, point_filter=True),
        ).build(points)
        batch = index.search_batch(queries, K)
        for query, batched in zip(queries, batch):
            single = index.search(query, K)
            np.testing.assert_array_equal(single.ids, batched.ids)
            np.testing.assert_array_equal(single.divergences, batched.divergences)

    def test_linear_scan_batch_parity(self):
        divergence = SquaredEuclidean()
        points = points_for(divergence, N_POINTS, DIM, seed=1)
        queries = points_for(divergence, N_QUERIES, DIM, seed=2)
        index = LinearScanIndex(divergence).build(points)
        batch = index.search_batch(queries, K)
        for query, batched in zip(queries, batch):
            single = index.search(query, K)
            np.testing.assert_array_equal(single.ids, batched.ids)
            np.testing.assert_array_equal(single.divergences, batched.divergences)


class TestBatchIO:
    def test_batch_coalesces_pages(self):
        divergence = SquaredEuclidean()
        points = points_for(divergence, N_POINTS, DIM, seed=1)
        queries = points_for(divergence, N_QUERIES, DIM, seed=2)
        tracker = DiskAccessTracker()
        index = BrePartitionIndex(
            divergence, BrePartitionConfig(n_partitions=3, seed=0), tracker=tracker
        ).build(points)
        assert_batch_coalesces(index, queries, K)

    def test_batch_coalesces_pages_on_fonts(self, fonts_batch):
        index, queries = fonts_batch
        assert_batch_coalesces(index, queries, 10)

    def test_per_query_stats_report_solo_pages(self):
        divergence = SquaredEuclidean()
        points = points_for(divergence, N_POINTS, DIM, seed=1)
        queries = points_for(divergence, N_QUERIES, DIM, seed=2)
        index = build_index(divergence, points)
        batch = index.search_batch(queries, K)
        for result in batch:
            assert result.stats.pages_read >= 1
            assert result.stats.n_candidates >= K
        assert batch.stats.pages_read_unshared == sum(
            r.stats.pages_read for r in batch
        )

    def test_buffer_pool_hits_not_reported_as_coalescing(self):
        divergence = SquaredEuclidean()
        points = points_for(divergence, N_POINTS, DIM, seed=1)
        queries = points_for(divergence, 1, DIM, seed=2)  # B=1: zero coalescing
        pool = BufferPool(capacity_pages=10_000)
        index = BrePartitionIndex(
            divergence,
            BrePartitionConfig(n_partitions=3, seed=0),
            buffer_pool=pool,
        ).build(points)
        index.search_batch(queries, K)  # warm the pool
        stats = index.search_batch(queries, K).stats
        # The pool absorbs the charge, but a single-query batch shares
        # nothing across queries, so no savings may be claimed.
        assert stats.pages_read < stats.pages_coalesced
        assert stats.pages_saved == 0
        # search reports the same pool-aware charge, not solo pages
        assert index.search(queries[0], K).stats.pages_read == stats.pages_read

    def test_pages_read_per_shard_on_one_shard(self):
        divergence = SquaredEuclidean()
        points = points_for(divergence, N_POINTS, DIM, seed=1)
        queries = points_for(divergence, N_QUERIES, DIM, seed=2)
        index = build_index(divergence, points)
        stats = index.search_batch(queries, K).stats
        assert stats.pages_read_per_shard == [stats.pages_coalesced]
        assert len(stats.shard_seconds) == 1
        assert stats.shard_workers == 1

    def test_linear_scan_batch_charges_one_scan(self):
        divergence = SquaredEuclidean()
        points = points_for(divergence, N_POINTS, DIM, seed=1)
        queries = points_for(divergence, N_QUERIES, DIM, seed=2)
        index = LinearScanIndex(divergence).build(points)
        batch = index.search_batch(queries, K)
        assert batch.stats.pages_read == index.datastore.n_pages
        assert batch.stats.pages_coalesced == index.datastore.n_pages
        assert (
            batch.stats.pages_read_unshared
            == index.datastore.n_pages * N_QUERIES
        )


class TestShardedBatchIO:
    """Batch accounting semantics must survive the sharded fan-out."""

    # tiny pages (8 points each) so the fan-out spans several pages/shard
    PAGE_BYTES = 8 * DIM * 8
    N_SHARDS = 4

    def _index(self, tracker=None, buffer_pool=None, n_shards=N_SHARDS):
        divergence = SquaredEuclidean()
        points = points_for(divergence, N_POINTS, DIM, seed=1)
        config = BrePartitionConfig(
            n_partitions=3,
            seed=0,
            page_size_bytes=self.PAGE_BYTES,
            n_shards=n_shards,
        )
        return BrePartitionIndex(
            divergence, config, tracker=tracker, buffer_pool=buffer_pool
        ).build(points)

    def _queries(self, n=N_QUERIES):
        return points_for(SquaredEuclidean(), n, DIM, seed=2)

    def test_fanout_sums_to_coalesced(self):
        index = self._index()
        stats = index.search_batch(self._queries(), K).stats
        assert isinstance(index.datastore, ShardedDataStore)
        assert stats.pages_read_per_shard is not None
        assert len(stats.pages_read_per_shard) == self.N_SHARDS
        assert sum(stats.pages_read_per_shard) == stats.pages_coalesced
        # leaf striping should spread the working set across shards
        assert sum(1 for pages in stats.pages_read_per_shard if pages > 0) > 1

    def test_coalescing_invariants_hold_sharded(self):
        tracker = DiskAccessTracker()
        index = self._index(tracker=tracker)
        stats = index.search_batch(self._queries(), K).stats
        assert stats.pages_coalesced <= stats.pages_read_unshared
        assert stats.pages_coalesced <= index.datastore.n_pages
        assert stats.pages_read == stats.pages_coalesced  # no pool
        assert stats.pages_saved == stats.pages_read_unshared - stats.pages_coalesced

    def test_shard_trackers_sum_to_aggregate(self):
        tracker = DiskAccessTracker()
        index = self._index(tracker=tracker)
        index.search_batch(self._queries(), K)
        index.search(self._queries(1)[0], K)
        store = index.datastore
        assert sum(store.shard_pages_read) == tracker.total_pages_read
        assert sum(tr.total_pages_read for tr in store.shard_trackers) == (
            tracker.total_pages_read
        )

    def test_pool_hits_not_reported_as_coalescing_sharded(self):
        pool = BufferPool(capacity_pages=10_000)
        index = self._index(buffer_pool=pool)
        queries = self._queries(1)  # B=1: zero coalescing possible
        index.search_batch(queries, K)  # warm the pool
        stats = index.search_batch(queries, K).stats
        assert pool.hits > 0
        assert stats.pages_read < stats.pages_coalesced  # pool absorbed reads
        assert stats.pages_saved == 0  # but no coalescing was claimed
        # search reports the same pool-aware charge, not solo pages
        assert index.search(queries[0], K).stats.pages_read == stats.pages_read

    def test_pages_saved_pool_oblivious_sharded(self):
        # Same workload with and without a pool: pages_saved (a pure
        # coalescing figure) must not change, and pool hits must account
        # for exactly the charge the pool absorbed.
        queries = self._queries()
        cold = self._index().search_batch(queries, K).stats

        pool = BufferPool(capacity_pages=10_000)
        warm_index = self._index(buffer_pool=pool)
        warm_index.search_batch(queries, K)  # warm the pool
        hits_before = pool.hits
        warm = warm_index.search_batch(queries, K).stats
        assert warm.pages_saved == cold.pages_saved
        assert warm.pages_coalesced == cold.pages_coalesced
        assert warm.pages_read == 0  # fully absorbed on the second pass
        assert pool.hits - hits_before == warm.pages_coalesced

    def test_fetch_charges_each_shards_union_slice_once(self, monkeypatch):
        """Fetch charges one group per shard, the shard's slice of the
        batch's candidate union, not one group per query."""
        index = self._index()
        store = index.datastore
        calls = []
        original = ShardedDataStore.charge_shard_replica

        def recording(self, shard, replica, local_groups, scope=None):
            calls.append((shard, [np.asarray(g) for g in local_groups]))
            return original(self, shard, replica, local_groups, scope=scope)

        monkeypatch.setattr(ShardedDataStore, "charge_shard_replica", recording)
        ctx = index.pipeline.run(
            QueryBatchContext(queries=self._queries(), k=K, scope=index.tracker.scope())
        )
        assert sorted(shard for shard, _ in calls) == list(range(self.N_SHARDS))
        splits = store.shard_split(ctx.union)
        for shard, groups in calls:
            assert len(groups) == 1
            np.testing.assert_array_equal(groups[0], splits[shard][1])
        assert ctx.pages_coalesced == store.count_pages_of(ctx.union)

    def test_per_query_solo_pages_sum_sharded(self):
        index = self._index()
        batch = index.search_batch(self._queries(), K)
        assert batch.stats.pages_read_unshared == sum(
            r.stats.pages_read for r in batch
        )

    def test_single_query_search_charges_aggregate(self):
        tracker = DiskAccessTracker()
        index = self._index(tracker=tracker)
        result = index.search(self._queries(1)[0], K)
        assert result.stats.pages_read >= 1
        assert result.stats.pages_read <= index.datastore.n_pages


class TestShardedDataStore:
    def _store(self, n=64, d=6, n_shards=3, **kwargs):
        rng = np.random.default_rng(21)
        points = rng.normal(size=(n, d))
        return points, ShardedDataStore(
            points, n_shards, page_size_bytes=4 * d * 8, **kwargs
        )

    def test_peek_and_fetch_return_logical_order(self):
        points, store = self._store()
        ids = np.array([5, 63, 0, 17, 5])
        np.testing.assert_allclose(store.peek(ids), points[ids])
        # charge each shard's slice, then read it the way
        # ShardedDataStore.peek does: peek each shard's slab and scatter
        # it by the split's positions (the search path reads the index's
        # frozen base instead)
        charge_groups(store, [ids])
        fetched = np.empty((ids.size, 6))
        for s, (positions, local) in enumerate(store.shard_split(ids)):
            fetched[positions] = store.replicas[s][0].peek(local)
        np.testing.assert_allclose(fetched, points[ids])

    def test_charge_shard_replica_fans_out_the_union(self):
        tracker = DiskAccessTracker()
        points, store = self._store(tracker=tracker)
        groups = [np.arange(10), np.array([], dtype=int), np.arange(50, 64)]
        splits = store.shard_split(np.concatenate(groups))
        per_shard = [
            store.charge_shard_replica(s, 0, [local])
            for s, (_, local) in enumerate(splits)
        ]
        assert sum(1 for pages in per_shard if pages > 0) > 1
        assert sum(per_shard) == store.count_pages_of(np.concatenate(groups))
        assert store.shard_pages_read == per_shard
        assert tracker.total_pages_read == sum(per_shard)

    def test_page_of_numbers_every_page_once(self):
        _, store = self._store()
        pages = store.page_of
        np.testing.assert_array_equal(np.unique(pages), np.arange(store.n_pages))
        offset = 0
        for s, (_, local) in enumerate(store.shard_split(np.arange(64))):
            assert set(pages[store.shard_of == s] - offset) == set(
                store.shards[s].pages_of(local).tolist()
            )
            offset += store.shards[s].n_pages
        # an extended store numbers its own pages; the receiver's map stays
        bigger = store.extended(np.random.default_rng(23).normal(size=(40, 6)))
        assert bigger.page_of.size == 104
        np.testing.assert_array_equal(
            np.unique(bigger.page_of), np.arange(bigger.n_pages)
        )
        assert store.page_of is pages

    def test_count_and_pages_of_empty(self):
        _, store = self._store()
        assert store.count_pages_of([]) == 0
        assert store.peek(np.array([], dtype=int)).shape == (0, 6)

    def test_shard_sizes_partition_everything(self):
        _, store = self._store()
        assert sum(store.shard_sizes) == store.n_points

    def test_extended_appends_round_robin(self):
        points, store = self._store()
        old_pages = [store.count_pages_of(np.arange(s, 64, 5)) for s in range(5)]
        extra = np.random.default_rng(23).normal(size=(7, 6))
        bigger = store.extended(extra)
        assert store.n_points == 64  # the receiver is untouched
        assert bigger.n_points == 71
        np.testing.assert_array_equal(
            bigger.peek(np.arange(71)), np.vstack([points, extra])
        )
        np.testing.assert_array_equal(bigger.shard_of[64:], np.arange(7) % 3)
        assert [
            bigger.count_pages_of(np.arange(s, 64, 5)) for s in range(5)
        ] == old_pages
        assert bigger.shard_trackers is store.shard_trackers

    def test_shard_tracker_reset(self):
        _, store = self._store()
        charge_groups(store, [np.arange(20)])
        tracker = store.shard_trackers[0]
        assert tracker.total_pages_read > 0
        tracker.reset()  # zeroes under the existing lock; aggregate untouched
        assert tracker.total_pages_read == 0
        assert tracker.aggregate is store.tracker

    def test_rejects_bad_arguments(self):
        rng = np.random.default_rng(22)
        points = rng.normal(size=(10, 4))
        with pytest.raises(InvalidParameterError, match="n_shards"):
            ShardedDataStore(points, 0)
        with pytest.raises(InvalidParameterError, match="permutation"):
            ShardedDataStore(points, 2, layout_order=np.zeros(10, dtype=int))
        with pytest.raises(InvalidParameterError, match="shard_of"):
            ShardedDataStore(points, 2, shard_of=np.zeros(3, dtype=int))
        with pytest.raises(InvalidParameterError, match="shard_of"):
            ShardedDataStore(points, 2, shard_of=np.full(10, 5))


class TestBatchValidation:
    def setup_method(self):
        self.divergence = SquaredEuclidean()
        self.points = points_for(self.divergence, N_POINTS, DIM, seed=1)
        self.queries = points_for(self.divergence, N_QUERIES, DIM, seed=2)
        self.index = build_index(self.divergence, self.points)

    def test_rejects_unbuilt(self):
        fresh = BrePartitionIndex(self.divergence)
        with pytest.raises(NotFittedError, match="build"):
            fresh.search_batch(self.queries, K)

    @pytest.mark.parametrize("bad_k", [0, -3, N_POINTS + 1])
    def test_rejects_bad_k(self, bad_k):
        with pytest.raises(InvalidParameterError, match="k must be in"):
            self.index.search_batch(self.queries, bad_k)

    def test_rejects_wrong_dims(self):
        with pytest.raises(InvalidParameterError, match="shape"):
            self.index.search_batch(self.queries[:, : DIM - 2], K)

    def test_search_rejects_wrong_shapes(self):
        query = self.queries[0]

        message = rf"query must have shape \({DIM},\), got \(1, {DIM}\)"
        with pytest.raises(InvalidParameterError, match=message):
            self.index.search(query[None, :], K)

        message = rf"query must have shape \({DIM},\), got \({DIM + 1},\)"
        with pytest.raises(InvalidParameterError, match=message):
            self.index.search(np.append(query, query[0]), K)

        message = rf"query must have shape \({DIM},\), got \(\)"
        with pytest.raises(InvalidParameterError, match=message):
            self.index.search(query[0], K)

    def test_rejects_domain_violation(self):
        from repro import ItakuraSaito

        points = points_for(ItakuraSaito(), N_POINTS, DIM, seed=1)
        index = build_index(ItakuraSaito(), points)
        bad = np.abs(points_for(ItakuraSaito(), 2, DIM, seed=2))
        bad[1, 0] = -1.0
        with pytest.raises(DomainError, match="domain"):
            index.search_batch(bad, K)

    def test_empty_batch(self):
        batch = self.index.search_batch(np.empty((0, DIM)), K)
        assert len(batch) == 0
        assert batch.stats.n_queries == 0
        assert batch.stats.pages_read == 0

    def test_linear_scan_rejects_bad_k(self):
        index = LinearScanIndex(self.divergence).build(self.points)
        with pytest.raises(InvalidParameterError, match="k must be in"):
            index.search_batch(self.queries, 0)

    def test_linear_scan_rejects_wrong_dims(self):
        index = LinearScanIndex(self.divergence).build(self.points)
        with pytest.raises(InvalidParameterError, match="shape"):
            index.search_batch(self.queries[:, :3], K)


class TestBatchPrimitives:
    """The layers under search_batch agree with their scalar versions."""

    @pytest.mark.parametrize(
        "name,divergence", all_decomposable_divergences(DIM)
    )
    def test_batch_intersection_matches_scalar(self, name, divergence):
        points = points_for(divergence, 60, DIM, seed=3)
        queries = points_for(divergence, 10, DIM, seed=4)
        center = divergence.centroid(points)
        ball_radius = float(
            np.max(divergence.batch_divergence(points, center))
        )
        radii = np.linspace(0.0, 2.0 * ball_radius, queries.shape[0])
        batched = batch_ball_intersects_range(
            divergence, center, ball_radius, queries, radii
        )
        for query, radius, got in zip(queries, radii, batched):
            expected = ball_intersects_range(
                divergence, center, ball_radius, query, radius
            )
            assert got == expected

    def test_negative_radius_rejects_all(self):
        divergence = SquaredEuclidean()
        queries = points_for(divergence, 4, DIM, seed=5)
        decisions = batch_ball_intersects_range(
            divergence,
            np.zeros(DIM),
            1.0,
            queries,
            np.full(4, -1.0),
        )
        assert not decisions.any()

    def test_bounds_batch_matches_single(self):
        rng = np.random.default_rng(6)
        ub_tensor = rng.uniform(0.1, 5.0, size=(7, 50, 4))
        batch = determine_search_bounds_batch(ub_tensor, k=8)
        for b in range(7):
            single = determine_search_bounds(ub_tensor[b], k=8)
            assert batch.anchor_ids[b] == single.anchor_id
            assert batch.totals[b] == single.total
            np.testing.assert_array_equal(batch.radii[b], single.radii)

    def test_bounds_batch_validation(self):
        with pytest.raises(InvalidParameterError, match="k must be in"):
            determine_search_bounds_batch(np.ones((2, 5, 3)), k=6)
        with pytest.raises(InvalidParameterError, match="shape"):
            determine_search_bounds_batch(np.ones((5, 3)), k=2)

    def test_tree_range_query_batch_matches_scalar(self):
        divergence = SquaredEuclidean()
        points = points_for(divergence, 150, DIM, seed=7)
        queries = points_for(divergence, 6, DIM, seed=8)
        tree = BBTree(divergence, leaf_capacity=16, rng=np.random.default_rng(0)).build(
            points
        )
        radii = np.linspace(0.5, 8.0, 6)
        batch = tree.range_query_batch(queries, radii, point_filter=True)
        for q in range(6):
            single = tree.range_query(queries[q], radii[q], point_filter=True)
            np.testing.assert_array_equal(
                np.sort(single.point_ids), np.sort(batch.point_ids[q])
            )

    def test_tree_batch_radii_shape_checked(self):
        divergence = SquaredEuclidean()
        points = points_for(divergence, 60, DIM, seed=7)
        tree = BBTree(divergence, leaf_capacity=16).build(points)
        queries = points_for(divergence, 4, DIM, seed=8)
        with pytest.raises(InvalidParameterError, match="one radius per query"):
            tree.range_query_batch(queries, np.ones(3))

    def test_tree_query_width_checked(self):
        divergence = SquaredEuclidean()
        points = points_for(divergence, 60, DIM, seed=7)
        tree = BBTree(divergence, leaf_capacity=16).build(points)
        queries = points_for(divergence, 4, DIM, seed=8)

        message = rf"queries must have shape \(B, {DIM}\), got \(4, {DIM - 1}\)"
        with pytest.raises(InvalidParameterError, match=message):
            tree.range_query_batch(queries[:, 1:], np.ones(4))

        message = rf"query must have shape \({DIM},\), got \({DIM + 1},\)"
        with pytest.raises(InvalidParameterError, match=message):
            tree.range_query(np.append(queries[0], 1.0), 1.0)

        message = rf"query must have shape \({DIM},\), got \(1, {DIM}\)"
        with pytest.raises(InvalidParameterError, match=message):
            tree.range_query(queries[:1], 1.0)

    def test_forest_batch_shapes_checked(self):
        divergence = SquaredEuclidean()
        points = points_for(divergence, 80, DIM, seed=7)
        queries = points_for(divergence, 3, DIM, seed=8)
        partitioning = ContiguousPartitioner().partition(points, 2)
        forest = BBForest(
            divergence, partitioning, leaf_capacity=8, rng=np.random.default_rng(0)
        ).build(points)
        subs = partitioning.split_matrix(queries)
        radii = np.ones((3, 2))
        half = DIM // 2

        # a missing subspace would silently shrink Theorem 3's candidate set
        message = r"query_submatrices must hold 2 matrices of shape \(B, d_i\).* got 1"
        with pytest.raises(InvalidParameterError, match=message):
            forest.range_union_batch(subs[:1], radii)
        with pytest.raises(InvalidParameterError, match="got 3"):
            forest.range_union_batch(subs + subs[:1], radii)

        message = r"radii must have shape \(B, M\) = \(3, 2\), got \(3, 3\)"
        with pytest.raises(InvalidParameterError, match=message):
            forest.range_union_batch(subs, np.ones((3, 3)))
        with pytest.raises(InvalidParameterError, match=r"got \(3,\)"):
            forest.range_union_batch(subs, np.ones(3))

        message = rf"query_submatrices\[1\] must have shape \(B, {half}\).* got \(3, {half - 1}\)"
        with pytest.raises(InvalidParameterError, match=message):
            forest.range_union_batch([subs[0], subs[1][:, 1:]], radii)
        message = rf"query_submatrices\[1\] must have shape \(B, {half}\).* got \(2, {half}\)"
        with pytest.raises(InvalidParameterError, match=message):
            forest.range_union_batch([subs[0], subs[1][:2]], radii)
        message = rf"query_submatrices\[0\] must have shape \(B, {half}\).* got \({half},\)"
        with pytest.raises(InvalidParameterError, match=message):
            forest.range_union_batch([subs[0][0], subs[1]], radii)

        unions, stats = forest.range_union_batch(subs, radii)
        assert len(unions) == len(stats) == 3


def _walk_range_query(tree, queries, radii, point_filter):
    """Reference for ``range_query_batch``: a per-node walk from the root.

    Each node is tested, with ``batch_ball_intersects_range``, against
    the queries that reached it; the survivors descend.  Returns each
    query's sorted candidate ids and its count of kept leaves.
    """
    found = [[] for _ in range(queries.shape[0])]
    leaves = np.zeros(queries.shape[0], dtype=int)
    stack = [(tree.root, np.flatnonzero(radii >= 0.0))]
    while stack:
        node, reached = stack.pop()
        if reached.size == 0:
            continue
        keep = batch_ball_intersects_range(
            tree.divergence,
            node.ball.center,
            node.ball.radius,
            queries[reached],
            radii[reached],
            max_iter=tree.lb_max_iter,
        )
        survivors = reached[keep]
        if not node.is_leaf:
            stack.extend((child, survivors) for child in (node.left, node.right))
            continue
        rows = np.array([tree._row_of[int(pid)] for pid in node.point_ids], dtype=int)
        for q in survivors:
            leaves[q] += 1
            ids = node.point_ids
            if point_filter:
                dists = tree.divergence.batch_divergence(tree._points[rows], queries[q])
                ids = ids[dists <= radii[q]]
            found[q].append(ids)
    ids = [np.sort(np.concatenate(parts)) if parts else np.empty(0, int) for parts in found]
    return ids, leaves


class TestFlatTraversal:
    """``range_query_batch`` decides every (node, query) pair exactly as a
    per-node walk does; only the schedule of the ball tests differs."""

    @pytest.mark.parametrize("point_filter", [False, True])
    @pytest.mark.parametrize("n_queries", [1, 7, 32])
    @pytest.mark.parametrize("name,divergence", all_decomposable_divergences(DIM))
    def test_matches_per_node_walk(self, monkeypatch, name, divergence, n_queries, point_filter):
        """Under every schedule of rounds (``LOOKAHEAD`` 0 is the
        level-by-level walk, 1 and the module's value look further
        ahead) the kept leaves are the walk's."""
        points = points_for(divergence, 200, DIM, seed=11)
        queries = points_for(divergence, n_queries, DIM, seed=12)
        tree = BBTree(divergence, leaf_capacity=6, rng=np.random.default_rng(0)).build(
            points
        )
        # Radii from tiny to wide (quantiles of each query's divergences
        # to the data), with every third query negative: pairs resolve by
        # either fast path, by bisection, or not at all.
        levels = np.linspace(0.01, 0.6, n_queries)
        radii = np.array([
            np.quantile(divergence.batch_divergence(points, query), level)
            for query, level in zip(queries, levels)
        ])
        radii[1::3] = -radii[1::3] - 1.0

        expected_ids, expected_leaves = _walk_range_query(
            tree, queries, radii, point_filter
        )
        for lookahead in sorted({0, 1, flat_module.LOOKAHEAD}):
            monkeypatch.setattr(flat_module, "LOOKAHEAD", lookahead)
            batch = tree.range_query_batch(queries, radii, point_filter=point_filter)
            np.testing.assert_array_equal(batch.leaves_visited, expected_leaves)
            for got, expected in zip(batch.point_ids, expected_ids):
                np.testing.assert_array_equal(np.sort(got), expected)
        assert expected_leaves.sum() > 0
        assert (expected_leaves[1::3] == 0).all()

    def test_leaf_pruned_by_its_ancestor(self):
        # The right leaf's ball reaches (-1, 0), outside the root's ball:
        # the query's range meets the leaf but not the root, so no leaf
        # is kept, exactly as a top-down walk finds.
        divergence = SquaredEuclidean()
        points = np.array([[0.0, 1.0], [0.0, -1.0], [3.0, 0.01], [3.0, -0.01]])
        tree = BBTree(divergence, leaf_capacity=2, rng=np.random.default_rng(0)).build(
            points
        )
        queries, radii = np.array([[-1.5, 0.0]]), np.array([0.36])
        leaf = tree.root.left if 0 in tree.root.left.point_ids else tree.root.right
        for node, meets in ((tree.root, False), (leaf, True)):
            decision = batch_ball_intersects_range(
                divergence, node.ball.center, node.ball.radius, queries, radii
            )
            assert decision[0] == meets

        batch = tree.range_query_batch(queries, radii)
        assert batch.point_ids[0].size == 0
        assert batch.leaves_visited[0] == 0

    @pytest.mark.parametrize("name,divergence", all_decomposable_divergences(100))
    def test_fast_paths_round_like_gathered_pairs(self, name, divergence):
        """Each dense fast-path value equals the row-wise formula over
        gathered pairs bit for bit: with a ball radius or range radius
        set to one pair's own value, a 1-ulp drift flips it to NO."""
        centers = points_for(divergence, 40, 100, seed=13)
        queries = points_for(divergence, 32, 100, seed=14)
        grad_c = divergence.phi_prime(centers)
        grad_q = divergence.phi_prime(queries)
        f_c = np.sum(divergence.phi(centers), axis=1)
        f_q = np.sum(divergence.phi(queries), axis=1)
        c_dot_grad_c = np.einsum("ij,ij->i", centers, grad_c)
        q_dot_grad_q = np.einsum("ij,ij->i", queries, grad_q)
        q_of_n = np.arange(40) % 32
        n_of_q = np.arange(32) % 40

        # D(q, c): the query inside the ball, for the pairs (n, q_of_n[n])
        ball_radii = np.maximum(
            f_q[q_of_n] - f_c - np.einsum("ij,ij->i", queries[q_of_n], grad_c) + c_dot_grad_c,
            0.0,
        )
        prober = BatchRangeProber(divergence, queries)
        yes = prober.fast_yes(
            BallTerms.of(divergence, centers, ball_radii), np.arange(32), np.full(32, -1.0)
        )
        assert yes[np.arange(40), q_of_n].all()

        # D(c, q): the center inside the range, for the pairs (n_of_q[q], q)
        range_radii = np.maximum(
            f_c[n_of_q] - f_q - np.einsum("ij,ij->i", grad_q, centers[n_of_q]) + q_dot_grad_q,
            0.0,
        )
        yes = prober.fast_yes(
            BallTerms.of(divergence, centers, np.zeros(40)), np.arange(32), range_radii
        )
        assert yes[n_of_q, np.arange(32)].all()


class TestDataStoreBatchFetch:
    def test_charge_then_peek_returns_group_vectors(self):
        rng = np.random.default_rng(9)
        points = rng.normal(size=(40, 6))
        store = DataStore(points, page_size_bytes=4 * 6 * 8)
        groups = [np.array([3, 1, 7]), np.array([], dtype=int), np.array([0, 39])]
        store.charge_pages_for(groups)
        fetched = [store.peek(ids) for ids in groups]
        np.testing.assert_allclose(fetched[0], points[[3, 1, 7]])
        assert fetched[1].shape == (0, 6)
        np.testing.assert_allclose(fetched[2], points[[0, 39]])

    def test_charge_pages_for_charges_union_once(self):
        rng = np.random.default_rng(9)
        points = rng.normal(size=(40, 6))
        tracker = DiskAccessTracker()
        store = DataStore(points, page_size_bytes=4 * 6 * 8, tracker=tracker)
        ids = np.arange(8)  # both groups share the same two pages
        scope = tracker.scope()
        charged = store.charge_pages_for([ids, ids.copy()], scope=scope)
        snapshot = tracker.finish_scope(scope)
        assert charged == store.count_pages_of(ids)
        assert snapshot.pages_read == store.count_pages_of(ids)

    def test_count_pages_of(self):
        points = np.zeros((10, 4))
        store = DataStore(points, page_size_bytes=2 * 4 * 8)  # 2 points per page
        assert store.count_pages_of([]) == 0
        assert store.count_pages_of([0, 1]) == 1
        assert store.count_pages_of(np.arange(10)) == store.n_pages
