"""Tests for the BrePartition index: exactness, stats, configuration."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    BrePartitionConfig,
    BrePartitionIndex,
    MahalanobisDivergence,
    SimplexKL,
    brute_force_knn,
)
from repro.core.transforms import (
    SubspaceTransforms,
    determine_search_bounds,
)
from repro.divergences import ItakuraSaito, SquaredEuclidean
from repro.exceptions import (
    DomainError,
    InvalidParameterError,
    NotDecomposableError,
    NotFittedError,
)
from repro.partitioning import ContiguousPartitioner
from repro.pipeline import QueryBatchContext
from repro.pipeline.plan import PlanStage
from repro.storage import DataStore

from conftest import all_decomposable_divergences, points_for


class TestExactness:
    """Theorem 3: BrePartition returns the exact kNN, in every setting."""

    @pytest.mark.parametrize("name,div", all_decomposable_divergences(12))
    def test_exact_all_divergences(self, name, div):
        points = points_for(div, 200, 12, seed=41)
        queries = points_for(div, 4, 12, seed=42)
        index = BrePartitionIndex(
            div,
            BrePartitionConfig(n_partitions=3, seed=0, page_size_bytes=1024),
        ).build(points)
        for q in queries:
            result = index.search(q, k=8)
            true_ids, true_dists = brute_force_knn(div, points, q, 8)
            np.testing.assert_allclose(
                result.divergences, true_dists, rtol=1e-7, atol=1e-9
            )

    @pytest.mark.parametrize("m", [1, 2, 4, 8, 12])
    def test_exact_across_partition_counts(self, m):
        div = ItakuraSaito()
        points = points_for(div, 150, 12, seed=43)
        q = points_for(div, 1, 12, seed=44)[0]
        index = BrePartitionIndex(
            div, BrePartitionConfig(n_partitions=m, seed=0, page_size_bytes=1024)
        ).build(points)
        result = index.search(q, k=5)
        _, true_dists = brute_force_knn(div, points, q, 5)
        np.testing.assert_allclose(result.divergences, true_dists, rtol=1e-7)

    @pytest.mark.parametrize("strategy", ["pccp", "contiguous"])
    def test_exact_across_strategies(self, strategy):
        div = SquaredEuclidean()
        points = points_for(div, 150, 10, seed=45)
        q = points_for(div, 1, 10, seed=46)[0]
        index = BrePartitionIndex(
            div,
            BrePartitionConfig(
                n_partitions=4, strategy=strategy, seed=0, page_size_bytes=1024
            ),
        ).build(points)
        result = index.search(q, k=10)
        _, true_dists = brute_force_knn(div, points, q, 10)
        np.testing.assert_allclose(result.divergences, true_dists, rtol=1e-7)

    @pytest.mark.parametrize("k", [1, 2, 5, 20, 50])
    def test_exact_across_k(self, k):
        div = SquaredEuclidean()
        points = points_for(div, 120, 8, seed=47)
        q = points_for(div, 1, 8, seed=48)[0]
        index = BrePartitionIndex(
            div, BrePartitionConfig(n_partitions=2, seed=0, page_size_bytes=1024)
        ).build(points)
        result = index.search(q, k=k)
        assert result.k == k
        _, true_dists = brute_force_knn(div, points, q, k)
        np.testing.assert_allclose(result.divergences, true_dists, rtol=1e-7)

    def test_exact_with_point_filter(self):
        div = ItakuraSaito()
        points = points_for(div, 150, 12, seed=49)
        q = points_for(div, 1, 12, seed=50)[0]
        index = BrePartitionIndex(
            div,
            BrePartitionConfig(
                n_partitions=3, seed=0, page_size_bytes=1024, point_filter=True
            ),
        ).build(points)
        result = index.search(q, k=7)
        _, true_dists = brute_force_knn(div, points, q, 7)
        np.testing.assert_allclose(result.divergences, true_dists, rtol=1e-7)

    def test_query_equal_to_data_point(self):
        div = SquaredEuclidean()
        points = points_for(div, 80, 8, seed=51)
        index = BrePartitionIndex(
            div, BrePartitionConfig(n_partitions=2, seed=0, page_size_bytes=1024)
        ).build(points)
        result = index.search(points[13], k=1)
        assert result.ids[0] == 13
        assert result.divergences[0] == pytest.approx(0.0, abs=1e-10)

    def test_auto_partition_count_still_exact(self):
        div = SquaredEuclidean()
        points = points_for(div, 150, 16, seed=52)
        index = BrePartitionIndex(
            div,
            BrePartitionConfig(seed=0, page_size_bytes=1024, calibration_samples=10),
        ).build(points)
        assert 1 <= index.n_partitions <= 16
        assert index.cost_params is not None
        q = points_for(div, 1, 16, seed=53)[0]
        result = index.search(q, k=5)
        _, true_dists = brute_force_knn(div, points, q, 5)
        np.testing.assert_allclose(result.divergences, true_dists, rtol=1e-7)


class TestValidation:
    def test_rejects_non_decomposable(self):
        with pytest.raises(NotDecomposableError):
            BrePartitionIndex(SimplexKL())
        with pytest.raises(NotDecomposableError):
            BrePartitionIndex(MahalanobisDivergence(np.eye(4)))

    def test_rejects_out_of_domain_data(self):
        div = ItakuraSaito()
        with pytest.raises(DomainError):
            BrePartitionIndex(
                div, BrePartitionConfig(n_partitions=2, page_size_bytes=1024)
            ).build(np.array([[1.0, -1.0], [2.0, 3.0]]))

    def test_rejects_out_of_domain_query(self):
        div = ItakuraSaito()
        points = points_for(div, 50, 6, seed=54)
        index = BrePartitionIndex(
            div, BrePartitionConfig(n_partitions=2, seed=0, page_size_bytes=1024)
        ).build(points)
        with pytest.raises(DomainError):
            index.search(np.full(6, -1.0), k=3)

    def test_search_before_build(self):
        index = BrePartitionIndex(SquaredEuclidean())
        with pytest.raises(NotFittedError):
            index.search(np.zeros(4), 1)

    def test_invalid_k(self):
        div = SquaredEuclidean()
        points = points_for(div, 30, 6, seed=55)
        index = BrePartitionIndex(
            div, BrePartitionConfig(n_partitions=2, seed=0, page_size_bytes=1024)
        ).build(points)
        with pytest.raises(InvalidParameterError):
            index.search(np.zeros(6), 0)
        with pytest.raises(InvalidParameterError):
            index.search(np.zeros(6), 31)

    def test_too_few_points(self):
        with pytest.raises(InvalidParameterError):
            BrePartitionIndex(
                SquaredEuclidean(), BrePartitionConfig(n_partitions=1)
            ).build(np.zeros((1, 4)))

    def test_config_validation(self):
        with pytest.raises(InvalidParameterError):
            BrePartitionConfig(n_partitions=0)
        with pytest.raises(InvalidParameterError):
            BrePartitionConfig(page_size_bytes=10)
        with pytest.raises(InvalidParameterError):
            BrePartitionConfig(strategy="nope").make_strategy(np.random.default_rng(0))


class TestStats:
    def _index(self):
        div = SquaredEuclidean()
        points = points_for(div, 120, 10, seed=56)
        index = BrePartitionIndex(
            div, BrePartitionConfig(n_partitions=4, seed=0, page_size_bytes=512)
        ).build(points)
        return div, points, index

    def test_stats_populated(self):
        div, points, index = self._index()
        result = index.search(points[0], k=5)
        stats = result.stats
        assert stats.pages_read > 0
        assert stats.cpu_seconds > 0.0
        assert stats.n_candidates >= 5
        assert stats.search_bound > 0.0
        assert len(stats.per_subspace_candidates) == 4
        assert stats.leaves_visited > 0

    def test_io_bounded_by_total_pages(self):
        div, points, index = self._index()
        result = index.search(points[0], k=5)
        assert result.stats.pages_read <= index.datastore.n_pages

    def test_construction_time_recorded(self):
        _, _, index = self._index()
        assert index.construction_seconds > 0.0

    def test_tracker_accumulates_across_queries(self):
        div, points, index = self._index()
        index.search(points[0], k=3)
        index.search(points[1], k=3)
        assert index.tracker.queries == 2
        assert index.tracker.total_pages_read > 0

    def test_results_sorted_ascending(self):
        div, points, index = self._index()
        result = index.search(points[0], k=10)
        assert np.all(np.diff(result.divergences) >= -1e-12)

    def test_result_iteration(self):
        div, points, index = self._index()
        result = index.search(points[0], k=3)
        pairs = list(result)
        assert len(pairs) == 3
        assert pairs[0][0] == result.ids[0]

    def test_close_is_idempotent_and_index_stays_usable(self):
        div, points, index = self._index()
        queries = points[:8]
        first = index.search_batch(queries, 5)
        index.close()
        index.close()
        again = index.search_batch(queries, 5)
        for a, b in zip(first, again):
            np.testing.assert_array_equal(a.ids, b.ids)
            np.testing.assert_array_equal(a.divergences, b.divergences)


class TestAlgorithm4:
    def test_anchor_is_kth_smallest_total(self):
        div = SquaredEuclidean()
        points = points_for(div, 60, 8, seed=57)
        partitioning = ContiguousPartitioner().partition(points, 2)
        transforms = SubspaceTransforms(div, partitioning, points)
        q = points_for(div, 1, 8, seed=58)[0]
        triples = transforms.query_triples(q)
        ub = transforms.upper_bound_matrix(triples)
        totals = ub.sum(axis=1)
        for k in (1, 3, 10):
            sb = determine_search_bounds(ub, k)
            assert sb.total == pytest.approx(np.sort(totals)[k - 1])
            np.testing.assert_allclose(sb.radii, ub[sb.anchor_id])

    def test_invalid_k_rejected(self):
        ub = np.ones((5, 2))
        with pytest.raises(InvalidParameterError):
            determine_search_bounds(ub, 0)
        with pytest.raises(InvalidParameterError):
            determine_search_bounds(ub, 6)

    def test_ub_matrix_dominates_subspace_divergences(self):
        """Every entry of the (n, M) bound matrix dominates the true
        per-subspace divergence -- the keystone of Theorem 3."""
        div = ItakuraSaito()
        points = points_for(div, 50, 9, seed=59)
        partitioning = ContiguousPartitioner().partition(points, 3)
        transforms = SubspaceTransforms(div, partitioning, points)
        q = points_for(div, 1, 9, seed=60)[0]
        ub = transforms.upper_bound_matrix(transforms.query_triples(q))
        for i, dims in enumerate(partitioning.subspaces):
            sub_div = div.restrict(dims)
            true = sub_div.batch_divergence(points[:, dims], q[dims])
            assert np.all(ub[:, i] >= true - 1e-9)


class TestOneShardLayout:
    """A one-shard index keeps the paper's file (Section 6): the full
    vectors clustered in the seed tree's leaf order, page for page, so
    every query touches the same pages as on that one clustered file."""

    D = 12
    PAGE_BYTES = 8 * 12 * 8  # 8 points per page

    def _reference(self, index, points):
        return DataStore(
            points,
            layout_order=index.forest.layout_order,
            page_size_bytes=self.PAGE_BYTES,
        )

    def _candidates(self, index, queries, k):
        ctx = QueryBatchContext(queries=queries, k=k, snapshot=index.snapshot())
        PlanStage(index).run(ctx)
        return ctx.candidates

    def test_pages_match_the_clustered_file(self):
        div = SquaredEuclidean()
        points = points_for(div, 300, self.D, seed=43)
        queries = points_for(div, 8, self.D, seed=44)
        config = BrePartitionConfig(
            n_partitions=3, seed=0, page_size_bytes=self.PAGE_BYTES
        )
        index = BrePartitionIndex(div, config).build(points)
        reference = self._reference(index, points)
        assert index.datastore.n_shards == 1
        assert index.datastore.n_pages == reference.n_pages
        for ids in self._candidates(index, queries, 5):
            assert index.datastore.count_pages_of(ids) == (
                reference.count_pages_of(ids)
            )

        # an extend merge appends to that file exactly as the
        # clustered file's own extension does
        extra = points_for(div, 20, self.D, seed=45)
        for vec in extra:
            index.insert(vec)
        index.merge(mode="extend")
        reference = reference.extended(extra)
        assert index.datastore.n_pages == reference.n_pages
        for ids in self._candidates(index, queries, 5):
            assert index.datastore.count_pages_of(ids) == (
                reference.count_pages_of(ids)
            )
        appended = np.arange(300, 320)
        assert index.datastore.count_pages_of(appended) == (
            reference.count_pages_of(appended)
        )
