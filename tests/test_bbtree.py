"""Tests for the BB-tree: construction, exact kNN, range queries."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.linear_scan import brute_force_knn
from repro.bbtree import BBForest, BBTree
from repro.divergences import ItakuraSaito, SquaredEuclidean
from repro.exceptions import InvalidParameterError, NotFittedError
from repro.partitioning import ContiguousPartitioner
from repro.storage import DataStore, DiskAccessTracker

from conftest import all_decomposable_divergences, points_for


class TestConstruction:
    @pytest.mark.parametrize("name,div", all_decomposable_divergences(6))
    def test_leaf_order_is_permutation(self, name, div):
        points = points_for(div, 80, 6, seed=31)
        tree = BBTree(div, leaf_capacity=8, rng=np.random.default_rng(0)).build(points)
        order = tree.leaf_order()
        assert sorted(order.tolist()) == list(range(80))

    def test_leaf_capacity_respected(self):
        div = SquaredEuclidean()
        points = np.random.default_rng(1).normal(size=(100, 5))
        tree = BBTree(div, leaf_capacity=10, rng=np.random.default_rng(0)).build(points)
        assert all(len(leaf.point_ids) <= 10 for leaf in tree.leaves())

    def test_balls_cover_subtrees(self):
        div = SquaredEuclidean()
        points = np.random.default_rng(2).normal(size=(60, 4))
        tree = BBTree(div, leaf_capacity=8, rng=np.random.default_rng(0)).build(points)
        for leaf in tree.leaves():
            for pid in leaf.point_ids:
                assert leaf.ball.contains(div, points[pid])

    def test_duplicate_points_build(self):
        div = SquaredEuclidean()
        points = np.ones((50, 3))
        tree = BBTree(div, leaf_capacity=8, rng=np.random.default_rng(0)).build(points)
        assert sorted(tree.leaf_order().tolist()) == list(range(50))

    def test_empty_build_rejected(self):
        with pytest.raises(InvalidParameterError):
            BBTree(SquaredEuclidean()).build(np.empty((0, 3)))

    def test_custom_point_ids(self):
        div = SquaredEuclidean()
        points = np.random.default_rng(3).normal(size=(20, 3))
        ids = np.arange(100, 120)
        tree = BBTree(div, leaf_capacity=4, rng=np.random.default_rng(0)).build(points, ids)
        assert sorted(tree.leaf_order().tolist()) == list(range(100, 120))

    def test_search_before_build(self):
        tree = BBTree(SquaredEuclidean())
        with pytest.raises(NotFittedError):
            tree.knn(np.zeros(3), 1)
        with pytest.raises(NotFittedError):
            tree.range_query(np.zeros(3), 1.0)

    def test_node_counters(self):
        div = SquaredEuclidean()
        points = np.random.default_rng(4).normal(size=(64, 4))
        tree = BBTree(div, leaf_capacity=8, rng=np.random.default_rng(0)).build(points)
        assert tree.count_nodes() >= len(tree.leaves())
        assert tree.height() >= 1


class TestKnn:
    @pytest.mark.parametrize("name,div", all_decomposable_divergences(8))
    def test_knn_matches_brute_force(self, name, div):
        points = points_for(div, 150, 8, seed=32)
        queries = points_for(div, 5, 8, seed=33)
        tree = BBTree(div, leaf_capacity=12, rng=np.random.default_rng(0)).build(points)
        for q in queries:
            ids, dists, _ = tree.knn(q, k=7)
            true_ids, true_dists = brute_force_knn(div, points, q, 7)
            np.testing.assert_allclose(
                np.sort(dists), np.sort(true_dists), rtol=1e-8, atol=1e-10
            )
            assert set(ids.tolist()) == set(true_ids.tolist())

    def test_k_one(self):
        div = SquaredEuclidean()
        points = np.random.default_rng(5).normal(size=(50, 4))
        tree = BBTree(div, leaf_capacity=8, rng=np.random.default_rng(0)).build(points)
        ids, dists, _ = tree.knn(points[17], k=1)
        assert ids[0] == 17
        assert dists[0] == pytest.approx(0.0, abs=1e-12)

    def test_invalid_k(self):
        div = SquaredEuclidean()
        points = np.random.default_rng(6).normal(size=(10, 3))
        tree = BBTree(div, leaf_capacity=4, rng=np.random.default_rng(0)).build(points)
        with pytest.raises(InvalidParameterError):
            tree.knn(points[0], k=0)

    def test_pruning_happens_on_clustered_data(self):
        div = SquaredEuclidean()
        rng = np.random.default_rng(7)
        blobs = [rng.normal(c, 0.05, size=(40, 4)) for c in (0.0, 20.0, 40.0, 60.0)]
        points = np.vstack(blobs)
        tree = BBTree(div, leaf_capacity=8, rng=np.random.default_rng(0)).build(points)
        _, _, stats = tree.knn(points[0], k=3)
        assert stats.leaves_visited < len(tree.leaves())

    def test_fetcher_charges_io(self):
        div = SquaredEuclidean()
        points = np.random.default_rng(8).normal(size=(60, 4))
        tracker = DiskAccessTracker()
        tree = BBTree(div, leaf_capacity=8, rng=np.random.default_rng(0)).build(points)
        store = DataStore(
            points,
            layout_order=tree.leaf_order(),
            page_size_bytes=256,
            tracker=tracker,
        )
        scope = tracker.scope()
        ids, dists, _ = tree.knn(
            points[0], k=5, fetcher=lambda ids: store.fetch(ids, scope=scope)
        )
        snap = tracker.finish_scope(scope)
        assert snap.pages_read > 0
        true_ids, _ = brute_force_knn(div, points, points[0], 5)
        assert set(ids.tolist()) == set(true_ids.tolist())


class TestRangeQuery:
    @pytest.mark.parametrize("name,div", all_decomposable_divergences(8))
    def test_point_filter_matches_brute_force(self, name, div):
        points = points_for(div, 120, 8, seed=34)
        query = points_for(div, 1, 8, seed=35)[0]
        dists = div.batch_divergence(points, query)
        radius = float(np.median(dists))
        tree = BBTree(div, leaf_capacity=10, rng=np.random.default_rng(0)).build(points)
        result = tree.range_query(query, radius, point_filter=True)
        expected = set(np.flatnonzero(dists <= radius).tolist())
        assert set(result.point_ids.tolist()) == expected

    @pytest.mark.parametrize("name,div", all_decomposable_divergences(8))
    def test_cluster_granularity_is_superset(self, name, div):
        points = points_for(div, 120, 8, seed=36)
        query = points_for(div, 1, 8, seed=37)[0]
        dists = div.batch_divergence(points, query)
        radius = float(np.percentile(dists, 30))
        tree = BBTree(div, leaf_capacity=10, rng=np.random.default_rng(0)).build(points)
        coarse = set(tree.range_query(query, radius).point_ids.tolist())
        expected = set(np.flatnonzero(dists <= radius).tolist())
        assert expected <= coarse

    def test_negative_radius_empty(self):
        div = SquaredEuclidean()
        points = np.random.default_rng(9).normal(size=(30, 3))
        tree = BBTree(div, leaf_capacity=8, rng=np.random.default_rng(0)).build(points)
        assert tree.range_query(points[0], -1.0).point_ids.size == 0

    def test_zero_radius_contains_query_duplicate(self):
        div = SquaredEuclidean()
        points = np.random.default_rng(10).normal(size=(30, 3))
        tree = BBTree(div, leaf_capacity=8, rng=np.random.default_rng(0)).build(points)
        result = tree.range_query(points[4], 1e-12, point_filter=True)
        assert 4 in result.point_ids.tolist()


class TestBBForest:
    def _forest_setup(self, div, n=100, d=12, m=3, seed=38):
        points = points_for(div, n, d, seed=seed)
        partitioning = ContiguousPartitioner().partition(points, m)
        forest = BBForest(
            div, partitioning, leaf_capacity=10, rng=np.random.default_rng(0)
        ).build(points)
        return points, partitioning, forest

    def test_layout_is_permutation(self):
        div = SquaredEuclidean()
        points, _, forest = self._forest_setup(div)
        assert sorted(forest.layout_order.tolist()) == list(range(100))

    def test_seed_subspace_recorded(self):
        div = SquaredEuclidean()
        _, partitioning, forest = self._forest_setup(div)
        assert 0 <= forest.seed_subspace < partitioning.n_partitions
        assert len(forest.trees) == partitioning.n_partitions

    def test_range_union_contains_all_subspace_matches(self):
        div = ItakuraSaito()
        points, partitioning, forest = self._forest_setup(div)
        query = points_for(div, 1, 12, seed=39)[0]
        sub_queries = partitioning.split(query)
        radii = []
        for dims, sq in zip(partitioning.subspaces, sub_queries):
            sub_div = div.restrict(dims)
            d_sub = sub_div.batch_divergence(points[:, dims], sq)
            radii.append(float(np.percentile(d_sub, 40)))
        union, stats = forest.range_union(sub_queries, radii)
        expected = set()
        for dims, sq, radius in zip(partitioning.subspaces, sub_queries, radii):
            sub_div = div.restrict(dims)
            d_sub = sub_div.batch_divergence(points[:, dims], sq)
            expected |= set(np.flatnonzero(d_sub <= radius).tolist())
        assert expected <= set(union.tolist())
        assert stats.union_candidates == union.size
        assert len(stats.per_subspace_candidates) == partitioning.n_partitions

    def test_unbuilt_forest_raises(self):
        div = SquaredEuclidean()
        partitioning = ContiguousPartitioner().partition(np.zeros((10, 6)), 2)
        forest = BBForest(div, partitioning)
        with pytest.raises(NotFittedError):
            forest.range_union([np.zeros(3), np.zeros(3)], [1.0, 1.0])

    def test_count_nodes_positive(self):
        div = SquaredEuclidean()
        _, _, forest = self._forest_setup(div)
        assert forest.count_nodes() >= 3
