"""Tests for dynamic BB-tree updates (insert/delete extension)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.linear_scan import brute_force_knn
from repro.bbtree import BBTree
from repro.divergences import ItakuraSaito, SquaredEuclidean
from repro.exceptions import InvalidParameterError, StorageError

from conftest import all_decomposable_divergences, points_for


def _build(div, n=80, d=6, seed=111, leaf_capacity=8):
    points = points_for(div, n, d, seed=seed)
    tree = BBTree(div, leaf_capacity=leaf_capacity, rng=np.random.default_rng(0)).build(points)
    return points, tree


class TestInsert:
    @pytest.mark.parametrize("name,div", all_decomposable_divergences(6))
    def test_insert_then_knn_exact(self, name, div):
        points, tree = _build(div)
        extra = points_for(div, 10, 6, seed=112)
        for i, point in enumerate(extra):
            tree.insert(point, 1000 + i)
        all_points = np.vstack([points, extra])
        all_ids = np.concatenate([np.arange(80), 1000 + np.arange(10)])
        query = points_for(div, 1, 6, seed=113)[0]
        ids, dists, _ = tree.knn(query, k=7)
        exact = div.batch_divergence(all_points, query)
        order = np.argsort(exact, kind="stable")[:7]
        np.testing.assert_allclose(np.sort(dists), np.sort(exact[order]), rtol=1e-8)
        assert set(ids.tolist()) <= set(all_ids.tolist())

    def test_inserted_point_findable(self):
        div = SquaredEuclidean()
        points, tree = _build(div)
        new_point = np.full(6, 42.0)
        tree.insert(new_point, 999)
        ids, dists, _ = tree.knn(new_point, k=1)
        assert ids[0] == 999
        assert dists[0] == pytest.approx(0.0, abs=1e-12)

    def test_covering_invariant_after_inserts(self):
        div = SquaredEuclidean()
        points, tree = _build(div)
        rng = np.random.default_rng(114)
        for i in range(30):
            tree.insert(rng.normal(size=6) * 3.0, 2000 + i)
        for leaf in tree.leaves():
            for pid in leaf.point_ids:
                row = tree._row_of[int(pid)]
                assert leaf.ball.contains(div, tree._points[row])

    def test_leaf_splits_keep_capacity_reasonable(self):
        div = SquaredEuclidean()
        points, tree = _build(div, leaf_capacity=4)
        rng = np.random.default_rng(115)
        for i in range(40):
            tree.insert(rng.normal(size=6), 3000 + i)
        assert all(len(leaf.point_ids) <= 4 for leaf in tree.leaves())

    def test_duplicate_id_rejected(self):
        div = SquaredEuclidean()
        points, tree = _build(div)
        with pytest.raises(InvalidParameterError):
            tree.insert(np.zeros(6), 0)

    def test_dimension_mismatch_rejected(self):
        div = SquaredEuclidean()
        points, tree = _build(div)
        with pytest.raises(InvalidParameterError):
            tree.insert(np.zeros(5), 500)

    def test_range_query_sees_inserted(self):
        div = ItakuraSaito()
        points, tree = _build(div)
        new_point = points[0] * 1.0001
        tree.insert(new_point, 777)
        result = tree.range_query(points[0], 1e-3, point_filter=True)
        assert 777 in result.point_ids.tolist()


class TestDelete:
    def test_deleted_point_not_returned(self):
        div = SquaredEuclidean()
        points, tree = _build(div)
        tree.delete(17)
        ids, _, _ = tree.knn(points[17], k=3)
        assert 17 not in ids.tolist()

    def test_delete_then_knn_matches_brute_force(self):
        div = SquaredEuclidean()
        points, tree = _build(div)
        removed = {3, 11, 42, 60}
        for pid in removed:
            tree.delete(pid)
        keep = np.array([i for i in range(80) if i not in removed])
        query = points_for(div, 1, 6, seed=116)[0]
        ids, dists, _ = tree.knn(query, k=5)
        exact_ids, exact_dists = brute_force_knn(div, points[keep], query, 5)
        np.testing.assert_allclose(np.sort(dists), exact_dists, rtol=1e-8)
        assert removed.isdisjoint(set(ids.tolist()))

    def test_delete_unknown_id(self):
        div = SquaredEuclidean()
        points, tree = _build(div)
        with pytest.raises(StorageError):
            tree.delete(12345)

    def test_delete_twice(self):
        div = SquaredEuclidean()
        points, tree = _build(div)
        tree.delete(5)
        with pytest.raises(StorageError):
            tree.delete(5)

    def test_insert_after_delete_roundtrip(self):
        div = SquaredEuclidean()
        points, tree = _build(div)
        tree.delete(8)
        tree.insert(points[8], 8)
        ids, dists, _ = tree.knn(points[8], k=1)
        assert ids[0] == 8
        assert dists[0] == pytest.approx(0.0, abs=1e-12)

    def test_churn_preserves_exactness(self):
        """Alternating inserts/deletes must keep kNN exact."""
        div = ItakuraSaito()
        points, tree = _build(div, n=60)
        rng = np.random.default_rng(117)
        live = {int(i): points[i] for i in range(60)}
        next_id = 1000
        for step in range(40):
            if step % 2 == 0:
                vec = np.exp(rng.normal(0.0, 0.5, size=6))
                tree.insert(vec, next_id)
                live[next_id] = vec
                next_id += 1
            else:
                victim = int(rng.choice(sorted(live)))
                tree.delete(victim)
                del live[victim]
        query = np.exp(rng.normal(0.0, 0.5, size=6))
        ids, dists, _ = tree.knn(query, k=5)
        live_ids = np.array(sorted(live))
        live_points = np.stack([live[i] for i in live_ids])
        exact = div.batch_divergence(live_points, query)
        np.testing.assert_allclose(np.sort(dists), np.sort(exact)[:5], rtol=1e-8)


class TestRowBookkeeping:
    """The backing arrays must stay consistent through delete/reinsert."""

    def test_delete_retires_the_row_id(self):
        div = SquaredEuclidean()
        points, tree = _build(div)
        row = tree._row_of[17]
        tree.delete(17)
        # the row must not keep claiming id 17: a later id->row rebuild
        # (or anything scanning _ids) would resurrect the deleted point
        assert tree._ids[row] == -1
        assert 17 not in tree._row_of

    def test_freed_rows_are_reused_without_growth(self):
        div = SquaredEuclidean()
        points, tree = _build(div)
        n_rows = tree._points.shape[0]
        row = tree._row_of[17]
        tree.delete(17)
        tree.insert(np.zeros(6), 500)
        assert tree._points.shape[0] == n_rows  # reused, not appended
        assert tree._row_of[500] == row
        assert tree._ids[row] == 500

    def test_collect_ids_agrees_with_membership_after_churn(self):
        div = SquaredEuclidean()
        points, tree = _build(div, n=40)
        rng = np.random.default_rng(118)
        live = set(range(40))
        for i in range(30):
            if live and rng.random() < 0.5:
                victim = int(rng.choice(sorted(live)))
                tree.delete(victim)
                live.discard(victim)
            else:
                tree.insert(rng.normal(size=6), 4000 + i)
                live.add(4000 + i)
        np.testing.assert_array_equal(tree.collect_ids(), np.array(sorted(live)))

    def test_delete_reinsert_roundtrips(self):
        div = SquaredEuclidean()
        points, tree = _build(div)
        for _ in range(3):
            tree.delete(8)
            tree.insert(points[8], 8)
        ids, dists, _ = tree.knn(points[8], k=1)
        assert ids[0] == 8
        assert dists[0] == pytest.approx(0.0, abs=1e-12)


class TestDegenerateSplit:
    def test_duplicate_points_fall_back_to_half_split(self):
        """Identical points defeat two-means (one cluster swallows all);
        the half-split fallback must keep capacity bounded and kNN exact."""
        div = SquaredEuclidean()
        points, tree = _build(div, n=16, leaf_capacity=4)
        dup = points[0].copy()
        for i in range(12):
            tree.insert(dup, 9000 + i)
        assert all(len(leaf.point_ids) <= 4 for leaf in tree.leaves())
        ids, dists, _ = tree.knn(dup, k=13)
        assert set(9000 + np.arange(12)) <= set(ids.tolist())
        np.testing.assert_allclose(dists[:13], 0.0, atol=1e-12)


class TestFlatViewInvalidation:
    """Batched range queries run on a flat view of the tree, built on the
    first one; every in-place mutation must drop it."""

    # far from the data: only points inserted here are in range
    QUERY = np.full(6, 40.0)

    def _batched(self, tree, point_filter):
        result = tree.range_query_batch(self.QUERY[None, :], np.array([1.0]), point_filter)
        return result.point_ids[0]

    @pytest.mark.parametrize("point_filter", [False, True])
    def test_insert_then_delete(self, point_filter):
        _, tree = _build(SquaredEuclidean())
        assert 999 not in self._batched(tree, point_filter)  # builds the view
        tree.insert(self.QUERY, 999)
        assert 999 in self._batched(tree, point_filter)
        tree.delete(999)
        assert 999 not in self._batched(tree, point_filter)

    @pytest.mark.parametrize("point_filter", [False, True])
    def test_extend_leaves_the_original_alone(self, point_filter):
        _, tree = _build(SquaredEuclidean())
        before = self._batched(tree, point_filter)  # builds the view
        new_ids = np.array([500, 501])
        clone = tree.extended(np.stack([self.QUERY, self.QUERY + 0.1]), new_ids)
        assert set(new_ids) <= set(self._batched(clone, point_filter).tolist())
        np.testing.assert_array_equal(self._batched(tree, point_filter), before)
