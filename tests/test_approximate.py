"""Tests for ABP (approximate BrePartition) and the beta_xy model."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    ApproximateBrePartitionIndex,
    BrePartitionConfig,
    BrePartitionIndex,
    brute_force_knn,
)
from repro.core.approximate import BetaXYModel
from repro.divergences import ExponentialDistance, ItakuraSaito, SquaredEuclidean
from repro.exceptions import InvalidParameterError, NotFittedError
from repro.pipeline import QueryBatchContext
from repro.pipeline.plan import PlanStage

from conftest import points_for


def _normal_points(n=300, d=16, seed=61):
    return np.random.default_rng(seed).normal(0.0, 1.0, size=(n, d))


class TestBetaXYModel:
    def test_cdf_monotone(self):
        div = SquaredEuclidean()
        model = BetaXYModel("normal").fit(div, _normal_points(), rng=np.random.default_rng(0))
        values = [model.cdf(v) for v in (-10.0, 0.0, 10.0)]
        assert values == sorted(values)
        assert 0.0 <= values[0] <= values[-1] <= 1.0

    def test_inverse_cdf_roundtrip_normal(self):
        div = SquaredEuclidean()
        model = BetaXYModel("normal").fit(div, _normal_points(), rng=np.random.default_rng(0))
        for p in (0.1, 0.5, 0.9):
            assert model.cdf(model.inverse_cdf(p)) == pytest.approx(p, abs=1e-6)

    def test_empirical_cdf_matches_samples(self):
        div = SquaredEuclidean()
        model = BetaXYModel("empirical").fit(
            div, _normal_points(), n_pairs=500, rng=np.random.default_rng(0)
        )
        median = model.inverse_cdf(0.5)
        assert model.cdf(median) == pytest.approx(0.5, abs=0.05)

    def test_unfit_raises(self):
        with pytest.raises(NotFittedError):
            BetaXYModel().cdf(0.0)

    def test_bad_kind(self):
        with pytest.raises(InvalidParameterError):
            BetaXYModel("weird")

    def test_coefficient_in_unit_interval(self):
        div = SquaredEuclidean()
        model = BetaXYModel("normal").fit(div, _normal_points(), rng=np.random.default_rng(0))
        for p in (0.5, 0.7, 0.9, 1.0):
            c = model.coefficient(mu=50.0, kappa=10.0, probability=p)
            assert 0.0 < c <= 1.0

    def test_coefficient_monotone_in_probability(self):
        """Higher guarantee -> larger coefficient (less shrinking)."""
        div = SquaredEuclidean()
        model = BetaXYModel("normal").fit(div, _normal_points(), rng=np.random.default_rng(0))
        cs = [model.coefficient(50.0, 10.0, p) for p in (0.5, 0.7, 0.9, 0.99)]
        assert all(a <= b + 1e-12 for a, b in zip(cs, cs[1:]))

    def test_degenerate_mu(self):
        div = SquaredEuclidean()
        model = BetaXYModel("normal").fit(div, _normal_points(), rng=np.random.default_rng(0))
        assert model.coefficient(0.0, 1.0, 0.9) == 1.0


class TestApproximateIndex:
    def _build(self, probability, seed=0, div=None, n=250, d=12):
        div = div if div is not None else ExponentialDistance()
        points = points_for(div, n, d, seed=62)
        index = ApproximateBrePartitionIndex(
            div,
            probability=probability,
            config=BrePartitionConfig(n_partitions=3, seed=seed, page_size_bytes=1024),
        ).build(points)
        return div, points, index

    def test_returns_k_results(self):
        div, points, index = self._build(0.7)
        q = points_for(div, 1, 12, seed=63)[0]
        result = index.search(q, k=10)
        assert result.k == 10

    def test_probability_one_behaves_exactly(self):
        div, points, index = self._build(1.0)
        q = points_for(div, 1, 12, seed=64)[0]
        result = index.search(q, k=8)
        _, true_dists = brute_force_knn(div, points, q, 8)
        # p=1 can still shrink slightly through the CDF tail clamp, so
        # compare overall ratio, not ids.
        assert float(np.mean(result.divergences / np.maximum(true_dists, 1e-12))) < 1.05

    def test_invalid_probability(self):
        with pytest.raises(InvalidParameterError):
            ApproximateBrePartitionIndex(SquaredEuclidean(), probability=0.0)
        with pytest.raises(InvalidParameterError):
            ApproximateBrePartitionIndex(SquaredEuclidean(), probability=1.5)

    def test_high_probability_high_recall(self):
        div, points, index = self._build(0.95)
        rng = np.random.default_rng(65)
        recalls = []
        for q in points_for(div, 10, 12, seed=66):
            result = index.search(q, k=10)
            true_ids, _ = brute_force_knn(div, points, q, 10)
            recalls.append(
                len(set(result.ids.tolist()) & set(true_ids.tolist())) / 10
            )
        assert float(np.mean(recalls)) >= 0.8

    def test_lower_probability_prunes_no_less(self):
        """Smaller p shrinks radii, so candidates cannot increase."""
        div_a, points, low = self._build(0.5, seed=1)
        _, _, high = self._build(0.99, seed=1)
        q = points_for(div_a, 1, 12, seed=67)[0]
        cand_low = low.search(q, k=5).stats.n_candidates
        cand_high = high.search(q, k=5).stats.n_candidates
        assert cand_low <= cand_high

    def test_isd_dataset(self):
        div = ItakuraSaito()
        points = points_for(div, 250, 12, seed=68)
        index = ApproximateBrePartitionIndex(
            div,
            probability=0.9,
            config=BrePartitionConfig(n_partitions=3, seed=0, page_size_bytes=1024),
        ).build(points)
        q = points_for(div, 1, 12, seed=69)[0]
        result = index.search(q, k=5)
        assert result.k == 5
        assert np.all(result.divergences >= 0.0)

    def test_coefficient_recorded(self):
        div, points, index = self._build(0.8)
        q = points_for(div, 1, 12, seed=70)[0]
        index.search(q, k=5)
        assert 0.0 < index._last_coefficient <= 1.0


class TestPinnedSnapshot:
    """ABP's radius hook reads the transforms of the snapshot its search
    pinned, not the live index a merge has since replaced."""

    def _index(self, points):
        config = BrePartitionConfig(n_partitions=2, seed=0, point_filter=True)
        return ApproximateBrePartitionIndex(
            SquaredEuclidean(), probability=0.9, config=config
        ).build(points)

    def _plan(self, index, snap, queries, k):
        ctx = QueryBatchContext(queries=queries, k=k, snapshot=snap)
        PlanStage(index).run(ctx)
        return ctx.candidates

    @pytest.mark.parametrize("merge", ["compacting", "growing"])
    def test_plan_on_a_pinned_snapshot_matches_a_never_merged_twin(self, merge):
        div = SquaredEuclidean()
        points = points_for(div, 400, 8, seed=71)
        queries = points_for(div, 4, 8, seed=72)
        index, twin = self._index(points), self._index(points)
        for mutated in (index, twin):
            if merge == "compacting":
                for pid in range(300):
                    mutated.delete(pid)
            else:
                for vec in points_for(div, 200, 8, seed=73):
                    mutated.insert(vec)
        snap = index.snapshot()
        scope = index.tracker.scope()
        scope.pin(snap)
        try:
            index.merge(mode="rebuild", drain_timeout=0.0)
            got = self._plan(index, snap, queries, 5)
        finally:
            scope.finish()
        want = self._plan(twin, twin.snapshot(), queries, 5)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)
