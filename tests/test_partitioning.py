"""Tests for partitioning strategies and the Theorem-4 optimiser."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.synthetic import correlated_matrix
from repro.divergences import ExponentialDistance, ItakuraSaito, SquaredEuclidean
from repro.exceptions import InvalidParameterError
from repro.geometry import bounds as bd
from repro.partitioning import (
    ContiguousPartitioner,
    CostModelParams,
    PCCPPartitioner,
    Partitioning,
    absolute_correlation_matrix,
    calibrate_cost_model,
    online_cost,
    optimal_partitions,
)


class TestPartitioningScheme:
    def test_valid_partitioning(self):
        p = Partitioning.from_lists([[0, 2], [1, 3]], 4)
        assert p.n_partitions == 2
        assert p.subspace_sizes() == [2, 2]

    def test_rejects_overlap(self):
        with pytest.raises(InvalidParameterError):
            Partitioning.from_lists([[0, 1], [1, 2]], 3)

    def test_rejects_gap(self):
        with pytest.raises(InvalidParameterError):
            Partitioning.from_lists([[0], [2]], 3)

    def test_rejects_empty_subspace(self):
        with pytest.raises(InvalidParameterError):
            Partitioning.from_lists([[0, 1], []], 2)

    def test_rejects_no_subspaces(self):
        with pytest.raises(InvalidParameterError):
            Partitioning.from_lists([], 0)

    def test_split_vector(self):
        p = Partitioning.from_lists([[0, 2], [1]], 3)
        parts = p.split(np.array([10.0, 20.0, 30.0]))
        np.testing.assert_array_equal(parts[0], [10.0, 30.0])
        np.testing.assert_array_equal(parts[1], [20.0])

    def test_split_matrix(self):
        p = Partitioning.from_lists([[0], [1, 2]], 3)
        m = np.arange(6.0).reshape(2, 3)
        parts = p.split_matrix(m)
        assert parts[0].shape == (2, 1)
        assert parts[1].shape == (2, 2)

    def test_split_dimension_mismatch(self):
        p = Partitioning.from_lists([[0, 1]], 2)
        with pytest.raises(InvalidParameterError):
            p.split(np.zeros(3))
        with pytest.raises(InvalidParameterError):
            p.split_matrix(np.zeros((2, 3)))


class TestContiguous:
    def test_even_split(self):
        points = np.zeros((10, 12))
        p = ContiguousPartitioner().partition(points, 3)
        assert p.subspace_sizes() == [4, 4, 4]
        np.testing.assert_array_equal(p.subspaces[0], [0, 1, 2, 3])

    def test_uneven_split(self):
        points = np.zeros((10, 10))
        p = ContiguousPartitioner().partition(points, 3)
        assert sum(p.subspace_sizes()) == 10
        assert max(p.subspace_sizes()) == 4

    def test_m_larger_than_d_clamped(self):
        points = np.zeros((10, 3))
        p = ContiguousPartitioner().partition(points, 8)
        assert p.n_partitions == 3

    def test_m_one(self):
        points = np.zeros((10, 5))
        p = ContiguousPartitioner().partition(points, 1)
        assert p.n_partitions == 1
        assert p.subspace_sizes() == [5]

    def test_invalid_m(self):
        with pytest.raises(InvalidParameterError):
            ContiguousPartitioner().partition(np.zeros((5, 4)), 0)


class TestCorrelationMatrix:
    def test_shape_and_diagonal(self):
        points = np.random.default_rng(0).normal(size=(100, 6))
        corr = absolute_correlation_matrix(points)
        assert corr.shape == (6, 6)
        np.testing.assert_allclose(np.diag(corr), 1.0)

    def test_symmetric_in_unit_interval(self):
        points = np.random.default_rng(1).normal(size=(200, 5))
        corr = absolute_correlation_matrix(points)
        np.testing.assert_allclose(corr, corr.T, atol=1e-12)
        assert np.all(corr >= 0.0) and np.all(corr <= 1.0)

    def test_perfectly_correlated_pair(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=200)
        points = np.stack([a, -2.0 * a, rng.normal(size=200)], axis=1)
        corr = absolute_correlation_matrix(points)
        assert corr[0, 1] == pytest.approx(1.0, abs=1e-9)
        assert corr[0, 2] < 0.3

    def test_constant_dimension_zeroed(self):
        points = np.random.default_rng(3).normal(size=(50, 3))
        points[:, 1] = 7.0
        corr = absolute_correlation_matrix(points)
        assert corr[0, 1] == 0.0 and corr[1, 2] == 0.0

    def test_sampling_cap(self):
        points = np.random.default_rng(4).normal(size=(500, 4))
        corr = absolute_correlation_matrix(
            points, sample_size=100, rng=np.random.default_rng(0)
        )
        assert corr.shape == (4, 4)


class TestPCCP:
    def test_valid_partitioning(self):
        points = correlated_matrix(300, 24, group_size=4, seed=0)
        p = PCCPPartitioner(rng=np.random.default_rng(0)).partition(points, 4)
        assert sum(p.subspace_sizes()) == 24
        all_dims = sorted(int(x) for dims in p.subspaces for x in dims)
        assert all_dims == list(range(24))

    def test_partition_sizes_near_equal(self):
        points = correlated_matrix(300, 24, group_size=4, seed=1)
        p = PCCPPartitioner(rng=np.random.default_rng(0)).partition(points, 4)
        sizes = p.subspace_sizes()
        assert max(sizes) - min(sizes) <= 1

    def test_correlated_dims_spread_apart(self):
        """Dimensions of one latent group should land in distinct
        partitions (that is PCCP's whole point)."""
        points = correlated_matrix(500, 16, group_size=4, seed=2, correlation=0.95)
        p = PCCPPartitioner(rng=np.random.default_rng(3)).partition(points, 4)
        # Group g holds dims [4g, 4g+1, 4g+2, 4g+3]; count how many pairs
        # of same-group dims share a partition (want: none or few).
        together = 0
        for dims in p.subspaces:
            groups = [int(d) // 4 for d in dims]
            together += len(groups) - len(set(groups))
        assert together <= 1

    def test_deterministic_with_seed(self):
        points = correlated_matrix(200, 12, group_size=3, seed=4)
        p1 = PCCPPartitioner(rng=np.random.default_rng(9)).partition(points, 3)
        p2 = PCCPPartitioner(rng=np.random.default_rng(9)).partition(points, 3)
        for a, b in zip(p1.subspaces, p2.subspaces):
            np.testing.assert_array_equal(a, b)

    def test_m_one(self):
        points = np.random.default_rng(5).normal(size=(50, 6))
        p = PCCPPartitioner(rng=np.random.default_rng(0)).partition(points, 1)
        assert p.n_partitions == 1


class TestCostModel:
    def test_params_expected_bound_decays(self):
        params = CostModelParams(A=100.0, alpha=0.9, beta=0.001)
        assert params.expected_bound(10) < params.expected_bound(2)
        assert params.expected_candidates(5, 1000) <= 1000

    def test_online_cost_tradeoff_shape(self):
        """T(M) must increase in M once pruning saturates."""
        params = CostModelParams(A=100.0, alpha=0.8, beta=0.01)
        costs = [online_cost(m, 10_000, 128, params) for m in range(1, 129)]
        m_star = int(np.argmin(costs)) + 1
        assert 1 <= m_star < 128
        assert costs[-1] > costs[m_star - 1]

    def test_optimal_partitions_matches_grid_search(self):
        params = CostModelParams(A=50.0, alpha=0.85, beta=0.02)
        n, d = 20_000, 96
        best = optimal_partitions(n, d, params)
        grid = min(
            range(1, d + 1), key=lambda m: online_cost(m, n, d, params)
        )
        assert online_cost(best, n, d, params) == pytest.approx(
            online_cost(grid, n, d, params), rel=1e-9
        )

    def test_optimal_clamped_to_valid_range(self):
        params = CostModelParams(A=1e-6, alpha=0.999, beta=1e-9)
        assert optimal_partitions(100, 8, params) == 1

    def test_invalid_inputs(self):
        params = CostModelParams(A=1.0, alpha=0.9, beta=0.1)
        with pytest.raises(InvalidParameterError):
            optimal_partitions(0, 8, params)

    def test_k_shifts_cost(self):
        params = CostModelParams(A=10.0, alpha=0.9, beta=0.01)
        assert online_cost(4, 1000, 32, params, k=100) > online_cost(
            4, 1000, 32, params, k=1
        )


class TestCalibration:
    def test_calibration_outputs_sane(self):
        div = ItakuraSaito()
        points = np.exp(
            np.random.default_rng(6).normal(0.0, 0.5, size=(300, 16))
        )
        params = calibrate_cost_model(
            div, points, n_samples=20, rng=np.random.default_rng(0)
        )
        assert params.A > 0.0
        assert 0.0 < params.alpha < 1.0
        assert params.beta >= 0.0

    def test_calibration_needs_two_m_values(self):
        div = SquaredEuclidean()
        points = np.random.default_rng(7).normal(size=(100, 8))
        with pytest.raises(InvalidParameterError):
            calibrate_cost_model(
                div, points, m_values=(2,), rng=np.random.default_rng(0)
            )

    def test_end_to_end_optimal_m_in_range(self):
        div = SquaredEuclidean()
        points = np.random.default_rng(8).normal(size=(400, 24))
        params = calibrate_cost_model(div, points, rng=np.random.default_rng(0))
        m = optimal_partitions(points.shape[0], points.shape[1], params)
        assert 1 <= m <= 24


def _per_query_calibration(divergence, points, n_samples, strategy, rng):
    """``calibrate_cost_model`` as it was before its query-independent
    summaries (each subspace's restricted divergence and the points'
    ``(alpha, gamma)``) were computed once per partitioning: the same
    arithmetic, recomputed for every sample query."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n, d = points.shape
    take = min(n_samples, n)
    samples = points[rng.choice(n, size=take, replace=False)]
    hi = max(2, min(d, 16))
    m_values = tuple(m for m in sorted({1, max(2, hi // 2), hi}) if 1 <= m <= d)

    def search_bound(partitioning, sub_points, query):
        totals = np.zeros(n)
        for dims_points, sub_query, dims in zip(
            sub_points, partitioning.split(query), partitioning.subspaces
        ):
            sub_div = divergence.restrict(dims)
            alpha, gamma = bd.transform_points(sub_div, dims_points)
            totals += bd.batch_upper_bounds(alpha, gamma, bd.transform_query(sub_div, sub_query))
        positive = totals[totals > 0]
        return float(np.min(positive)) if positive.size else float(np.min(totals))

    def mean_bound(m):
        partitioning = strategy.partition(points, m)
        sub_points = partitioning.split_matrix(points)
        return float(np.mean([
            search_bound(partitioning, sub_points, query) for query in samples[: min(10, take)]
        ]))

    def pruning_fraction(m):
        partitioning = strategy.partition(points, m)
        sub_points = partitioning.split_matrix(points)
        fractions = []
        for query in samples[: min(20, take)]:
            ub = search_bound(partitioning, sub_points, query)
            fractions.append(float(np.mean(divergence.batch_divergence(points, query) <= ub)))
        return float(np.mean(fractions)) if fractions else 1.0

    mean_bounds = np.maximum(np.array([mean_bound(m) for m in m_values]), 1e-12)
    slope, intercept = np.polyfit(np.array(m_values, dtype=float), np.log(mean_bounds), 1)
    big_a = float(np.exp(intercept))
    m_lo, m_hi = m_values[0], m_values[-1]
    frac_lo = max(pruning_fraction(m_lo), 1e-6)
    frac_hi = max(pruning_fraction(m_hi), 1e-6)
    if m_hi > m_lo and frac_hi < frac_lo:
        alpha = float((frac_hi / frac_lo) ** (1.0 / (m_hi - m_lo)))
    else:
        alpha = 0.999
    alpha = min(max(alpha, 1e-6), 0.999)
    beta = frac_lo / max(big_a * alpha**m_lo, 1e-12)
    return CostModelParams(A=big_a, alpha=alpha, beta=beta)


class TestCalibrationPinned:
    """Calibration computes each partitioning's query-independent
    summaries once; its fitted constants stay those of the per-query
    loop, bit for bit."""

    @pytest.mark.parametrize("strategy", ["contiguous", "pccp"])
    @pytest.mark.parametrize(
        "divergence,positive",
        [(ItakuraSaito(), True), (ExponentialDistance(), False), (SquaredEuclidean(), False)],
    )
    def test_params_equal_the_per_query_loop(self, divergence, positive, strategy):
        for seed in (1, 2):
            values = np.random.default_rng(seed).normal(0.0, 0.6, size=(150, 12))
            points = np.exp(values) if positive else values

            def make():
                if strategy == "pccp":
                    return PCCPPartitioner(rng=np.random.default_rng(seed))
                return ContiguousPartitioner()

            got = calibrate_cost_model(
                divergence, points, n_samples=25, strategy=make(),
                rng=np.random.default_rng(seed),
            )
            want = _per_query_calibration(
                divergence, points, 25, make(), np.random.default_rng(seed)
            )
            assert (got.A, got.alpha, got.beta) == (want.A, want.alpha, want.beta)
