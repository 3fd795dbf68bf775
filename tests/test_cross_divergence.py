"""Cross-divergence kernel tests: bitwise parity, boundaries, top-k.

The contract under test (ISSUE 2's tentpole): for every registered
decomposable divergence, ``cross_divergence(points, queries)`` columns
must be *bitwise* independent of batch composition -- column ``b``
equals ``cross_divergence(points, queries[b:b+1])[:, 0]`` exactly, the
same float accumulation order per pair regardless of B or blocking --
so the blocked batch refinement returns exactly what the per-query
path returns, for any block size, with ties broken by ascending id, on
single-disk and sharded stores alike.  Against the well-conditioned
reference ``batch_divergence`` the kernel agrees to rounding.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    BrePartitionConfig,
    BrePartitionIndex,
    GeneralizedKL,
    ItakuraSaito,
    SquaredEuclidean,
)
from repro.core.index import _top_k_stable
from repro.pipeline import refine as refine_module

from conftest import all_decomposable_divergences, charge_groups, points_for

N_POINTS = 240
N_QUERIES = 10
DIM = 12
K = 5


class TestCrossDivergenceParity:
    @pytest.mark.parametrize("name,divergence", all_decomposable_divergences(DIM))
    def test_columns_bitwise_independent_of_batch(self, name, divergence):
        points = points_for(divergence, 90, DIM, seed=1)
        queries = points_for(divergence, N_QUERIES, DIM, seed=2)
        cross = divergence.cross_divergence(points, queries)
        assert cross.shape == (90, N_QUERIES)
        for b in range(N_QUERIES):
            solo = divergence.cross_divergence(points, queries[b : b + 1])
            np.testing.assert_array_equal(cross[:, b], solo[:, 0])
        # any sub-batch produces the same columns bit-for-bit
        sub = divergence.cross_divergence(points, queries[3:7])
        np.testing.assert_array_equal(cross[:, 3:7], sub)

    @pytest.mark.parametrize("name,divergence", all_decomposable_divergences(DIM))
    def test_agrees_with_batch_divergence_reference(self, name, divergence):
        points = points_for(divergence, 90, DIM, seed=1)
        queries = points_for(divergence, N_QUERIES, DIM, seed=2)
        cross = divergence.cross_divergence(points, queries)
        stacked = np.stack(
            [divergence.batch_divergence(points, q) for q in queries], axis=1
        )
        np.testing.assert_allclose(cross, stacked, rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize("name,divergence", all_decomposable_divergences(DIM))
    def test_matches_scalar_divergence(self, name, divergence):
        points = points_for(divergence, 25, DIM, seed=3)
        queries = points_for(divergence, 4, DIM, seed=4)
        cross = divergence.cross_divergence(points, queries)
        for i in range(25):
            for b in range(4):
                assert cross[i, b] == pytest.approx(
                    divergence.divergence(points[i], queries[b]),
                    rel=1e-9,
                    abs=1e-9,
                )

    def test_single_point_and_single_query_shapes(self):
        divergence = SquaredEuclidean()
        points = points_for(divergence, 7, DIM, seed=5)
        queries = points_for(divergence, 3, DIM, seed=6)
        assert divergence.cross_divergence(points[:1], queries).shape == (1, 3)
        assert divergence.cross_divergence(points, queries[:1]).shape == (7, 1)
        one = divergence.cross_divergence(points, queries[:1])
        np.testing.assert_allclose(
            one[:, 0],
            divergence.batch_divergence(points, queries[0]),
            rtol=1e-9,
            atol=1e-9,
        )

    def test_empty_query_batch(self):
        divergence = SquaredEuclidean()
        points = points_for(divergence, 7, DIM, seed=5)
        cross = divergence.cross_divergence(points, np.empty((0, DIM)))
        assert cross.shape == (7, 0)

    def test_values_non_negative(self, decomposable):
        points = points_for(decomposable, 40, 8, seed=7)
        cross = decomposable.cross_divergence(points, points[:6])
        assert np.all(cross >= 0.0)
        # self-divergence must collapse to (numerically) zero
        assert np.all(np.diag(cross[:6]) <= 1e-8)


class TestGroupedKernelParity:
    """The sparse (grouped) kernel must reproduce dense entries bitwise:
    ``cross_divergence_grouped(p, q, pi, qi)[j] ==
    cross_divergence(p, q)[pi[j], qi[j]]`` for every divergence, any
    pair order, any pair blocking -- the contract that lets the index
    route refinement through either kernel without changing one bit."""

    @pytest.mark.parametrize("name,divergence", all_decomposable_divergences(DIM))
    def test_grouped_matches_dense_bitwise(self, name, divergence):
        points = points_for(divergence, 90, DIM, seed=1)
        queries = points_for(divergence, N_QUERIES, DIM, seed=2)
        dense = divergence.cross_divergence(points, queries)
        rng = np.random.default_rng(3)
        pi = rng.integers(0, 90, size=400)
        qi = rng.integers(0, N_QUERIES, size=400)
        grouped = divergence.cross_divergence_grouped(points, queries, pi, qi)
        np.testing.assert_array_equal(grouped, dense[pi, qi])

    @pytest.mark.parametrize("pair_block", [1, 7, 64, None])
    def test_pair_block_invariance(self, pair_block):
        divergence = ItakuraSaito()
        points = points_for(divergence, 70, DIM, seed=4)
        queries = points_for(divergence, 6, DIM, seed=5)
        rng = np.random.default_rng(6)
        pi = rng.integers(0, 70, size=150)
        qi = rng.integers(0, 6, size=150)
        blocked = divergence.cross_divergence_grouped(
            points, queries, pi, qi, pair_block=pair_block
        )
        reference = divergence.cross_divergence(points, queries)[pi, qi]
        np.testing.assert_array_equal(blocked, reference)

    def test_empty_pairs(self):
        divergence = SquaredEuclidean()
        points = points_for(divergence, 10, DIM, seed=7)
        out = divergence.cross_divergence_grouped(
            points, points[:3], np.empty(0, dtype=int), np.empty(0, dtype=int)
        )
        assert out.shape == (0,)

    def test_rejects_mismatched_indices(self):
        divergence = SquaredEuclidean()
        points = points_for(divergence, 10, DIM, seed=7)
        with pytest.raises(ValueError, match="equal length"):
            divergence.cross_divergence_grouped(
                points, points[:3], np.arange(4), np.arange(3)
            )

    def test_non_decomposable_fallback_gathers_dense(self):
        from repro import MahalanobisDivergence

        rng = np.random.default_rng(8)
        divergence = MahalanobisDivergence(np.eye(5) + 0.1)
        points = rng.normal(size=(20, 5))
        queries = rng.normal(size=(4, 5))
        pi = rng.integers(0, 20, size=30)
        qi = rng.integers(0, 4, size=30)
        np.testing.assert_array_equal(
            divergence.cross_divergence_grouped(points, queries, pi, qi),
            divergence.cross_divergence(points, queries)[pi, qi],
        )


class TestBoundaryInputs:
    """Near-zero coordinates stress the log/ratio terms of KL and ISD."""

    @pytest.mark.parametrize("divergence", [ItakuraSaito(), GeneralizedKL()])
    def test_near_zero_inputs_stay_finite_and_column_stable(self, divergence):
        rng = np.random.default_rng(8)
        points = rng.uniform(1e-12, 1e-9, size=(30, DIM))
        queries = rng.uniform(1e-12, 1e-9, size=(5, DIM))
        cross = divergence.cross_divergence(points, queries)
        for b in range(5):
            np.testing.assert_array_equal(
                cross[:, b],
                divergence.cross_divergence(points, queries[b : b + 1])[:, 0],
            )
        stacked = np.stack(
            [divergence.batch_divergence(points, q) for q in queries], axis=1
        )
        np.testing.assert_allclose(cross, stacked, rtol=1e-7, atol=1e-12)
        assert np.all(np.isfinite(cross))
        assert np.all(cross >= 0.0)

    @pytest.mark.parametrize("divergence", [ItakuraSaito(), GeneralizedKL()])
    def test_mixed_magnitudes_column_stable(self, divergence):
        rng = np.random.default_rng(9)
        points = np.where(
            rng.uniform(size=(30, DIM)) < 0.3,
            rng.uniform(1e-12, 1e-6, size=(30, DIM)),
            rng.uniform(0.5, 50.0, size=(30, DIM)),
        )
        queries = np.where(
            rng.uniform(size=(5, DIM)) < 0.3,
            rng.uniform(1e-12, 1e-6, size=(5, DIM)),
            rng.uniform(0.5, 50.0, size=(5, DIM)),
        )
        cross = divergence.cross_divergence(points, queries)
        for b in range(5):
            np.testing.assert_array_equal(
                cross[:, b],
                divergence.cross_divergence(points, queries[b : b + 1])[:, 0],
            )
        stacked = np.stack(
            [divergence.batch_divergence(points, q) for q in queries], axis=1
        )
        np.testing.assert_allclose(cross, stacked, rtol=1e-7)
        assert np.all(np.isfinite(cross))


class TestTopKStable:
    def test_matches_stable_argsort(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            values = rng.integers(0, 6, size=20).astype(float)  # many ties
            for k in (1, 3, 20):
                np.testing.assert_array_equal(
                    _top_k_stable(values, k),
                    np.argsort(values, kind="stable")[:k],
                )

    def test_k_larger_than_size(self):
        values = np.array([3.0, 1.0, 2.0])
        np.testing.assert_array_equal(_top_k_stable(values, 10), [1, 2, 0])

    def test_empty(self):
        assert _top_k_stable(np.empty(0), 5).size == 0

    def test_boundary_ties_resolve_by_index(self):
        values = np.array([1.0, 2.0, 2.0, 2.0, 0.5])
        np.testing.assert_array_equal(_top_k_stable(values, 3), [4, 0, 1])


class TestBlockedRefinementParity:
    @pytest.mark.parametrize("name,divergence", all_decomposable_divergences(DIM))
    def test_blocked_matches_looped(self, name, divergence):
        points = points_for(divergence, N_POINTS, DIM, seed=11)
        queries = points_for(divergence, N_QUERIES, DIM, seed=12)
        index = BrePartitionIndex(
            divergence, BrePartitionConfig(n_partitions=3, seed=0)
        ).build(points)
        batch = index.search_batch(queries, K)  # populates candidate path
        # replay refinement through both kernels on the live candidates
        candidates = [result.stats.n_candidates for result in batch]
        assert all(count >= K for count in candidates)
        # direct comparison on controlled candidate sets
        rng = np.random.default_rng(13)
        cand_sets = [
            np.unique(rng.integers(0, N_POINTS, size=rng.integers(K, 60)))
            for _ in range(N_QUERIES)
        ]
        charge_groups(index.datastore, cand_sets)
        blocked = index.pipeline.refine_prefetched(cand_sets, queries, K).refined
        looped = index.pipeline.refine_looped(cand_sets, queries, K)
        for (b_ids, b_divs), (l_ids, l_divs) in zip(blocked, looped):
            np.testing.assert_array_equal(b_ids, l_ids)
            np.testing.assert_array_equal(b_divs, l_divs)

    @pytest.mark.parametrize("block_size", [1, 7, 64, None])
    def test_block_size_invariance(self, block_size, monkeypatch):
        used = []
        if block_size is not None:  # None keeps the element-budget rule

            def fixed_block(n_queries, dimensionality):
                used.append(n_queries)
                return block_size

            monkeypatch.setattr(refine_module, "refinement_block", fixed_block)
        divergence = ItakuraSaito()
        points = points_for(divergence, N_POINTS, DIM, seed=14)
        queries = points_for(divergence, N_QUERIES, DIM, seed=15)
        index = BrePartitionIndex(
            divergence, BrePartitionConfig(n_partitions=3, seed=0)
        ).build(points)
        batch = index.search_batch(queries, K)
        for query, batched in zip(queries, batch):
            single = index.search(query, K)
            np.testing.assert_array_equal(single.ids, batched.ids)
            np.testing.assert_array_equal(single.divergences, batched.divergences)
        # the patched rule sized both the B=1 and the batched blocks
        assert (block_size is None) or {1, N_QUERIES} <= set(used)

    def test_duplicate_points_tie_break_by_id(self):
        divergence = SquaredEuclidean()
        rng = np.random.default_rng(16)
        base = rng.normal(size=(40, DIM))
        points = np.concatenate([base, base[:20], base[:10]])  # exact ties
        queries = base[:6] + rng.normal(0.0, 1e-3, size=(6, DIM))
        index = BrePartitionIndex(
            divergence, BrePartitionConfig(n_partitions=2, seed=0)
        ).build(points)
        batch = index.search_batch(queries, 8)
        for query, batched in zip(queries, batch):
            single = index.search(query, 8)
            np.testing.assert_array_equal(single.ids, batched.ids)
            np.testing.assert_array_equal(single.divergences, batched.divergences)
            # among equal divergences, ids must come out ascending
            divs = single.divergences
            for value in np.unique(divs):
                tied = single.ids[divs == value]
                np.testing.assert_array_equal(tied, np.sort(tied))


class TestLargeMagnitudeConditioning:
    """The expansion-form kernels cancel catastrophically on raw
    large-magnitude data; the index must centre translation-invariant
    refinement so exact ranking survives (the FAISS x^2-2xy+y^2 fix)."""

    def test_sed_index_ranks_large_magnitude_near_duplicates(self):
        rng = np.random.default_rng(23)
        base = rng.normal(1e6, 10.0, size=(60, DIM))
        points = base.copy()
        # two near-duplicates of point 0 at distinct tiny distances
        points[1] = points[0]
        points[1, 0] += 1e-3
        points[2] = points[0]
        points[2, 0] += 2e-3
        query = points[0].copy()
        index = BrePartitionIndex(
            SquaredEuclidean(), BrePartitionConfig(n_partitions=2, seed=0)
        ).build(points)
        result = index.search(query, 3)
        np.testing.assert_array_equal(result.ids, [0, 1, 2])
        assert result.divergences[0] == pytest.approx(0.0, abs=1e-12)
        assert result.divergences[1] == pytest.approx(1e-6, rel=1e-6)
        assert result.divergences[2] == pytest.approx(4e-6, rel=1e-6)
        # the centred batch path must agree bitwise
        batch = index.search_batch(query[None, :], 3)
        np.testing.assert_array_equal(batch[0].ids, result.ids)
        np.testing.assert_array_equal(batch[0].divergences, result.divergences)

    def test_raw_kernel_documents_the_cancellation(self):
        # the uncentred expansion really does collapse these values --
        # this pins down why the index centres its refinement inputs
        divergence = SquaredEuclidean()
        y = np.full(DIM, 1e6)
        x = y.copy()
        x[0] += 1e-3
        raw = divergence.cross_divergence(x[None, :], y[None, :])[0, 0]
        centred = divergence.cross_divergence(
            (x - y)[None, :], np.zeros((1, DIM))
        )[0, 0]
        assert raw != pytest.approx(1e-6, rel=0.5)  # cancelled
        assert centred == pytest.approx(1e-6, rel=1e-9)
        # the reference kernel keeps the direct well-conditioned form
        direct = divergence.batch_divergence(x[None, :], y)[0]
        assert direct == pytest.approx(1e-6, rel=1e-9)

    def test_kl_index_ranks_large_magnitude_near_duplicates(self):
        # GeneralizedKL is 1-homogeneous; its conditioner evaluates the
        # expansion near unit scale, recovering ranking the raw kernel
        # loses at coordinate magnitude ~1e6.
        rng = np.random.default_rng(25)
        points = rng.uniform(9e5, 1.1e6, size=(60, DIM))
        points[1] = points[0]
        points[1, 0] += 0.5
        points[2] = points[0]
        points[2, 0] += 1.0
        query = points[0].copy()
        index = BrePartitionIndex(
            GeneralizedKL(), BrePartitionConfig(n_partitions=2, seed=0)
        ).build(points)
        result = index.search(query, 3)
        np.testing.assert_array_equal(result.ids, [0, 1, 2])
        # both kernels carry rounding noise at this magnitude; percent-level
        # agreement is what the conditioner buys (the raw kernel is off by
        # orders of magnitude or collapses to zero here)
        oracle = GeneralizedKL().batch_divergence(points[[1, 2]], query)
        np.testing.assert_allclose(result.divergences[1:], oracle, rtol=2e-2)
        batch = index.search_batch(query[None, :], 3)
        np.testing.assert_array_equal(batch[0].ids, result.ids)
        np.testing.assert_array_equal(batch[0].divergences, result.divergences)

    def test_isd_conditioner_is_exact_scale_invariance(self):
        # ISD is 0-homogeneous per dimension: the conditioner's scaling
        # changes the kernel's arithmetic but not its mathematical value.
        rng = np.random.default_rng(26)
        divergence = ItakuraSaito()
        scales = 10.0 ** rng.uniform(-6, 6, size=DIM)
        points = scales * rng.uniform(0.5, 2.0, size=(40, DIM))
        queries = scales * rng.uniform(0.5, 2.0, size=(4, DIM))
        conditioner = divergence.refinement_conditioner(points)
        conditioned = divergence.cross_divergence(
            conditioner.transform(points), conditioner.transform(queries)
        )
        reference = np.stack(
            [divergence.batch_divergence(points, q) for q in queries], axis=1
        )
        np.testing.assert_allclose(conditioned, reference, rtol=1e-9)

    def test_sed_two_cluster_spread_reranked_exactly(self):
        # Mean-centring cannot condition data whose *spread* is huge
        # (two clusters at +-1e8): the expansion preselection is noisy
        # there, but the direct-kernel rerank must still return the true
        # neighbors with their exact divergences.
        rng = np.random.default_rng(4)
        d = 8
        near = rng.normal(1e8, 1.0, size=(30, d))
        far = rng.normal(-1e8, 1.0, size=(30, d))
        query = near[0].copy()
        near[1] = near[0]
        near[1, 0] += 3e-4  # true nearest, D = 9e-8
        near[2] = near[0]
        near[2, 0] += 3e-3  # runner-up, D = 9e-6
        points = np.concatenate([near, far])
        index = BrePartitionIndex(
            SquaredEuclidean(), BrePartitionConfig(n_partitions=2, seed=0)
        ).build(points)
        result = index.search(query, 3)
        np.testing.assert_array_equal(result.ids, [0, 1, 2])
        # final divergences come from the direct kernel -- the same
        # formula the brute-force oracle uses -- bit for bit
        oracle = SquaredEuclidean().batch_divergence(points[[0, 1, 2]], query)
        np.testing.assert_array_equal(result.divergences, oracle)
        assert result.divergences[1] == pytest.approx(9e-8, rel=1e-3)
        assert result.divergences[2] == pytest.approx(9e-6, rel=1e-3)
        batch = index.search_batch(query[None, :], 3)
        np.testing.assert_array_equal(batch[0].ids, result.ids)
        np.testing.assert_array_equal(batch[0].divergences, result.divergences)

    def test_exponential_conditioner_max_subtraction_on_spread_data(self):
        # ED has an exact additive invariance that *rescales*:
        # D(x - s, q - s) = e^{-s} D(x, q).  Subtracting the dataset max
        # (the softmax clamp) evaluates the expansion kernel with its
        # dominant e^{t-s} factors <= 1 and small linear coefficients,
        # recovering accuracy the raw kernel loses on offset data.
        from repro import ExponentialDistance

        divergence = ExponentialDistance()
        rng = np.random.default_rng(42)
        d = 16
        points = rng.uniform(97.0, 100.0, size=(50, d))
        queries = points[:6].copy()
        deltas = [3e-6, 1e-5, 3e-5]
        for i, delta in enumerate(deltas):
            queries[i, 0] += delta
        queries = queries[: len(deltas)]
        reference = np.stack(
            [divergence.batch_divergence(points, q) for q in queries], axis=1
        )
        conditioner = divergence.refinement_conditioner(points)
        assert conditioner.shift == pytest.approx(points.max())
        assert conditioner.factor == pytest.approx(np.exp(points.max()))
        conditioned = (
            divergence.cross_divergence(
                conditioner.transform(points), conditioner.transform(queries)
            )
            * conditioner.factor
        )
        raw = divergence.cross_divergence(points, queries)
        for i in range(len(deltas)):
            true = reference[i, i]  # the near-duplicate pair
            raw_err = abs(raw[i, i] - true) / true
            cond_err = abs(conditioned[i, i] - true) / true
            # observed: conditioning buys ~2 orders of magnitude; assert
            # a 5x improvement and absolute accuracy with wide margins
            assert cond_err < 0.2 * raw_err
            assert cond_err < 5e-3

    def test_exponential_conditioner_exact_on_moderate_data(self):
        # on in-regime data the conditioner is a pure no-op up to
        # rounding: shifted evaluation times e^s equals the reference
        from repro import ExponentialDistance

        divergence = ExponentialDistance()
        points = points_for(divergence, 40, DIM, seed=27)
        queries = points_for(divergence, 5, DIM, seed=28)
        conditioner = divergence.refinement_conditioner(points)
        conditioned = (
            divergence.cross_divergence(
                conditioner.transform(points), conditioner.transform(queries)
            )
            * conditioner.factor
        )
        reference = np.stack(
            [divergence.batch_divergence(points, q) for q in queries], axis=1
        )
        np.testing.assert_allclose(conditioned, reference, rtol=1e-9, atol=1e-12)

    def test_exponential_index_ranks_offset_near_duplicates(self):
        # end to end: the index must rank near-duplicates on offset data
        # exactly and report oracle-identical divergences (conditioned
        # preselection + direct-kernel rerank)
        from repro import ExponentialDistance, brute_force_knn

        rng = np.random.default_rng(42)
        d = 16
        points = rng.uniform(97.0, 100.0, size=(60, d))
        points[1] = points[0]
        points[1, 0] += 1e-5
        points[2] = points[0]
        points[2, 0] += 2e-5
        query = points[0].copy()
        index = BrePartitionIndex(
            ExponentialDistance(), BrePartitionConfig(n_partitions=2, seed=0)
        ).build(points)
        result = index.search(query, 3)
        oracle_ids, oracle_divs = brute_force_knn(
            ExponentialDistance(), points, query, 3
        )
        np.testing.assert_array_equal(result.ids, oracle_ids)
        np.testing.assert_array_equal(result.divergences, oracle_divs)
        batch = index.search_batch(query[None, :], 3)
        np.testing.assert_array_equal(batch[0].ids, result.ids)
        np.testing.assert_array_equal(batch[0].divergences, result.divergences)

    def test_brute_force_oracle_unaffected_by_expansion(self):
        # the oracle and baselines score through batch_divergence, which
        # must keep ranking large-magnitude near-duplicates correctly
        from repro import brute_force_knn

        rng = np.random.default_rng(24)
        points = rng.normal(1e6, 10.0, size=(50, DIM))
        query = points[0].copy()
        points[1] = points[0]
        points[1, 0] += 1e-3
        points[2] = points[0]
        points[2, 0] += 2e-3
        ids, dists = brute_force_knn(SquaredEuclidean(), points, query, 3)
        np.testing.assert_array_equal(ids, [0, 1, 2])
        assert dists[1] == pytest.approx(1e-6, rel=1e-9)
        assert dists[2] == pytest.approx(4e-6, rel=1e-9)


class TestShardedTopKParity:
    @pytest.mark.parametrize("name,divergence", all_decomposable_divergences(DIM))
    def test_single_batch_sharded_identical(self, name, divergence):
        points = points_for(divergence, N_POINTS, DIM, seed=17)
        queries = points_for(divergence, N_QUERIES, DIM, seed=18)
        plain = BrePartitionIndex(
            divergence, BrePartitionConfig(n_partitions=3, seed=0)
        ).build(points)
        sharded = BrePartitionIndex(
            divergence, BrePartitionConfig(n_partitions=3, seed=0, n_shards=4)
        ).build(points)
        batch = plain.search_batch(queries, K)
        sharded_batch = sharded.search_batch(queries, K)
        for q, query in enumerate(queries):
            single = plain.search(query, K)
            np.testing.assert_array_equal(single.ids, batch[q].ids)
            np.testing.assert_array_equal(single.ids, sharded_batch[q].ids)
            np.testing.assert_array_equal(
                single.divergences, batch[q].divergences
            )
            np.testing.assert_array_equal(
                single.divergences, sharded_batch[q].divergences
            )

    def test_reshard_preserves_results(self):
        divergence = SquaredEuclidean()
        points = points_for(divergence, N_POINTS, DIM, seed=19)
        queries = points_for(divergence, N_QUERIES, DIM, seed=20)
        index = BrePartitionIndex(
            divergence, BrePartitionConfig(n_partitions=3, seed=0)
        ).build(points)
        before = index.search_batch(queries, K)
        index.reshard(5)
        after = index.search_batch(queries, K)
        for b, a in zip(before, after):
            np.testing.assert_array_equal(b.ids, a.ids)
            np.testing.assert_array_equal(b.divergences, a.divergences)
