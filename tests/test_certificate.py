"""The certified-scoring contract as a hypothesis property.

Refine's estimates run through BLAS, so their bits are not pinned; the
proof Rerank relies on is:

* every pair's estimate is within its certified bound ``E`` of
  ``batch_divergence``'s computed value (the oracle's bits), and
* the certificate's survivors hold the oracle's top-k and every row tied
  with its k-th value,

for every decomposable divergence, on offset, wide-range, near-duplicate,
domain-edge and underflowing inputs, through the dense and the sparse
kernel (whole and gathered unions) and the fixed-order reference
(``certify``).  A query the divergence refuses to estimate (NaN
estimates and bounds) must keep every candidate.  The tier-1 budget is
fixed; the ``slow``-marked run draws many more examples.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import BrePartitionConfig, BrePartitionIndex, brute_force_knn
from repro.divergences import ExponentialDistance
from repro.pipeline import survivors

from conftest import all_decomposable_divergences

NAMES = [name for name, _ in all_decomposable_divergences(2)]
FAMILIES = ("offset", "wide", "near_duplicate", "edge", "underflow")

#: the exponential distance's cap for the underflow family: raw exps
#: stay normal (it is below 707.4), while conditioned coordinates reach
#: -1400 and their exps underflow
WIDE_MAX_ABS = 700.0


def divergence_for(name: str, family: str, d: int):
    if (name, family) == ("exponential", "underflow"):
        return ExponentialDistance(max_abs=WIDE_MAX_ABS)
    return dict(all_decomposable_divergences(d))[name]


def draw_rows(name: str, family: str, rng, n: int, d: int) -> np.ndarray:
    """``n`` rows of one input family, valid for the divergence's domain.

    ``underflow`` rows drive some kernel terms into the subnormal range:
    exponential distance over +-700, products of coordinates near
    1e-162, and positive coordinates near 1e-305."""
    if family == "underflow":
        if name == "exponential":
            return rng.uniform(-WIDE_MAX_ABS, WIDE_MAX_ABS, (n, d))
        if name in ("itakura_saito", "generalized_kl", "shannon_entropy"):
            return 10.0 ** rng.uniform(-307.0, -300.0, (n, d))
        return rng.normal(0.0, 1.0, (n, d)) * 10.0 ** rng.uniform(-163, -160)
    if name in ("itakura_saito", "generalized_kl"):
        if family == "offset":
            return np.exp(rng.normal(0.0, 0.5, (n, d))) * 10.0 ** rng.uniform(-6, 6)
        if family == "wide":
            return np.exp(rng.uniform(-10.0, 10.0, (n, d)))
        if family == "near_duplicate":
            center = np.exp(rng.normal(0.0, 1.0, d))
            return center * (1.0 + 1e-9 * rng.normal(size=(n, d)))
        return 10.0 ** rng.uniform(-8.0, 0.0, (n, d))
    if name == "shannon_entropy":
        if family == "offset":
            return rng.uniform(0.85, 0.95, (n, d))
        if family == "wide":
            return rng.uniform(1e-6, 1.0 - 1e-6, (n, d))
        if family == "near_duplicate":
            return rng.uniform(0.2, 0.8, d) + 1e-9 * rng.normal(size=(n, d))
        tiny = 10.0 ** rng.uniform(-9.0, -1.0, (n, d))
        return np.where(rng.random((n, d)) < 0.5, tiny, 1.0 - tiny)
    if name == "exponential":
        # coordinates within max_abs = 100 (the default)
        if family == "offset":
            return np.clip(rng.normal(0.0, 1.0, (n, d)) + rng.uniform(-90, 90), -99, 99)
        if family == "wide":
            return rng.uniform(-100.0, 100.0, (n, d))
        if family == "near_duplicate":
            return rng.uniform(-50.0, 50.0, d) + 1e-9 * rng.normal(size=(n, d))
        edge = 100.0 * (1.0 - rng.uniform(0.0, 1e-3, (n, d)))
        return np.where(rng.random((n, d)) < 0.5, -edge, edge)
    # real-valued: squared Euclidean, diagonal Mahalanobis, p-norm
    if family == "offset":
        return rng.normal(0.0, 1.0, (n, d)) + rng.uniform(-1e4, 1e4, d)
    if family == "wide":
        return rng.uniform(-1.0, 1.0, (n, d)) * 10.0 ** rng.uniform(-3, 4, (n, 1))
    if family == "near_duplicate":
        return rng.normal(0.0, 50.0, d) + 1e-6 * rng.normal(size=(n, d))
    return rng.normal(0.0, 1e-8, (n, d))


def assert_certified(divergence, points, queries, candidates, k, scores_of, bound_of):
    """Every pair within its bound; the survivors hold the top-k and ties.
    A refused query has NaN estimates and bounds, and keeps every row."""
    for q, ids in enumerate(candidates):
        direct = divergence.batch_divergence(points[ids], queries[q])
        estimates, bounds = scores_of(q, ids), bound_of(q, ids)
        kept = survivors(estimates, bounds, k)
        if np.isnan(estimates).all():
            assert np.isnan(bounds).all()
            np.testing.assert_array_equal(kept, np.arange(ids.size))
            continue
        assert np.all(np.isfinite(estimates))
        assert np.all(np.abs(estimates - direct) <= bounds)
        kth = np.sort(direct)[min(k, ids.size) - 1]
        assert np.isin(np.flatnonzero(direct <= kth), kept).all()


def check_certificate(name, family, seed, n, d, n_queries, k):
    divergence = divergence_for(name, family, d)
    rng = np.random.default_rng(seed)
    rows = draw_rows(name, family, rng, n + n_queries, d)
    points, queries = rows[:n], rows[n:]
    index = BrePartitionIndex(
        divergence, BrePartitionConfig(n_partitions=1, seed=0)
    ).build(points)
    every = np.arange(n)
    gathered = [
        np.sort(rng.choice(n, size=rng.integers(k, n + 1), replace=False))
        for _ in range(n_queries)
    ]
    for kernel in ("dense", "sparse"):
        index.config.refine_kernel = kernel
        for candidates in ([every] * n_queries, gathered):
            ctx = index.pipeline.refine_prefetched(candidates, queries, k)
            assert_certified(
                divergence,
                points,
                queries,
                candidates,
                k,
                lambda q, ids: ctx.scores_of(q, ctx.row_of[ids]),
                lambda q, ids: ctx.bound_of(q, ctx.row_of[ids]),
            )
            for query, ids, (got_ids, got_divs) in zip(queries, candidates, ctx.refined):
                want_ids, want_divs = brute_force_knn(divergence, points[ids], query, k)
                np.testing.assert_array_equal(got_ids, ids[want_ids])
                np.testing.assert_array_equal(got_divs, want_divs)
    estimates, bounds = index.pipeline.stage("refine").certify(points, queries)
    assert_certified(
        divergence,
        points,
        queries,
        [every] * n_queries,
        k,
        lambda q, ids: estimates[ids, q],
        lambda q, ids: bounds[ids, q],
    )


examples = dict(
    family=st.sampled_from(FAMILIES),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(12, 60),
    d=st.integers(2, 10),
    n_queries=st.integers(1, 6),
    k=st.integers(1, 10),
)


@pytest.mark.parametrize("name", NAMES)
@given(**examples)
@settings(max_examples=20, deadline=None)
def test_certificate(name, family, seed, n, d, n_queries, k):
    check_certificate(name, family, seed, n, d, n_queries, k)


@pytest.mark.slow
@pytest.mark.parametrize("name", NAMES)
@given(**examples)
@settings(max_examples=400, deadline=None)
def test_certificate_large_budget(name, family, seed, n, d, n_queries, k):
    check_certificate(name, family, seed, n, d, n_queries, k)
