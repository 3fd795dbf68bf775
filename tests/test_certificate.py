"""The certified-scoring contract as a hypothesis property.

Refine's estimates run through BLAS, so their bits are not pinned; the
proof Rerank relies on is:

* every pair's estimate is within its certified bound ``E`` of
  ``batch_divergence``'s computed value (the oracle's bits), and
* the certificate's survivors hold the oracle's top-k and every row tied
  with its k-th value,

for every decomposable divergence, on offset, wide-range, near-duplicate,
domain-edge and underflowing inputs, through Refine's BLAS kernel (whole
and gathered unions) and the fixed-order reference (``certify``).  A
query the divergence refuses to estimate (NaN estimates and bounds) must
keep every candidate.  The tier-1 budget is fixed; the ``slow``-marked
run draws many more examples.

The thresholded certificate (:func:`~repro.pipeline.rerank.thresholded_survivors`),
which a covered batch over a large union runs, is held to the full
one: over random estimate and bound matrices with ties at the ``k``-th
estimate, duplicate values, zero and huge bounds, NaN rows (refused
queries) and infinite entries, its survivors equal :func:`survivors`'
wherever the ``k``-th smallest estimate is unique (a query it declines
runs the full certificate), and the direct-kernel top-k over them is
the full certificate's either way; and through the index, a covered
batch on fresh, tombstoned and extend-merged bases runs it and returns
what the full certificate returns.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import BrePartitionConfig, BrePartitionIndex, brute_force_knn
from repro.bbtree import BBForest
from repro.divergences import ExponentialDistance
from repro.divergences.base import RowTerms
from repro.pipeline import rerank as rerank_module
from repro.pipeline import survivors, top_k_stable
from repro.pipeline.refine import ErrorBound

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


def assert_certified(
    divergence, points, queries, candidates, k, estimates_of, bound_of
):
    """Every pair within its bound; the survivors hold the top-k and ties.
    A refused query has NaN estimates and bounds, and keeps every row."""
    for q, ids in enumerate(candidates):
        direct = divergence.batch_divergence(points[ids], queries[q])
        estimates, bounds = estimates_of(q, ids), bound_of(q, ids)
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
    for candidates in ([every] * n_queries, gathered):
        ctx = index.pipeline.refine_prefetched(candidates, queries, k)
        assert_certified(
            divergence,
            points,
            queries,
            candidates,
            k,
            lambda q, ids: ctx.estimates[q, ctx.row_of[ids]],
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


# ----------------------------------------------------------------------
# the thresholded certificate
# ----------------------------------------------------------------------


def draw_certificate(rng, b, n, ties, bounds_kind, special):
    """``(direct, estimates, bound)``: direct values, estimates within
    their bound of them, and the bound, an :class:`ErrorBound` over
    ``n`` rows and ``b`` queries."""
    if ties:
        direct = rng.integers(0, 6, (b, n)).astype(float)
    else:
        direct = rng.exponential(1.0, (b, n)) * 10.0 ** rng.uniform(-3, 3, (b, 1))
    if bounds_kind == "zero":
        terms = [np.zeros(n), np.zeros(n), np.zeros(b), np.zeros(b)]
    elif bounds_kind == "huge":
        terms = [rng.uniform(0, 1e300, n), np.zeros(n), rng.uniform(0, 1.0, b), np.zeros(b)]
    else:
        scale = 10.0 ** rng.uniform(-12, -1)
        terms = [scale * rng.uniform(0, 1, n), scale * rng.uniform(0, 1, n),
                 rng.uniform(0, 1, b), scale * rng.uniform(0, 1, b)]
    row_norm, row_bound, query_norm, query_bound = terms
    if special == "nan_row":
        query_norm[0] = query_bound[0] = np.nan
    bound = ErrorBound(RowTerms((), row_bound, row_norm), query_bound, query_norm, 1.0, 0.0)
    with np.errstate(invalid="ignore"):
        errors = bound.matrix(np.arange(b), slice(None))
        estimates = direct + errors * rng.uniform(-0.5, 0.5, (b, n))
    if special == "nan_row":
        estimates[0] = np.nan
    elif special == "inf":
        at = rng.integers(n, size=3)
        estimates[rng.integers(b), at] = rng.choice([-np.inf, np.inf], size=3)
    return direct, estimates, bound


def check_thresholded(seed, b, k, extra, ties, bounds_kind, special):
    rng = np.random.default_rng(seed)
    n = rerank_module.PREFILTER_FACTOR * k + extra
    direct, estimates, bound = draw_certificate(rng, b, n, ties, bounds_kind, special)
    with np.errstate(invalid="ignore"):
        got = rerank_module.thresholded_survivors(estimates, bound, k)
    ran = 0
    for q in range(b):
        full = survivors(estimates[q], bound(q, slice(None)), k)
        kept = got[q]
        if kept is None:
            continue
        ran += 1
        assert np.all(np.diff(kept) > 0)
        ordered = np.sort(estimates[q])
        if ordered[k - 1] < ordered[k]:
            np.testing.assert_array_equal(kept, full)
        values = direct[q]
        np.testing.assert_array_equal(
            kept[top_k_stable(values[kept], k)], full[top_k_stable(values[full], k)]
        )
    if bounds_kind != "huge" and special == "none":
        # clean inputs: the thresholded certificate runs
        assert ran == b


certificate_examples = dict(
    seed=st.integers(0, 2**32 - 1),
    b=st.integers(1, 6),
    k=st.integers(1, 8),
    extra=st.integers(0, 300),
    ties=st.booleans(),
    bounds_kind=st.sampled_from(["zero", "small", "huge"]),
    special=st.sampled_from(["none", "nan_row", "inf"]),
)


@given(**certificate_examples)
@settings(max_examples=200, deadline=None)
def test_thresholded_certificate(seed, b, k, extra, ties, bounds_kind, special):
    check_thresholded(seed, b, k, extra, ties, bounds_kind, special)


@pytest.mark.slow
@given(**certificate_examples)
@settings(max_examples=3000, deadline=None)
def test_thresholded_certificate_large_budget(seed, b, k, extra, ties, bounds_kind, special):
    check_thresholded(seed, b, k, extra, ties, bounds_kind, special)


@pytest.mark.parametrize("base", ["fresh", "tombstoned", "extended"])
@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("name", ["squared_euclidean", "itakura_saito", "exponential"])
def test_thresholded_certificate_through_the_index(name, k, base):
    """A covered batch runs the thresholded certificate (its union
    floor lowered to this index's 240 rows) and returns the full
    certificate's results, the oracle's; an uncovered batch keeps the
    full certificate."""
    d = 6
    divergence = dict(all_decomposable_divergences(d))[name]
    rng = np.random.default_rng(5)
    rows = draw_rows(name, "offset", rng, 420, d)
    points, extra, queries = rows[:240], rows[240:260], rows[260:]
    index = BrePartitionIndex(
        divergence, BrePartitionConfig(n_partitions=2, seed=0, page_size_bytes=8 * d * 8)
    ).build(points)
    live = {i: points[i] for i in range(240)}
    if base == "tombstoned":
        for pid in (3, 50, 111):
            index.delete(pid)
            del live[pid]
    elif base == "extended":
        for point in extra:
            live[index.insert(point)] = point
        for pid in (7, 80):
            index.delete(pid)
            del live[pid]
        index.merge("extend")
    ids = np.array(sorted(live))
    matrix = np.stack([live[i] for i in ids])
    ran = []
    original = rerank_module.thresholded_survivors

    def counting(*args, **kwargs):
        kept = original(*args, **kwargs)
        ran.extend(rows is not None for rows in kept)
        return kept

    def search(batch, covered):
        with mock.patch.object(rerank_module, "thresholded_survivors", counting):
            if covered:
                result = index.search_batch(batch, k)
            else:
                plain = BBForest.range_union_batch
                with mock.patch.object(
                    BBForest,
                    "range_union_batch",
                    lambda self, subs, radii, point_filter=False, cover=None: plain(
                        self, subs, radii, point_filter
                    ),
                ):
                    result = index.search_batch(batch, k)
        assert result.stats.covered == covered
        return result

    for batch, covered in ((queries[:32], True), (queries[32:36], False)):
        ran.clear()
        with mock.patch.object(rerank_module, "PREFILTER_ROWS", 0):
            got = search(batch, covered)
        assert ran == ([True] * 32 if covered else [])
        full = search(batch, covered)
        for query, mine, theirs in zip(batch, got.results, full.results):
            np.testing.assert_array_equal(mine.ids, theirs.ids)
            np.testing.assert_array_equal(mine.divergences, theirs.divergences)
            want_at, want_divs = brute_force_knn(divergence, matrix, query, k)
            np.testing.assert_array_equal(mine.ids, ids[want_at])
            np.testing.assert_array_equal(mine.divergences, want_divs)
    index.close()
