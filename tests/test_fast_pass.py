"""The certified fast pass as a hypothesis property.

From ``BLAS_MIN_QUERIES`` queries on, ``BatchRangeProber.center_divergences``
estimates ``D(q, c)`` and ``D(c, q)`` through BLAS, each under a proved
bound on its gap to the fixed-order value, and ``fast_yes`` recomputes
with the fixed-order formula only the pairs within the bound of a
radius.  For all seven decomposable divergences, on balls covering random
point sets and batches at and above ``BLAS_MIN_QUERIES`` queries, with
ball and range radii set to pairs' own fixed-order center divergences
and a few ulps either side (inside the bound's margin), zero, and wide,
and on offset (ED coordinates near +-700, whose bounds overflow) and
underflowing (coordinates near 1e-162) inputs:

* every fast-pass decision equals the fixed-order path's (the dense
  einsum below ``BLAS_MIN_QUERIES``), bit for bit;
* every pair's values as ``pair_values`` hands them to ``bisect`` equal
  the fixed-order entries bit for bit, and on a BB-tree every
  ``bisect`` call, and every kept leaf, is the fixed-order path's;
* no RuntimeWarning is raised.

The tier-1 budget is fixed; the ``slow``-marked run draws many more
examples.
"""

from __future__ import annotations

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bbtree import BBTree
from repro.geometry import BallTerms, BatchRangeProber, BregmanBall, projection

from conftest import all_decomposable_divergences

NAMES = [name for name, _ in all_decomposable_divergences(2)]
REAL_DOMAIN = ("squared_euclidean", "diagonal_mahalanobis", "exponential", "p_norm")


def draw_points(name: str, kind: str, rng, n: int, d: int) -> np.ndarray:
    """``n`` points of one ``kind`` inside the divergence's domain:
    ``plain``, ``offset`` (ED near +-700, else far from the origin) or
    ``tiny`` (coordinates near 1e-162 on the real domains)."""
    values = rng.normal(size=(n, d))
    if kind == "offset":
        if name == "exponential":
            return np.clip(rng.choice([-695.0, 695.0]) + 4.0 * values, -700.0, 700.0)
        shift = rng.uniform(5.0, 40.0)
        if name in ("itakura_saito", "generalized_kl"):
            return np.exp((values + shift) / 8.0)
        if name == "shannon_entropy":
            return 1.0 / (1.0 + np.exp(-(values + shift) / 8.0))
        values = values + shift
    if kind == "tiny" and name in REAL_DOMAIN:
        return 1e-162 * values
    if name in ("itakura_saito", "generalized_kl"):
        return np.exp(values)
    if name == "shannon_entropy":
        return 1.0 / (1.0 + np.exp(-values))
    return values


def near(values: np.ndarray, rng) -> np.ndarray:
    """Radii from pairs' own values: zero, tiny to wide multiples, and
    the value itself moved by up to four ulps either way."""
    kind = rng.integers(4, size=values.size)
    scale = np.clip(values, 1e-300, 1e300)
    radii = np.where(kind == 0, 0.0, scale * 10.0 ** rng.uniform(-3.0, 3.0, values.size))
    tangent = kind >= 2
    steps = rng.integers(-4, 5, size=values.size)
    radii[tangent] = values[tangent] * (1.0 + steps[tangent] * 2.0**-52)
    return radii


def fixed_order():
    """The fixed-order path at every batch size."""
    return mock.patch.object(projection, "BLAS_MIN_QUERIES", 1 << 30)


def assert_bits_equal(got, want):
    for a, b in zip(got, want):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


def check_fast_pass(name, kind, seed, d, n_balls, extra_queries):
    divergence = dict(all_decomposable_divergences(d))[name]
    rng = np.random.default_rng(seed)
    n_queries = projection.BLAS_MIN_QUERIES + extra_queries
    centers = np.stack([
        BregmanBall.covering(divergence, draw_points(name, kind, rng, 3, d)).center
        for _ in range(n_balls)
    ])
    queries = draw_points(name, kind, rng, n_queries, d)
    prober = BatchRangeProber(divergence, queries)
    every = np.arange(n_queries)
    with fixed_order():
        zero_radii = BallTerms.of(divergence, centers, np.zeros(n_balls))
        exact = prober.center_divergences(zero_radii, every)
    d_query_center, d_center_query = exact.values
    some_query = rng.integers(n_queries, size=n_balls)
    ball_radii = near(d_query_center[np.arange(n_balls), some_query], rng)
    range_radii = near(d_center_query[rng.integers(n_balls, size=n_queries), every], rng)
    balls = BallTerms.of(divergence, centers, ball_radii)
    active = every[rng.random(n_queries) < 0.9]
    if active.size < projection.BLAS_MIN_QUERIES:
        active = every

    with fixed_order():
        want_divergences = prober.center_divergences(balls, active)
        want = prober.fast_yes(balls, active, range_radii, want_divergences)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        divergences = prober.center_divergences(balls, active)
        assert divergences.bounds is not None
        got = prober.fast_yes(balls, active, range_radii, divergences)
        node, col = np.nonzero(~got)
        pairs = prober.pair_values(balls, divergences, node, col)
    assert got.tobytes() == want.tobytes()
    assert_bits_equal(pairs, (values[node, col] for values in want_divergences.values))


def check_tree_handoff(name, kind, seed, d, extra_queries):
    """On a BB-tree, every ``bisect`` call and every kept leaf of the
    certified fast pass is the fixed-order path's."""
    divergence = dict(all_decomposable_divergences(d))[name]
    rng = np.random.default_rng(seed)
    points = draw_points(name, kind, rng, 40, d)
    queries = draw_points(name, kind, rng, projection.BLAS_MIN_QUERIES + extra_queries, d)
    tree = BBTree(divergence, leaf_capacity=4, rng=np.random.default_rng(seed)).build(points)
    radii = np.array([
        np.quantile(divergence.batch_divergence(points, query), level)
        for query, level in zip(queries, rng.uniform(0.0, 0.5, queries.shape[0]))
    ])
    original = BatchRangeProber.bisect

    def run():
        calls = []

        def recording(self, balls, node_idx, query_idx, range_radii, divergences):
            calls.append((node_idx, query_idx, *divergences))
            return original(self, balls, node_idx, query_idx, range_radii, divergences)

        with mock.patch.object(BatchRangeProber, "bisect", recording):
            result = tree.range_query_batch(queries, radii)
        return calls, result

    with fixed_order():
        want_calls, want = run()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got_calls, got = run()
    assert len(got_calls) == len(want_calls)
    for got_call, want_call in zip(got_calls, want_calls):
        assert_bits_equal(got_call, want_call)
    np.testing.assert_array_equal(got.leaves_visited, want.leaves_visited)
    for got_ids, want_ids in zip(got.point_ids, want.point_ids):
        np.testing.assert_array_equal(got_ids, want_ids)


examples = dict(
    kind=st.sampled_from(["plain", "offset", "tiny"]),
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 8),
    n_balls=st.integers(1, 12),
    extra_queries=st.integers(0, 20),
)


@pytest.mark.parametrize("name", NAMES)
@given(**examples)
@settings(max_examples=20, deadline=None)
def test_fast_pass(name, kind, seed, d, n_balls, extra_queries):
    check_fast_pass(name, kind, seed, d, n_balls, extra_queries)
    check_tree_handoff(name, kind, seed, d, extra_queries)


@pytest.mark.slow
@pytest.mark.parametrize("name", NAMES)
@given(**examples)
@settings(max_examples=300, deadline=None)
def test_fast_pass_large_budget(name, kind, seed, d, n_balls, extra_queries):
    check_fast_pass(name, kind, seed, d, n_balls, extra_queries)
    check_tree_handoff(name, kind, seed, d, extra_queries)


def test_margin_pairs_are_recomputed():
    """Radii set to pairs' own values put those pairs inside the bound's
    margin: the fast pass recomputes them, and only them, with the
    fixed-order formula."""
    divergence = dict(all_decomposable_divergences(6))["itakura_saito"]
    rng = np.random.default_rng(3)
    centers = np.exp(rng.normal(size=(5, 6)))
    queries = np.exp(rng.normal(size=(projection.BLAS_MIN_QUERIES, 6)))
    prober = BatchRangeProber(divergence, queries)
    every = np.arange(queries.shape[0])
    with fixed_order():
        exact = prober.center_divergences(BallTerms.of(divergence, centers, np.zeros(5)), every)
    # ball 0's radius is its nearest query's D(q, c); query 1's range
    # radius is its nearest ball's D(c, q); every other radius is zero
    nearest_query = int(np.argmin(exact.values[0][0]))
    nearest_ball = int(np.argmin(exact.values[1][:, 1]))
    ball_radii = np.zeros(5)
    ball_radii[0] = exact.values[0][0, nearest_query]
    range_radii = np.zeros(every.size)
    range_radii[1] = exact.values[1][nearest_ball, 1]
    balls = BallTerms.of(divergence, centers, ball_radii)
    recomputed = []
    original = BatchRangeProber.pair_divergences

    def counting(self, balls, node_idx, query_idx):
        recomputed.extend(zip(node_idx.tolist(), query_idx.tolist()))
        return original(self, balls, node_idx, query_idx)

    with mock.patch.object(BatchRangeProber, "pair_divergences", counting):
        yes = prober.fast_yes(balls, every, range_radii)
    assert sorted(recomputed) == sorted([(0, nearest_query), (nearest_ball, 1)])
    assert yes[0, nearest_query] and yes[nearest_ball, 1]
    assert yes.sum() == 2
