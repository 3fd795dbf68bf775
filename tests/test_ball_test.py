"""The batched ball-vs-range test as a hypothesis property.

``BatchRangeProber.bisect`` decides each (ball, query) pair by probes
placed where its models predict the dual geodesic leaves the ball and
the range.  For all seven decomposable divergences, on balls covering
random point sets (single points among them, whose radius is zero),
queries drawn around them, at their centers and at their members, and
range radii of zero, tiny to wide, and within a few ulps of the
converged ``min_divergence_to_ball``, through
``batch_ball_intersects_range`` (which decides the test-local walk of
``test_batch.py::TestFlatTraversal``):

* every pair with a member point within its range radius is YES at the
  radius the index pads it to (``pad_radii``, which absorbs rounding);
* every pair NO at its padded radius has every member point, and the
  whole ball by a converged lower bound, beyond the radius;
* decisions equal those of a copy of the midpoint bisection the probes
  replaced, wherever that copy resolves the pair by a certificate
  within its budget (``lb_max_iter``) and decides it alike at the radius
  minus and plus the index's slack (``RADIUS_EPS``).  Closer to
  tangency than that slack, a certificate is rounding: the computed
  divergences along the geodesic are not monotone there, so a probe at
  another point can certify the other answer (a pair whose radius is
  the converged lower bound itself was certified NO by the reference
  and YES by the guided probes).  Either answer is sound at the padded
  radius, which the first property checks;
* no RuntimeWarning is raised.

The tier-1 budget is fixed; the ``slow``-marked run draws many more
examples.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bbtree import BBTree
from repro.core.transforms import RADIUS_EPS, pad_radii
from repro.divergences import SquaredEuclidean
from repro.geometry import (
    BallTerms,
    BatchRangeProber,
    BregmanBall,
    batch_ball_intersects_range,
    min_divergence_to_ball,
)

from conftest import all_decomposable_divergences

NAMES = [name for name, _ in all_decomposable_divergences(2)]

#: the probe budget the BB-tree's range queries run with
MAX_ITER = BBTree(SquaredEuclidean()).lb_max_iter


def draw_points(name: str, rng, n: int, d: int, loc, spread: float) -> np.ndarray:
    """``n`` points around ``loc`` inside the divergence's domain."""
    values = loc + spread * rng.normal(size=(n, d))
    if name in ("itakura_saito", "generalized_kl"):
        return np.exp(values)
    if name == "shannon_entropy":
        return 1.0 / (1.0 + np.exp(-values))
    return values


def midpoint_reference(divergence, center, ball_radius, queries, radii):
    """The midpoint bisection the guided probes replaced.

    Returns each pair's decision and whether it was certified: by a
    fast path, a negative radius, or a probe inside both sets (YES) or
    outside both (NO) within ``MAX_ITER`` probes.  A pair whose bracket
    converges or whose budget runs out is kept, uncertified.
    """
    prober = BatchRangeProber(divergence, queries, MAX_ITER)
    ball = BallTerms.of(divergence, center, [ball_radius])
    decided = np.zeros(queries.shape[0], dtype=bool)
    certified = radii < 0.0
    active = np.flatnonzero(radii >= 0.0)
    yes = prober.fast_yes(ball, active, radii)[0]
    decided[active[yes]] = True
    certified[active[yes]] = True
    pending = active[~yes]
    grad_c = np.repeat(ball.grad, pending.size, axis=0)
    grad_q = prober.grad_q[pending]
    lo = np.zeros(pending.size)
    hi = np.ones(pending.size)
    for _ in range(MAX_ITER):
        if pending.size == 0:
            break
        theta = 0.5 * (lo + hi)
        x = divergence.gradient_inverse(
            theta[:, None] * grad_c + (1.0 - theta)[:, None] * grad_q
        )
        sum_phi = np.sum(divergence.phi(x), axis=1)
        d_center = np.maximum(
            sum_phi - ball.f[0] - np.einsum("ij,ij->i", x, grad_c) + ball.c_dot_grad[0],
            0.0,
        )
        d_query = np.maximum(
            sum_phi
            - prober.f_q[pending]
            - np.einsum("ij,ij->i", x, grad_q)
            + prober.q_dot_grad_q[pending],
            0.0,
        )
        inside_ball = d_center <= ball.radii[0]
        in_range = d_query <= radii[pending]
        hi = np.where(inside_ball, theta, hi)
        lo = np.where(inside_ball, lo, theta)
        sure = inside_ball == in_range
        resolved = sure | ((hi - lo) <= 1e-12)
        decided[pending[resolved & (inside_ball | in_range)]] = True
        certified[pending[sure]] = True
        keep = ~resolved
        pending, lo, hi = pending[keep], lo[keep], hi[keep]
        grad_c, grad_q = grad_c[keep], grad_q[keep]
    decided[pending] = True
    return decided, certified


def range_radii(rng, lower_bound: float, n: int) -> np.ndarray:
    """``n`` radii around a pair's converged lower bound: zero, tiny to
    wide multiples of it, and a few ulps either side of it."""
    kind = rng.integers(4, size=n)
    scale = max(lower_bound, 1e-12)
    radii = np.where(kind == 0, 0.0, scale * 10.0 ** rng.uniform(-6.0, 3.0, n))
    tangent = kind >= 2
    steps = rng.integers(-4, 5, size=n)
    radii[tangent] = lower_bound * (1.0 + steps[tangent] * 2.0**-52)
    return radii


def check_ball_test(name, seed, d, n_balls, n_queries):
    divergence = dict(all_decomposable_divergences(d))[name]
    rng = np.random.default_rng(seed)
    for _ in range(n_balls):
        loc = rng.uniform(-1.5, 1.5, d)
        size = 1 if rng.random() < 0.25 else int(rng.integers(2, 12))
        members = draw_points(name, rng, size, d, loc, rng.uniform(0.05, 0.8))
        ball = BregmanBall.covering(divergence, members)
        around = draw_points(
            name, rng, n_queries, d, loc + rng.normal(0.0, 1.0, d), rng.uniform(0.05, 1.0)
        )
        targets = np.vstack([around, ball.center[None, :], members[:1]])
        queries, radii = [], []
        for query in targets:
            bound = min_divergence_to_ball(
                divergence, ball.center, ball.radius, query, tol=0.0, max_iter=60
            )
            queries.append(np.repeat(query[None, :], 6, axis=0))
            radii.append(range_radii(rng, bound, 6))
        queries, radii = np.vstack(queries), np.concatenate(radii)
        padded = pad_radii(radii)

        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = batch_ball_intersects_range(
                divergence, ball.center, ball.radius, queries, radii, MAX_ITER
            )
            got_padded = batch_ball_intersects_range(
                divergence, ball.center, ball.radius, queries, padded, MAX_ITER
            )
        want, certified = midpoint_reference(
            divergence, ball.center, ball.radius, queries, radii
        )
        # within the radius slack of tangency a certificate is rounding:
        # compare where the reference decides alike on both sides of it
        slack = RADIUS_EPS * (1.0 + radii)
        below, _ = midpoint_reference(
            divergence, ball.center, ball.radius, queries, np.maximum(radii - slack, 0.0)
        )
        above, _ = midpoint_reference(divergence, ball.center, ball.radius, queries, padded)
        compared = certified & (below == want) & (above == want)
        np.testing.assert_array_equal(got[compared], want[compared])

        nearest = np.array([
            np.min(divergence.batch_divergence(members, query)) for query in queries
        ])
        assert got_padded[nearest <= radii].all()
        for query, radius in zip(queries[~got_padded], radii[~got_padded]):
            bound = min_divergence_to_ball(
                divergence, ball.center, ball.radius, query, tol=0.0, max_iter=60
            )
            assert bound > radius


examples = dict(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 12),
    n_balls=st.integers(1, 3),
    n_queries=st.integers(1, 4),
)


@pytest.mark.parametrize("name", NAMES)
@given(**examples)
@settings(max_examples=20, deadline=None)
def test_ball_test(name, seed, d, n_balls, n_queries):
    check_ball_test(name, seed, d, n_balls, n_queries)


@pytest.mark.slow
@pytest.mark.parametrize("name", NAMES)
@given(**examples)
@settings(max_examples=400, deadline=None)
def test_ball_test_large_budget(name, seed, d, n_balls, n_queries):
    check_ball_test(name, seed, d, n_balls, n_queries)
