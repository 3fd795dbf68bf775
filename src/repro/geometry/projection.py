"""Dual-space geodesic projection onto Bregman balls (Cayton 2008/2009).

A Bregman ball ``B(mu, R) = { x : D_f(x, mu) <= R }`` is a convex set
(sublevel set of a convex function of ``x``).  To prune a ball against a
query ``q`` we need a certified lower bound on

    min_{x in B(mu, R)} D_f(x, q).

KKT analysis of this convex program shows the minimiser lies on the
*dual geodesic*

    x_theta = (grad f)^-1( theta * grad f(mu) + (1 - theta) * grad f(q) )

with ``x_0 = q`` and ``x_1 = mu``.  Along the curve, ``D_f(x_theta, mu)``
decreases and ``D_f(x_theta, q)`` increases in ``theta`` (Cayton 2008),
so a bisection on ``D_f(x_theta, mu) = R`` locates the constrained
minimiser.  Returning ``D_f(x_lo, q)`` for the bracketing ``lo`` endpoint
(where ``D_f(x_lo, mu) >= R``, i.e. ``lo <= theta*``) yields a *certified*
lower bound even before convergence.  The paper's range queries use this
test (citing Cayton's secant method; we use the equally exact but more
robust bisection).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..divergences.base import DecomposableBregmanDivergence

__all__ = [
    "min_divergence_to_ball",
    "ball_intersects_range",
    "batch_ball_intersects_range",
    "BallTerms",
    "BatchRangeProber",
    "project_to_ball",
]


def min_divergence_to_ball(
    divergence: DecomposableBregmanDivergence,
    center: np.ndarray,
    radius: float,
    query: np.ndarray,
    tol: float = 1e-9,
    max_iter: int = 64,
) -> float:
    """Certified lower bound on ``min_{x: D(x, center) <= radius} D(x, query)``.

    Returns 0.0 when the query itself lies inside the ball.  The bound
    converges to the exact minimum as ``max_iter`` grows; any returned
    value is guaranteed to be a valid lower bound.
    """
    center = np.asarray(center, dtype=float)
    query = np.asarray(query, dtype=float)
    if radius < 0.0:
        radius = 0.0
    if divergence.divergence(query, center) <= radius:
        return 0.0

    grad_center = divergence.phi_prime(center)
    grad_query = divergence.phi_prime(query)

    lo, hi = 0.0, 1.0  # invariant: D(x_lo, center) >= radius >= D(x_hi, center)
    x_lo = query
    for _ in range(max_iter):
        theta = 0.5 * (lo + hi)
        x_theta = divergence.gradient_inverse(
            theta * grad_center + (1.0 - theta) * grad_query
        )
        d_center = divergence.divergence(x_theta, center)
        if d_center >= radius:
            lo, x_lo = theta, x_theta
        else:
            hi = theta
        if hi - lo <= tol:
            break
    # lo <= theta*, and D(x_theta, query) is non-decreasing in theta,
    # hence D(x_lo, query) <= D(x_theta*, query) = the true minimum.
    return divergence.divergence(x_lo, query)


def ball_intersects_range(
    divergence: DecomposableBregmanDivergence,
    center: np.ndarray,
    ball_radius: float,
    query: np.ndarray,
    range_radius: float,
    max_iter: int = 48,
) -> bool:
    """Decide whether ``B(center, ball_radius)`` can intersect the query
    range ``{ x : D(x, query) <= range_radius }`` -- with early exit.

    This is the secant/bisection intersection test of Cayton (2009) that
    the paper's range queries use.  Unlike computing the full minimum,
    the decision usually resolves in a handful of iterations:

    * any dual-geodesic point that is simultaneously inside the ball and
      inside the range proves intersection (certain YES);
    * any certified lower bound above ``range_radius`` proves disjoint
      (certain NO).

    Conservative on iteration exhaustion (returns ``True``), so range
    queries stay sound.
    """
    center = np.asarray(center, dtype=float)
    query = np.asarray(query, dtype=float)
    if range_radius < 0.0:
        return False
    ball_radius = max(ball_radius, 0.0)
    if divergence.divergence(query, center) <= ball_radius:
        return True  # query itself is in the ball
    if divergence.divergence(center, query) <= range_radius:
        return True  # ball center is in the range

    grad_center = divergence.phi_prime(center)
    grad_query = divergence.phi_prime(query)
    lo, hi = 0.0, 1.0  # D(x_lo, center) >= R >= D(x_hi, center)
    for _ in range(max_iter):
        theta = 0.5 * (lo + hi)
        x_theta = divergence.gradient_inverse(
            theta * grad_center + (1.0 - theta) * grad_query
        )
        inside_ball = divergence.divergence(x_theta, center) <= ball_radius
        d_query = divergence.divergence(x_theta, query)
        if inside_ball:
            if d_query <= range_radius:
                return True  # witness point in both sets
            hi = theta
        else:
            if d_query > range_radius:
                return False  # certified lower bound beats the range
            lo = theta
        if hi - lo <= 1e-12:
            break
    return True  # undecided within budget: keep the node (sound)


@dataclass(frozen=True)
class BallTerms:
    """The node-side constants of ``N`` Bregman balls, computed once.

    ``f`` is ``f(c)``, ``grad`` is ``grad f(c)`` and ``c_dot_grad`` is
    ``<c, grad f(c)>`` for each center ``c``; ``radii`` are the ball
    radii clamped at zero.  A BB-tree computes these once per tree
    (:class:`~repro.bbtree.flat.FlatTree`), so no range query re-derives
    them per node visit.
    """

    centers: np.ndarray
    radii: np.ndarray
    grad: np.ndarray
    f: np.ndarray
    c_dot_grad: np.ndarray

    @classmethod
    def of(
        cls,
        divergence: DecomposableBregmanDivergence,
        centers: np.ndarray,
        radii: np.ndarray,
    ) -> "BallTerms":
        centers = np.atleast_2d(np.asarray(centers, dtype=float))
        grad = np.asarray(divergence.phi_prime(centers), dtype=float)
        return cls(
            centers=centers,
            radii=np.maximum(np.asarray(radii, dtype=float), 0.0),
            grad=grad,
            f=np.sum(divergence.phi(centers), axis=1),
            c_dot_grad=np.einsum("ij,ij->i", centers, grad),
        )


class BatchRangeProber:
    """Batched ball-vs-range tests for ``B`` queries against many balls.

    The per-query constants that the scalar :func:`ball_intersects_range`
    re-derives at every node (``grad f(q)``, ``f(q)``, ``<q, grad f(q)>``)
    are computed once here, and the node-side constants come
    precomputed in a :class:`BallTerms`.  A (ball, query) pair is decided
    by the scalar test's logic in two steps:

    * :meth:`fast_yes` -- the two bisection-free certain YES tests (the
      query inside the ball, the center inside the range) as one dense
      ``(N, B)`` pass over the pairs' :meth:`center_divergences`;
    * :meth:`bisect` -- the dual-geodesic bisection for the pairs the
      fast paths left open, all of them in lockstep: any witness inside
      both sets is a certain YES, any certified lower bound beyond the
      range a certain NO, and pairs drop out as soon as they resolve
      (undecided stays YES, so pruning remains sound).

    Both take the queries' range radii, ``(B,)`` and indexed like the
    queries, as an argument: the prober itself holds only radius-free
    terms, so one prober decides its queries at any radii.

    Each pair's value depends only on that pair's operands, never on
    which other pairs share the call, so any schedule of calls decides
    the same pairs the same way.  The fused arithmetic can round
    differently from the scalar test by ~1 ulp, so a borderline node may
    be kept/dropped differently from :func:`ball_intersects_range`; both
    answers are sound (certified), so candidate sets may differ at the
    margin but final kNN results never do.
    """

    def __init__(
        self,
        divergence: DecomposableBregmanDivergence,
        queries: np.ndarray,
        max_iter: int = 48,
    ) -> None:
        self.divergence = divergence
        self.queries = np.atleast_2d(np.asarray(queries, dtype=float))
        self.max_iter = int(max_iter)
        self.grad_q = np.asarray(divergence.phi_prime(self.queries), dtype=float)
        self.f_q = np.sum(divergence.phi(self.queries), axis=1)
        self.q_dot_grad_q = np.einsum("ij,ij->i", self.queries, self.grad_q)

    def center_divergences(
        self, balls: BallTerms, query_idx: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(D(q, c), D(c, q))`` for every (ball, query) pair: two
        ``(N, len(query_idx))`` matrices.

        What the fast paths compare with the ball and range radii; they
        need neither, so a caller may read them before choosing the
        radii.  The contractions are the default (unoptimized)
        ``np.einsum`` over every (ball, query) pair at once, which rounds
        each element exactly like the row-wise ``"ij,ij->i"`` over
        gathered pairs; ``np.dot``/``@``/``optimize=True`` may not.  The
        gather also lays the query operands out row-major: a subspace's
        columns arrive column-major (``points[:, dims]``), over which
        the contraction runs about 1.6 times slower.
        """
        f_q = self.f_q[query_idx]
        d_query_center = np.maximum(
            f_q[None, :]
            - balls.f[:, None]
            - np.einsum("nd,qd->nq", balls.grad, self.queries[query_idx])
            + balls.c_dot_grad[:, None],
            0.0,
        )
        d_center_query = np.maximum(
            balls.f[:, None]
            - f_q[None, :]
            - np.einsum("nd,qd->nq", balls.centers, self.grad_q[query_idx])
            + self.q_dot_grad_q[query_idx][None, :],
            0.0,
        )
        return d_query_center, d_center_query

    def fast_yes(
        self,
        balls: BallTerms,
        query_idx: np.ndarray,
        range_radii: np.ndarray,
        divergences: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> np.ndarray:
        """``(N, len(query_idx))`` mask of the pairs certain YES without
        bisection: the query inside the ball, or the center inside the
        range.

        ``divergences`` are the pairs' :meth:`center_divergences` for
        ``query_idx``, computed here when not given.
        """
        if divergences is None:
            divergences = self.center_divergences(balls, query_idx)
        d_query_center, d_center_query = divergences
        return (d_query_center <= balls.radii[:, None]) | (
            d_center_query <= range_radii[query_idx][None, :]
        )

    def bisect(
        self,
        balls: BallTerms,
        node_idx: np.ndarray,
        query_idx: np.ndarray,
        range_radii: np.ndarray,
    ) -> np.ndarray:
        """Decide many (ball, query) pairs in one fused bisection.

        Pair ``p`` tests ball ``node_idx[p]`` against query
        ``query_idx[p]``'s range, whose radius must be non-negative.
        Returns a boolean array over the pairs (``True`` = may
        intersect).
        """
        div = self.divergence
        out = np.zeros(node_idx.size, dtype=bool)
        # Each pair's operands, as rows that are dropped once it resolves.
        pending = np.arange(node_idx.size)
        grad_c = balls.grad[node_idx]
        grad_q = self.grad_q[query_idx]
        terms = np.stack([
            balls.f[node_idx],
            balls.c_dot_grad[node_idx],
            balls.radii[node_idx],
            self.f_q[query_idx],
            self.q_dot_grad_q[query_idx],
            range_radii[query_idx],
        ])
        lo = np.zeros(node_idx.size)
        hi = np.ones(node_idx.size)
        for _ in range(self.max_iter):
            if pending.size == 0:
                return out
            f_c, cgc, ball_r, f_q, qgq, radii = terms
            theta = 0.5 * (lo + hi)
            x_theta = div.gradient_inverse(
                theta[:, None] * grad_c + (1.0 - theta)[:, None] * grad_q
            )
            sum_phi_x = np.sum(div.phi(x_theta), axis=1)
            d_center = np.maximum(
                sum_phi_x - f_c - np.einsum("ij,ij->i", x_theta, grad_c) + cgc, 0.0
            )
            d_query = np.maximum(
                sum_phi_x - f_q - np.einsum("ij,ij->i", x_theta, grad_q) + qgq, 0.0
            )
            inside_ball = d_center <= ball_r
            in_range = d_query <= radii
            hi = np.where(inside_ball, theta, hi)
            lo = np.where(inside_ball, lo, theta)

            # Resolved: a point in both sets (certain YES), a certified
            # bound beyond the range (certain NO), or a converged bracket
            # (YES, the sound default).  Only the certain NO drops a node.
            resolved = (inside_ball == in_range) | ((hi - lo) <= 1e-12)
            out[pending[resolved & (inside_ball | in_range)]] = True
            if resolved.any():
                keep = ~resolved
                pending, lo, hi, terms = pending[keep], lo[keep], hi[keep], terms[:, keep]
                grad_c, grad_q = grad_c[keep], grad_q[keep]
        out[pending] = True  # iteration budget exhausted: keep the node (sound)
        return out


def batch_ball_intersects_range(
    divergence: DecomposableBregmanDivergence,
    center: np.ndarray,
    ball_radius: float,
    queries: np.ndarray,
    range_radii: np.ndarray,
    max_iter: int = 48,
) -> np.ndarray:
    """Vectorised :func:`ball_intersects_range` over a batch of queries.

    One ball through :class:`BatchRangeProber`'s fast paths and
    bisection; a negative range radius is a certain NO.  For many balls
    (a tree traversal), precompute their :class:`BallTerms` once and
    reuse one prober.
    """
    prober = BatchRangeProber(divergence, queries, max_iter)
    range_radii = np.asarray(range_radii, dtype=float)
    ball = BallTerms.of(divergence, center, [ball_radius])
    active = np.flatnonzero(range_radii >= 0.0)
    out = np.zeros(prober.queries.shape[0], dtype=bool)
    yes = prober.fast_yes(ball, active, range_radii)[0]
    out[active[yes]] = True
    rest = active[~yes]
    out[rest] = prober.bisect(ball, np.zeros(rest.size, dtype=int), rest, range_radii)
    return out


def project_to_ball(
    divergence: DecomposableBregmanDivergence,
    center: np.ndarray,
    radius: float,
    query: np.ndarray,
    tol: float = 1e-9,
    max_iter: int = 64,
) -> np.ndarray:
    """Approximate Bregman projection of ``query`` onto ``B(center, radius)``.

    Returns the dual-geodesic point with ``D(x, center)`` closest to the
    radius -- the constrained minimiser of ``D(., query)``.  If the query
    is already inside the ball it is returned unchanged.
    """
    center = np.asarray(center, dtype=float)
    query = np.asarray(query, dtype=float)
    if divergence.divergence(query, center) <= radius:
        return query

    grad_center = divergence.phi_prime(center)
    grad_query = divergence.phi_prime(query)
    lo, hi = 0.0, 1.0
    x_best = center
    for _ in range(max_iter):
        theta = 0.5 * (lo + hi)
        x_theta = divergence.gradient_inverse(
            theta * grad_center + (1.0 - theta) * grad_query
        )
        if divergence.divergence(x_theta, center) >= radius:
            lo = theta
            x_best = x_theta
        else:
            hi = theta
            x_best = x_theta
        if hi - lo <= tol:
            break
    return x_best
