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
lower bound even before convergence.

The paper's range queries decide each (ball, query) pair with this
geodesic, citing Cayton's secant method ("Efficient Bregman Range
Search", NIPS 2009).  The scalar functions here bisect at bracket
midpoints.  The batched test (:class:`BatchRangeProber`), which every
range query of the index runs, instead probes where models of the two
curves predict the geodesic leaves the ball and the range, which
decides most pairs at the first probe; any point of the geodesic is as
good a certificate as a midpoint, so the probes change how fast a pair
is decided, not what is certified.

Before any probe, a pair's center divergences ``D(q, c)`` and ``D(c, q)``
decide the two bisection-free YES tests (the fast pass).  For a batch of
:data:`BLAS_MIN_QUERIES` or more queries they are estimated through BLAS,
each under a proved bound on its gap to the fixed-order value, and only
the pairs the bound cannot decide, and the pairs handed to bisection, get
fixed-order values (:class:`BatchRangeProber`): every decision and probe
is the fixed-order path's, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Tuple

import numpy as np

from ..divergences.base import DecomposableBregmanDivergence, error_scale

__all__ = [
    "min_divergence_to_ball",
    "ball_intersects_range",
    "batch_ball_intersects_range",
    "BallTerms",
    "BatchRangeProber",
    "CenterDivergences",
    "project_to_ball",
    "BLAS_MIN_QUERIES",
    "MODEL_SLACK",
]

#: Queries from which :meth:`BatchRangeProber.center_divergences` forms
#: its two ``(N, B)`` products through BLAS under a proved bound (the
#: certified fast pass) rather than with the fixed-order einsum.  Below
#: it, and at ``B = 1``, whose seed leaves are ordered by the fixed-order
#: ``D(c, q)``, the einsum runs as before.  Measured as Plan ms per
#: ``search_batch`` call, fixed-order against certified (best of 3-9
#: interleaved passes over 2-16 batches, seed 11, on a 2-vCPU x86-64 host
#: with Python 3.11, NumPy 2.4 and OpenBLAS 0.3): ``serve``'s index at
#: B = 2 / 4 / 8 / 12 / 16 / 32: 1.88 / 2.13 / 1.83 / 1.60 / 1.52 / 2.37
#: against 2.20 / 2.42 / 1.83 / 1.41 / 1.18 / 1.48; ``mutate``'s at
#: B = 4 / 8 / 12 / 32: 2.59 / 2.29 / 1.65 / 2.59 against 2.98 / 2.30 /
#: 1.32 / 1.29; ``batch``'s (M=16) at B = 8 / 12 / 64: 7.29 / 8.08 /
#: 49.1 against 7.51 / 7.97 / 42.8.  Small batches that the covered
#: proof does not settle bisect hundreds of pairs, whose fixed-order
#: values are then recomputed anyway; from B = 12 on the BLAS products
#: win on every shape.
BLAS_MIN_QUERIES = 12

#: Halvings a pair's guided probes may fall behind midpoint bisection
#: before the pair finishes with midpoints (:meth:`BatchRangeProber.bisect`).
MODEL_SLACK = 3

#: Share of a pair's bracket that a guided probe keeps clear of at each
#: end, so every probe shrinks the bracket by at least this share.
_CLAMP = 0.1

#: The models see radii capped here, and divide a radius only by
#: divergences of at least the radius times ``_RATIO_FLOOR`` plus the
#: smallest subnormal, so their ratios stay below ``1 / _RATIO_FLOOR``:
#: finite, with no division warning.
_RADIUS_CAP = 2.0**1000
_RATIO_FLOOR = 2.0**-1000
_SUBNORMAL = 2.0**-1074
_TINY = 2.0**-1022


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
    radii clamped at zero.  ``grad_norm`` (``||grad f(c)||``),
    ``center_norm`` (``||c||``) and ``magnitude`` (``|f(c)| + |<c, grad
    f(c)>|``) are the certified fast pass's bound terms
    (:meth:`BatchRangeProber.center_divergences`).  A BB-tree computes
    these once per tree (:class:`~repro.bbtree.flat.FlatTree`), so no
    range query re-derives them per node visit.
    """

    centers: np.ndarray
    radii: np.ndarray
    grad: np.ndarray
    f: np.ndarray
    c_dot_grad: np.ndarray
    grad_norm: np.ndarray
    center_norm: np.ndarray
    magnitude: np.ndarray

    @classmethod
    def of(
        cls,
        divergence: DecomposableBregmanDivergence,
        centers: np.ndarray,
        radii: np.ndarray,
    ) -> "BallTerms":
        centers = np.atleast_2d(np.asarray(centers, dtype=float))
        grad = np.asarray(divergence.phi_prime(centers), dtype=float)
        f = np.sum(divergence.phi(centers), axis=1)
        c_dot_grad = np.einsum("ij,ij->i", centers, grad)
        return cls(
            centers=centers,
            radii=np.maximum(np.asarray(radii, dtype=float), 0.0),
            grad=grad,
            f=f,
            c_dot_grad=c_dot_grad,
            grad_norm=_norms(grad),
            center_norm=_norms(centers),
            magnitude=np.abs(f) + np.abs(c_dot_grad),
        )


def _norms(rows: np.ndarray) -> np.ndarray:
    """Upper bounds on the rows' Euclidean norms, gradual underflow
    included: a square below the smallest normal is off by up to
    ``2^-1075`` (or flushed to zero), so ``d`` subnormal units are added
    before the root."""
    return np.sqrt(np.einsum("ij,ij->i", rows, rows) + rows.shape[1] * _SUBNORMAL)


@dataclass(frozen=True)
class CenterDivergences:
    """``D(q, c)`` and ``D(c, q)`` of every (ball, query) pair, for the
    prober's queries ``query_idx``: ``values`` holds two ``(N, A)``
    matrices (:meth:`BatchRangeProber.center_divergences`).

    ``bounds`` is ``None`` when the values are the fixed-order ones;
    otherwise they are estimates and ``bounds`` holds, per entry, a
    proved bound on its gap to the fixed-order value
    (:meth:`BatchRangeProber.pair_values` gives those).
    """

    values: Tuple[np.ndarray, np.ndarray]
    bounds: Optional[Tuple[np.ndarray, np.ndarray]]
    query_idx: np.ndarray

    def columns(self, cols: np.ndarray) -> "CenterDivergences":
        """The pairs of the queries ``query_idx[cols]``."""
        bounds = self.bounds
        if bounds is not None:
            bounds = (bounds[0][:, cols], bounds[1][:, cols])
        values = (self.values[0][:, cols], self.values[1][:, cols])
        return CenterDivergences(values, bounds, self.query_idx[cols])


class BatchRangeProber:
    """Batched ball-vs-range tests for ``B`` queries against many balls.

    The per-query constants that the scalar :func:`ball_intersects_range`
    re-derives at every node (``grad f(q)``, ``f(q)``, ``<q, grad f(q)>``)
    are computed once here, and the node-side constants come
    precomputed in a :class:`BallTerms`.  A (ball, query) pair is decided
    by the scalar test's logic in two steps:

    * :meth:`fast_yes` -- the two bisection-free certain YES tests (the
      query inside the ball, the center inside the range) as one dense
      ``(N, B)`` pass over the pairs' :meth:`center_divergences`
      (certified estimates from :data:`BLAS_MIN_QUERIES` queries on, with
      fixed-order values recomputed only inside the bound's margin);
    * :meth:`bisect` -- guided probes of the dual geodesic for the pairs
      the fast paths left open, all of them in lockstep: any probe
      inside both sets is a certain YES, any probe outside both a
      certain NO, and pairs drop out as soon as they resolve (undecided
      stays YES, so pruning remains sound).

    Both take the queries' range radii, ``(B,)`` and indexed like the
    queries, as an argument: the prober itself holds only radius-free
    terms, so one prober decides its queries at any radii.

    The certified fast pass.  From :data:`BLAS_MIN_QUERIES` queries on,
    the center divergences come from two BLAS products, each entry with
    a proved bound ``E`` on its gap to the fixed-order value, formed
    from norms and magnitudes cached per ball (:class:`BallTerms`) and
    per query (see :meth:`center_divergences` for the bound).  A test
    whose estimate lies farther than ``E`` from its radius (``R`` for
    ``D(q, c)``, the range radius for ``D(c, q)``) has its fixed-order
    value on the same side, so it is decided from the estimate; a pair
    left inside the margin, or with a non-finite estimate or bound, is
    recomputed with the fixed-order formula over the gathered pairs
    (:meth:`pair_divergences`, whose row-wise einsum rounds like the
    dense entry).  So is every pair handed to :meth:`bisect`
    (:meth:`pair_values`), whose first probe reads its values.  The
    decisions and probes are therefore the fixed-order path's bit for
    bit, whatever order or thread count BLAS sums in.  On perfbench's
    ``serve`` batches (B=32, 1,059 nodes) no pair lands in the margin,
    and the products take about 0.15 ms against 1.3 ms for the two
    einsums.

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

    @cached_property
    def _bound_terms(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(||q||, ||grad f(q)||, |f(q)| + |<q, grad f(q)>|)`` per query:
        the certified fast pass's query-side bound terms, computed on
        first use."""
        return (
            _norms(self.queries),
            _norms(self.grad_q),
            np.abs(self.f_q) + np.abs(self.q_dot_grad_q),
        )

    def center_divergences(
        self, balls: BallTerms, query_idx: np.ndarray
    ) -> CenterDivergences:
        """``D(q, c)`` and ``D(c, q)`` for every (ball, query) pair: two
        ``(N, len(query_idx))`` matrices.

        What the fast paths compare with the ball and range radii; they
        need neither, so a caller may read them before choosing the
        radii.  Below :data:`BLAS_MIN_QUERIES` queries they are the
        fixed-order values: the contractions are the default
        (unoptimized) ``np.einsum`` over every (ball, query) pair at
        once, which rounds each element exactly like the row-wise
        ``"ij,ij->i"`` over gathered pairs (:meth:`pair_divergences`);
        ``np.dot``/``@``/``optimize=True`` may not.  The gather also lays
        the query operands out row-major: a subspace's columns arrive
        column-major (``points[:, dims]``), over which the contraction
        runs about 1.6 times slower.

        From :data:`BLAS_MIN_QUERIES` queries on, each product is one BLAS
        call and the values are estimates, each with a proved bound
        ``E`` on its gap to the fixed-order value.  Both computations
        round the same cached terms through one contraction of ``d``
        products and three additions, ``((f(q) - f(c)) - <grad f(c), q>)
        + <c, grad f(c)>`` for ``D(q, c)`` (and its mirror for ``D(c,
        q)``).  Higham's bound (Accuracy and Stability of Numerical
        Algorithms, 2nd ed., section 3.1) puts a contraction's rounding,
        in any summation order, within ``gamma_d ||a|| ||b||``, and each
        addition's within ``u`` times its operands; so ``E = 64 (d + 8) u
        (2 ||a|| ||b|| + |f(c)| + |<c, grad f(c)>| + |f(q)| + |<q, grad
        f(q)>|)`` covers both computations with a margin of over ten,
        ``2 ||a|| ||b||`` covering the contraction's own magnitude
        besides its rounding.  Its floor, ``2 * 64 (d + 8)`` subnormal
        units, covers gradual underflow
        (:func:`~repro.divergences.base.error_scale`, which the norms'
        underflow padding joins).  The clamp at zero is 1-Lipschitz, so
        it keeps the bound.
        """
        if query_idx.size < BLAS_MIN_QUERIES:
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
            return CenterDivergences((d_query_center, d_center_query), None, query_idx)
        q_norm, grad_q_norm, q_magnitude = (term[query_idx] for term in self._bound_terms)
        scale, floor = error_scale(1.0, balls.centers.shape[1])
        node_bound = scale * balls.magnitude + floor
        query_bound = scale * q_magnitude
        # an overflowing product or sum is an inf or NaN estimate, which
        # the fast pass leaves to the fixed-order values
        queries, grad_q = self.queries[query_idx], self.grad_q[query_idx]
        with np.errstate(over="ignore", invalid="ignore"):
            # BLAS may sum in any order: each entry is certified to within
            # its bound of the fixed-order value, which decides every pair
            # the bound cannot
            d_query_center = balls.grad @ queries.T  # repro: noqa[fixed-order-reduction]
            node_terms = (balls.c_dot_grad - balls.f)[:, None]
            np.subtract(node_terms, d_query_center, out=d_query_center)
            d_query_center += self.f_q[query_idx][None, :]
            np.maximum(d_query_center, 0.0, out=d_query_center)
            d_center_query = balls.centers @ grad_q.T  # repro: noqa[fixed-order-reduction]
            np.subtract(balls.f[:, None], d_center_query, out=d_center_query)
            d_center_query += (self.q_dot_grad_q - self.f_q)[query_idx][None, :]
            np.maximum(d_center_query, 0.0, out=d_center_query)
            bounds = []
            for node_norm, query_norm in (
                (balls.grad_norm, q_norm),
                (balls.center_norm, grad_q_norm),
            ):
                bound = np.multiply.outer(2.0 * scale * node_norm, query_norm)
                bound += node_bound[:, None]
                bound += query_bound[None, :]
                bounds.append(bound)
        return CenterDivergences(
            (d_query_center, d_center_query), (bounds[0], bounds[1]), query_idx
        )

    def pair_divergences(
        self, balls: BallTerms, node_idx: np.ndarray, query_idx: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The fixed-order ``(D(q, c), D(c, q))`` of gathered pairs, ball
        ``node_idx[p]`` against query ``query_idx[p]``: bit for bit the
        dense fixed-order entries of :meth:`center_divergences`."""
        f_q, f_c = self.f_q[query_idx], balls.f[node_idx]
        d_query_center = np.maximum(
            f_q
            - f_c
            - np.einsum("ij,ij->i", balls.grad[node_idx], self.queries[query_idx])
            + balls.c_dot_grad[node_idx],
            0.0,
        )
        d_center_query = np.maximum(
            f_c
            - f_q
            - np.einsum("ij,ij->i", balls.centers[node_idx], self.grad_q[query_idx])
            + self.q_dot_grad_q[query_idx],
            0.0,
        )
        return d_query_center, d_center_query

    def pair_values(
        self,
        balls: BallTerms,
        divergences: CenterDivergences,
        node_idx: np.ndarray,
        cols: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The fixed-order center divergences of the pairs ``(node_idx[p],
        cols[p])`` of ``divergences``: read off the matrices when they
        hold fixed-order values, recomputed over the gathered pairs
        (:meth:`pair_divergences`) when they hold estimates."""
        if divergences.bounds is None:
            return (
                divergences.values[0][node_idx, cols],
                divergences.values[1][node_idx, cols],
            )
        return self.pair_divergences(balls, node_idx, divergences.query_idx[cols])

    def fast_yes(
        self,
        balls: BallTerms,
        query_idx: np.ndarray,
        range_radii: np.ndarray,
        divergences: Optional[CenterDivergences] = None,
    ) -> np.ndarray:
        """``(N, len(query_idx))`` mask of the pairs certain YES without
        bisection: the query inside the ball, or the center inside the
        range.

        ``divergences`` are the pairs' :meth:`center_divergences` for
        ``query_idx``, computed here when not given.  Where they are
        estimates, a test is decided from its estimate when that is
        finite and lies farther than its bound from the test's radius
        (``R`` for ``D(q, c)``, the range radius for ``D(c, q)``); a
        pair that no test decides YES and not both decide NO is
        recomputed with the fixed-order formula
        (:meth:`pair_divergences`).  So the mask is the fixed-order
        values' bit for bit.
        """
        if divergences is None:
            divergences = self.center_divergences(balls, query_idx)
        ball_radii = balls.radii[:, None]
        range_r = range_radii[query_idx][None, :]
        d_query_center, d_center_query = divergences.values
        inside_ball = d_query_center <= ball_radii
        in_range = d_center_query <= range_r
        yes = inside_ball | in_range
        if divergences.bounds is None:
            return yes
        bound_ball, bound_range = divergences.bounds
        sure_ball = _beyond_bound(d_query_center, ball_radii, bound_ball)
        sure_range = _beyond_bound(d_center_query, range_r, bound_range)
        decided = (sure_ball & (sure_range | inside_ball)) | (sure_range & in_range)
        node, col = np.nonzero(~decided)
        if node.size:
            exact_ball, exact_range = self.pair_divergences(balls, node, query_idx[col])
            yes[node, col] = (exact_ball <= balls.radii[node]) | (
                exact_range <= range_radii[query_idx[col]]
            )
        return yes

    def bisect(
        self,
        balls: BallTerms,
        node_idx: np.ndarray,
        query_idx: np.ndarray,
        range_radii: np.ndarray,
        divergences: Tuple[np.ndarray, np.ndarray],
    ) -> np.ndarray:
        """Decide many (ball, query) pairs in lockstep, by guided probes.

        Pair ``p`` tests ball ``node_idx[p]`` against query
        ``query_idx[p]``'s range, whose radius must be non-negative.
        ``divergences`` are the pairs' ``(D(q, c), D(c, q))``, one value
        per pair each (their :meth:`center_divergences`), which place
        the first probe.  Returns a boolean array over the pairs
        (``True`` = may intersect).

        A probe evaluates a pair at a point ``x_theta`` of its dual
        geodesic (``x_0 = q``, ``x_1 = c``), between ``theta*``, where
        the geodesic leaves the ball (``D(x_theta, c) = R``), and
        ``theta_h``, where it leaves the range (``D(x_theta, q) = r``):
        the pair's first probe goes halfway between the two as a
        curvature model fitted to its center divergences predicts them
        (:func:`_first_probe`), and each later one halfway between them
        as quadratic models refitted at the last probe predict them
        (:func:`_guided_probe`).  Both models are exact for squared
        Euclidean, where the first probe decides every pair not within
        rounding of tangency, unless its gap lies near an end of the
        geodesic, where the clamp below holds the probes back.

        Why the answers are sound wherever the probes go: a probe in
        both sets is a point of their intersection (YES).  A probe
        outside the ball has ``theta < theta*``, since ``D(x_theta, c)``
        decreases in ``theta``, and ``D(x_theta, q)`` increases, so the
        ball's closest point to ``q``, ``x_theta*``, is at least as far
        as the probe: beyond the range is a certain NO.  Any other probe
        moves one end of the bracket ``[lo, hi]`` on ``theta*`` that
        midpoint bisection keeps.  Each probe is clamped to the middle
        ``1 - 2 * _CLAMP`` of its pair's bracket, so the bracket shrinks
        at every probe, and a pair more than :data:`MODEL_SLACK` halvings
        behind midpoint bisection takes midpoints from then on.  So after
        ``max_iter + MODEL_SLACK + 1`` probes every bracket is narrower
        than ``max_iter`` midpoints leave it: a pair reaches that budget
        with its bracket wider than the tolerance only where midpoint
        bisection's would be too (never at the BB-tree's 40 probes,
        whose bracket is ``2^-40``), and is kept.  A pair's probes
        depend only on its own operands, never on the other pairs of the
        call.
        """
        div = self.divergence
        n = node_idx.size
        out = np.zeros(n, dtype=bool)
        # Each pair's operands, as rows or columns that are dropped once
        # it resolves: grad f at the center and at the query, and in
        # ``state``, one row each or a (ball, range) pair of rows, the
        # bracket's lo and hi, the probe, f and <v, grad f(v)> at the
        # center v of each set, its radius, and the radius and floor the
        # models divide (:func:`_guided_probe`).
        pending = np.arange(n)
        grad_c, grad_q = balls.grad[node_idx], self.grad_q[query_idx]
        radii = np.stack([balls.radii[node_idx], range_radii[query_idx]])
        capped = np.minimum(radii, _RADIUS_CAP)
        state = np.concatenate([
            [np.zeros(n), np.ones(n), np.zeros(n)],
            [balls.f[node_idx], self.f_q[query_idx]],
            [balls.c_dot_grad[node_idx], self.q_dot_grad_q[query_idx]],
            radii,
            capped,
            capped * _RATIO_FLOOR + _SUBNORMAL,
        ])
        state[2] = _first_probe(state[9:], np.stack(divergences))
        for j in range(self.max_iter + MODEL_SLACK + 1):
            if pending.size == 0:
                return out
            lo, hi, theta = state[0], state[1], state[2]
            dual = grad_c - grad_q
            dual *= theta[:, None]
            dual += grad_q
            x_theta = div.gradient_inverse(dual)
            sum_phi_x = np.sum(div.phi(x_theta), axis=1)
            # D(x_theta, c) and D(x_theta, q), one row each
            dots = np.empty((2, pending.size))
            np.einsum("ij,ij->i", x_theta, grad_c, out=dots[0])
            np.einsum("ij,ij->i", x_theta, grad_q, out=dots[1])
            d_x = np.maximum(sum_phi_x - state[3:5] - dots + state[5:7], 0.0)
            inside_ball, in_range = d_x <= state[7:9]
            np.copyto(hi, theta, where=inside_ball)
            np.copyto(lo, theta, where=~inside_ball)
            width = hi - lo

            # Resolved: a point in both sets (certain YES), a certified
            # bound beyond the range (certain NO), or a converged bracket
            # (YES, the sound default).  Only the certain NO drops a node.
            resolved = (inside_ball == in_range) | (width <= 1e-12)
            # Next probe, refitting both models here; a pair more than
            # MODEL_SLACK halvings behind midpoint bisection takes the
            # midpoint.
            share = _CLAMP
            if j >= MODEL_SLACK:
                share = np.where(width <= 2.0 ** (MODEL_SLACK - j - 1), _CLAMP, 0.5)
            theta[:] = _guided_probe(state[9:], d_x, 1.0 - theta, theta, lo, hi, share * width)
            if np.count_nonzero(resolved):
                out[pending[resolved & (inside_ball | in_range)]] = True
                keep = ~resolved
                pending, state = pending[keep], state[:, keep]
                grad_c, grad_q = grad_c[keep], grad_q[keep]
        out[pending] = True  # probe budget exhausted: keep the node (sound)
        return out


def _beyond_bound(values, thresholds, bounds):
    """Mask of the finite estimates ``values`` that lie farther than their
    ``bounds`` from their ``thresholds``: there the fixed-order value is
    on the same side of the threshold.  The subtraction's rounding is
    inside the bound's margin (exact where the difference is
    subnormal)."""
    with np.errstate(invalid="ignore"):
        beyond = np.abs(values - thresholds) > bounds
    if not values.max() < np.inf:  # an overflowed (or NaN) estimate somewhere
        beyond &= values < np.inf
    return beyond


def _first_probe(model, ends):
    """Each pair's first probe, from its center divergences ``ends``
    (``D(q, c)`` and ``D(c, q)``, one row each); ``model`` is as
    :func:`_guided_probe` takes it.

    Along the dual geodesic ``y_theta = grad f(q) + theta delta``,
    ``delta = grad f(c) - grad f(q)``, both curves follow one curvature
    ``kappa(theta) = delta^T (grad^2 f*)(y_theta) delta``:
    ``D(x_theta, c)`` falls at the rate ``(1 - theta) kappa`` and
    ``D(x_theta, q)`` rises at ``theta kappa``.  The center divergences
    are two moments of it, ``D(q, c) = int (1 - t) kappa`` and ``D(c, q)
    = int t kappa``, which fit a linear ``kappa`` (kept positive by
    clipping their ratio ``rho`` to ``[1/2, 2]``).  In units of its end
    value each curve is then ``F(z) = (2 rho - 1) z^2 - 2 (rho - 1)
    z^3``, with ``z = 1 - theta`` and ``rho = D(c, q) / D(q, c)`` for
    the ball, ``z = theta`` and the inverse ratio for the range; one
    Newton step from the quadratic root ``sqrt(tau)`` solves ``F(z) =
    tau``, ``tau`` the radius over the end value.  On perfbench's
    ``mutate`` index this first probe decides 96% of the bisected pairs,
    against 66% for the quadratic roots alone.  For squared Euclidean
    ``kappa`` is constant, ``rho = 1`` and ``F(z) = z^2``.
    """
    other = ends[::-1]
    ratio = np.divide(other, ends, out=np.full_like(ends, 2.0), where=ends > 0.25 * other)
    rho = np.fmin(np.fmax(ratio, 0.5), 2.0)
    tau = np.fmin(model[:2] / np.maximum(ends, model[2:]), 1.0)
    z = np.sqrt(tau)
    c2, c3 = 2.0 * rho - 1.0, 2.0 * (rho - 1.0)
    slope = z * (2.0 * c2 - 3.0 * c3 * z)
    z = z - (z * z * (c2 - c3 * z) - tau) / np.maximum(slope, _TINY)
    probe = 0.5 * (1.0 - z[0] + z[1])
    return np.fmin(np.fmax(probe, _CLAMP), 1.0 - _CLAMP)


def _guided_probe(model, divergences, ball_weight, range_weight, lo, hi, step):
    """Each pair's next probe: halfway between the ball model's
    ``theta*`` and the range model's ``theta_h``, clamped to
    ``[lo + step, hi - step]``.

    ``divergences`` are ``D(x_a, c)`` and ``D(x_b, q)``, one row each, at
    the points the two models are fitted at, ``ball_weight`` is
    ``1 - a`` and ``range_weight`` is ``b``.  ``model`` holds each
    pair's radii, capped at ``_RADIUS_CAP`` (ball, then range), and
    their floors, which no divergence is taken below.  The
    models ``D(x_theta, c) = D(x_a, c) ((1 - theta) / (1 - a))^2`` and
    ``D(x_theta, q) = D(x_b, q) (theta / b)^2`` put ``theta*`` at
    ``1 - (1 - a) sqrt(R / D(x_a, c))`` and ``theta_h`` at
    ``b sqrt(r / D(x_b, q))``; both are exact for squared Euclidean.  A
    divergence below its floor (zero, say) or NaN makes a model value
    huge or NaN, which the clamp maps to a bracket end.
    """
    root = np.sqrt(model[:2] / np.maximum(divergences, model[2:]))
    probe = 0.5 * (1.0 - ball_weight * root[0] + range_weight * root[1])
    return np.fmin(np.fmax(probe, lo + step), hi - step)


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
    divergences = prober.center_divergences(ball, active)
    yes = prober.fast_yes(ball, active, range_radii, divergences)[0]
    out[active[yes]] = True
    cols = np.flatnonzero(~yes)
    nodes = np.zeros(cols.size, dtype=int)
    out[active[cols]] = prober.bisect(
        ball,
        nodes,
        active[cols],
        range_radii,
        prober.pair_values(ball, divergences, nodes, cols),
    )
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
