"""Exponential distance (``phi(t) = e^t``), named "ED" in the paper.

Section 3.1:

    D_f(x, y) = sum_j ( e^{x_j} - (x_j - y_j + 1) e^{y_j} )

The paper evaluates this divergence on the Audio, Deep, Sift and Normal
datasets.  The generator is defined on all of R, but coordinates should
be kept in a moderate range (|t| well below ~700) to avoid ``exp``
overflow; :meth:`ExponentialDistance.validate_domain` enforces a
configurable cap.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..exceptions import DomainError
from .base import (
    REALS,
    DecomposableBregmanDivergence,
    KernelTerms,
    RefinementConditioner,
)

__all__ = ["ExponentialDistance"]

#: exp() on float64 overflows just above 709; stay far below.
_DEFAULT_MAX_ABS = 100.0

#: cap on the conditioner shift so its e^shift output factor stays finite.
_MAX_SHIFT = 700.0

#: largest conditioned query coordinate the expansion estimates, and
#: row coordinate whose terms a base caches: log of the float64 max
#: (709.78) less 64 of headroom for the bound's magnitudes (see
#: ``estimable`` and ``cacheable``).
_EXP_LIMIT = float(np.log(np.finfo(float).max)) - 64.0

#: smallest coordinate whose exp stays a normal float64: log of the
#: smallest normal (-708.40) plus 1 of headroom (see ``estimable``).
_EXP_NORMAL = float(np.log(np.finfo(float).tiny)) + 1.0


class ExponentialDistance(DecomposableBregmanDivergence):
    """``D(x, y) = sum(e^x - (x - y + 1) e^y)`` on bounded real vectors."""

    name = "exponential"
    domain = REALS

    def __init__(self, max_abs: float = _DEFAULT_MAX_ABS) -> None:
        self.max_abs = float(max_abs)

    def refinement_conditioner(self, points: np.ndarray) -> RefinementConditioner:
        # Additive shifts rescale the divergence exactly:
        # D(x - s, q - s) = e^{-s} D(x, q) for any scalar s, so evaluating
        # the expansion kernel on shifted inputs and multiplying by e^s
        # recovers the same values.  Subtracting the dataset *max* (the
        # softmax clamp) puts the dominant coordinates near zero: their
        # e^{t - s} factors stay <= 1 (no overflow at any max_abs) and the
        # linear coefficients |t - s| of the cross term shrink from
        # O(max|t|) to O(spread), which is where the raw kernel loses
        # accuracy on offset data.  A per-dimension shift would NOT fold
        # back into one output factor (each dimension would rescale by its
        # own e^{s_j}), hence the scalar.
        points = np.atleast_2d(np.asarray(points, dtype=float))
        shift = min(float(points.max()), _MAX_SHIFT)
        return RefinementConditioner(shift=shift, factor=np.exp(shift))

    def phi(self, t: np.ndarray) -> np.ndarray:
        return np.exp(np.asarray(t, dtype=float))

    def phi_prime(self, t: np.ndarray) -> np.ndarray:
        return np.exp(np.asarray(t, dtype=float))

    def phi_prime_inverse(self, s: np.ndarray) -> np.ndarray:
        # phi' = exp maps R onto (0, inf); inverse is log.
        return np.log(np.asarray(s, dtype=float))

    def validate_domain(self, x: np.ndarray, what: str = "vector") -> None:
        super().validate_domain(x, what)
        x = np.asarray(x, dtype=float)
        if np.any(np.abs(x) > self.max_abs):
            raise DomainError(
                f"{what} has coordinates with |t| > {self.max_abs}; "
                "exponential distance would overflow"
            )

    def divergence(self, x: np.ndarray, y: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        ey = np.exp(y)
        value = float(np.sum(np.exp(x) - (x - y + 1.0) * ey))
        return value if value > 0.0 else 0.0

    def batch_divergence(self, points: np.ndarray, y: np.ndarray) -> np.ndarray:
        # Direct form: well-conditioned (the reference kernel;
        # cross_divergence is the fast expansion).
        points = np.atleast_2d(np.asarray(points, dtype=float))
        y = np.asarray(y, dtype=float)
        ey = np.exp(y)
        values = np.sum(np.exp(points) - (points - y + 1.0) * ey, axis=1)
        return np.maximum(values, 0.0)

    # Expansion sum(e^x - x e^q + (q - 1) e^q): the exponentials move to
    # the per-point term sum(e^x) (the inherited point_terms, phi = exp)
    # and per-query terms; the only per-pair work is the <x, e^q>
    # contraction.
    def query_terms(self, queries: np.ndarray) -> KernelTerms:
        eq = np.exp(queries)
        return eq, np.einsum("bj,bj->b", queries - 1.0, eq)

    def combine(
        self,
        point_terms: KernelTerms,
        query_terms: KernelTerms,
        contraction: np.ndarray,
        dimensionality: int,
    ) -> np.ndarray:
        (sum_ex,) = point_terms
        (qconst,) = query_terms
        values = np.subtract(sum_ex, contraction, out=contraction)
        values += qconst
        return values

    # Bound magnitudes (the bound contract), in the conditioned frame
    # (factor e^s turns them into raw magnitudes: e^x = e^s e^{x~}):
    # * estimate: e^{x~} (A), x~ e^{q~} (||x~|| ||e^{q~}||, H) and
    #   (q~ - 1) e^{q~} (B);
    # * direct kernel: e^{x~} (A) and (x~ - q~ + 1) e^{q~}, which
    #   splits into ||x~|| H and (|q~| + 1) e^{q~} (B);
    # * conditioner: dD/dx~_j = e^{x~_j} - e^{q~_j} times |x~_j| gives
    #   |x~| e^{x~} (A) and ||x~|| H; dD/dq~_j = (q~_j - x~_j) e^{q~_j}
    #   times |q~_j| gives q~^2 e^{q~} (B) and ||x~|| ||q~ e^{q~}|| (H).
    def point_bound_terms(self, points: np.ndarray) -> np.ndarray:
        return np.sum(np.exp(points) * (1.0 + np.abs(points)), axis=1)

    def query_bound_terms(
        self, queries: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        # e^{q~} = e^top e^{q~ - top}, top the row max: the norms' squares
        # stay <= 1 and cannot overflow for any estimable query
        top = np.max(queries, axis=1)
        rel = np.exp(queries - top[:, None])
        abs_q = np.abs(queries)
        weighted = abs_q * rel
        scale = np.exp(top)
        magnitude = np.sum(rel * (1.0 + abs_q + abs_q * abs_q), axis=1)
        norms = np.sqrt(np.einsum("bj,bj->b", rel, rel)) + np.sqrt(
            np.einsum("bj,bj->b", weighted, weighted)
        )
        return scale * magnitude, scale * norms

    def estimable(self, queries: np.ndarray) -> np.ndarray:
        # A query far above the data's shift would overflow e^{q~}.  The
        # test runs before any exp, and keeps e^64 of headroom so the
        # sums of q~^2 e^{q~} in B and ||x~|| H stay finite too.  A query
        # far below it would underflow e^{q~_j}, whose absolute error the
        # contraction then scales by x~_j (up to 2 max_abs) while A may be
        # subnormal: beyond the floor, so the query is refused.  The raw
        # frame is the direct kernel's: there (x - y + 1) scales e^{y_j},
        # which stays normal for every coordinate a cap of at most 707.4
        # admits; a larger cap estimates nothing.
        if self.max_abs > -_EXP_NORMAL:
            return np.zeros(queries.shape[0], dtype=bool)
        return (np.max(queries, axis=1) <= _EXP_LIMIT) & (
            np.min(queries, axis=1) >= _EXP_NORMAL
        )

    def cacheable(self, rows: np.ndarray) -> np.ndarray:
        # A row far above the conditioner's shift would overflow e^{x~}
        # in its cached kernel term and A.  Build conditions with the
        # data max, so only an extend merge's appended rows (conditioned
        # with the old shift) can get here.  Underflow needs no test:
        # the bound's floor covers subnormal row exps.
        return np.max(rows, axis=1) <= _EXP_LIMIT
