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
        return sum_ex - contraction + qconst
