"""Kullback-Leibler style divergences (negative-Shannon-entropy generator).

Two variants:

* :class:`GeneralizedKL` -- generator ``phi(t) = t log t - t`` on the
  positive orthant, giving

      D(x, y) = sum_j ( x_j log(x_j / y_j) - x_j + y_j ).

  This unnormalised (a.k.a. generalized / I-divergence) form is separable
  and therefore decomposable: it works with BrePartition.

* :class:`SimplexKL` -- the classic KL divergence restricted to the
  probability simplex.  Subvectors of simplex-normalised data are not
  themselves simplex-distributed, so the divergence is *not* cumulative
  under dimensionality partitioning; the paper (Section 3.1) explicitly
  excludes it.  ``supports_partitioning`` is ``False`` and ``restrict``
  raises, which the core index uses to reject it early.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from ..exceptions import DomainError, NotDecomposableError
from .base import (
    POSITIVE_REALS,
    DecomposableBregmanDivergence,
    KernelTerms,
    RefinementConditioner,
)

__all__ = ["GeneralizedKL", "SimplexKL"]


class GeneralizedKL(DecomposableBregmanDivergence):
    """Unnormalised KL: ``D(x, y) = sum(x log(x/y) - x + y)``, x, y > 0."""

    name = "generalized_kl"
    domain = POSITIVE_REALS

    def refinement_conditioner(self, points: np.ndarray) -> RefinementConditioner:
        # D is 1-homogeneous (D(x/c, y/c) = D(x, y) / c): evaluating the
        # expansion kernel near unit scale and multiplying back by c
        # keeps its x*log(x) sums small on large-magnitude data.
        points = np.atleast_2d(np.asarray(points, dtype=float))
        c = float(points.mean())
        return RefinementConditioner(scale=c, factor=c)

    def phi(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return t * np.log(t) - t

    def phi_prime(self, t: np.ndarray) -> np.ndarray:
        return np.log(np.asarray(t, dtype=float))

    def phi_prime_inverse(self, s: np.ndarray) -> np.ndarray:
        return np.exp(np.asarray(s, dtype=float))

    def divergence(self, x: np.ndarray, y: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        value = float(np.sum(x * np.log(x / y) - x + y))
        return value if value > 0.0 else 0.0

    def batch_divergence(self, points: np.ndarray, y: np.ndarray) -> np.ndarray:
        # Direct ratio form: well-conditioned (the reference kernel;
        # cross_divergence is the fast expansion).
        points = np.atleast_2d(np.asarray(points, dtype=float))
        y = np.asarray(y, dtype=float)
        values = np.sum(points * np.log(points / y) - points + y, axis=1)
        return np.maximum(values, 0.0)

    # Expansion sum(x log x - x log q - x + q): the logs move to
    # per-point / per-query terms; the only per-pair work is the
    # <x, log q> contraction.
    def point_terms(self, points: np.ndarray) -> KernelTerms:
        return np.sum(points * np.log(points), axis=1), np.sum(points, axis=1)

    def query_terms(self, queries: np.ndarray) -> KernelTerms:
        return np.log(queries), np.sum(queries, axis=1)

    def combine(
        self,
        point_terms: KernelTerms,
        query_terms: KernelTerms,
        contraction: np.ndarray,
        dimensionality: int,
    ) -> np.ndarray:
        xlogx, sum_x = point_terms
        (sum_q,) = query_terms
        values = np.subtract(xlogx, contraction, out=contraction)
        values -= sum_x
        values += sum_q
        return values

    # Bound magnitudes (the bound contract), in units of the scale c
    # (the output factor): D(x, q) = c D(x~, q~) with x~ = x / c.
    # * estimate: x~ |log x~| and x~ (A), <x~, log q~> (||x~|| H) and
    #   q~ (B);
    # * direct kernel: x (log r) - x + q per coordinate, r = x / q: the
    #   rounding of r moves log r by one ulp absolute, so x~ (A), and
    #   x~ |log r| <= x~ |log x~| + x~ |log q~| (A, ||x~|| H), and q~ (B);
    # * conditioner: dD/dx~_j = log x~_j - log q~_j times x~_j (A and
    #   ||x~|| H), dD/dq~_j = 1 - x~_j/q~_j times q~_j (x~_j + q~_j: A, B).
    def point_bound_terms(self, points: np.ndarray) -> np.ndarray:
        return np.sum(points * (1.0 + np.abs(np.log(points))), axis=1)

    def query_bound_terms(
        self, queries: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        log_q = np.log(queries)
        return np.sum(queries, axis=1), np.sqrt(np.einsum("bj,bj->b", log_q, log_q))


class SimplexKL(GeneralizedKL):
    """KL divergence on the probability simplex (not partitionable).

    On the simplex the ``- x + y`` terms cancel, recovering the familiar
    ``sum x log(x/y)``.  Partitioning is rejected per paper Section 3.1.
    """

    name = "simplex_kl"
    supports_partitioning = False

    def validate_domain(self, x: np.ndarray, what: str = "vector") -> None:
        super().validate_domain(x, what)
        total = float(np.sum(np.asarray(x, dtype=float)))
        if abs(total - 1.0) > 1e-6:
            raise DomainError(f"{what} must lie on the probability simplex (sum={total:.6f})")

    def restrict(self, dims: Sequence[int]) -> "GeneralizedKL":
        raise NotDecomposableError(
            "simplex-constrained KL divergence is not cumulative under "
            "dimensionality partitioning (paper Section 3.1)"
        )
