"""Squared Euclidean distance as a Bregman divergence (``phi(t) = t^2``).

With generator ``f(x) = sum_j x_j^2`` the Bregman divergence is

    D_f(x, y) = sum_j (x_j - y_j)^2 = ||x - y||^2

the squared Euclidean distance, i.e. the diagonal-identity special case of
the squared Mahalanobis distance from Section 3.1 of the paper.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .base import (
    REALS,
    DecomposableBregmanDivergence,
    KernelTerms,
    RefinementConditioner,
)

__all__ = ["SquaredEuclidean"]


class SquaredEuclidean(DecomposableBregmanDivergence):
    """``D_f(x, y) = ||x - y||^2`` -- the metric sanity-check divergence."""

    name = "squared_euclidean"
    domain = REALS

    def refinement_conditioner(self, points: np.ndarray) -> RefinementConditioner:
        # Translation invariance: centring on the dataset mean removes
        # the expansion kernel's large-magnitude cancellation exactly.
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return RefinementConditioner(shift=points.mean(axis=0))

    def phi(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return t * t

    def phi_prime(self, t: np.ndarray) -> np.ndarray:
        return 2.0 * np.asarray(t, dtype=float)

    def phi_prime_inverse(self, s: np.ndarray) -> np.ndarray:
        return np.asarray(s, dtype=float) / 2.0

    def divergence(self, x: np.ndarray, y: np.ndarray) -> float:
        # Direct formula: cheaper and exactly non-negative.
        diff = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
        return float(np.dot(diff, diff))

    def batch_divergence(self, points: np.ndarray, y: np.ndarray) -> np.ndarray:
        # Direct diff form: well-conditioned at any magnitude (the
        # reference kernel; cross_divergence is the fast expansion).
        points = np.atleast_2d(np.asarray(points, dtype=float))
        diff = points - np.asarray(y, dtype=float)
        return np.einsum("ij,ij->i", diff, diff)

    # Expansion ||x||^2 - 2<x, q> + ||q||^2.
    def point_terms(self, points: np.ndarray) -> KernelTerms:
        return (np.einsum("nj,nj->n", points, points),)

    def query_terms(self, queries: np.ndarray) -> KernelTerms:
        return queries, np.einsum("bj,bj->b", queries, queries)

    def combine(
        self,
        point_terms: KernelTerms,
        query_terms: KernelTerms,
        contraction: np.ndarray,
        dimensionality: int,
    ) -> np.ndarray:
        (xx,) = point_terms
        (qq,) = query_terms
        contraction *= -2.0
        contraction += xx
        contraction += qq
        return contraction

    # Bound magnitudes (the bound contract), conditioned frame, factor 1:
    # * estimate: ||x~||^2 (A), 2<x~, q~> (||x~|| H) and ||q~||^2 (B);
    # * direct kernel: sum (x_j - q_j)^2 <= 2 (A + B), since the raw
    #   difference is the conditioned one up to the conditioner's
    #   rounding;
    # * conditioner: dD/dx~_j = 2 (x~_j - q~_j) times |x~_j|, and
    #   dD/dq~_j = 2 (q~_j - x~_j) times |q~_j|, together at most
    #   2 (A + B) + 2 ||x~|| H.
    def point_bound_terms(self, points: np.ndarray) -> np.ndarray:
        return np.einsum("nj,nj->n", points, points)

    def query_bound_terms(
        self, queries: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        qq = np.einsum("bj,bj->b", queries, queries)
        return qq, 2.0 * np.sqrt(qq)
