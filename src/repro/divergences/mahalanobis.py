"""Squared Mahalanobis distance as a Bregman divergence.

The paper's first example (Section 3.1): with ``f(x) = 1/2 x^T Q x`` for a
symmetric positive-definite ``Q``,

    D_f(x, y) = 1/2 (x - y)^T Q (x - y).

Two flavours are provided:

* :class:`DiagonalMahalanobis` -- ``Q`` diagonal.  The generator is
  separable, so the divergence is decomposable and works with
  BrePartition's dimensionality partitioning (weights are sliced along
  with the dimensions).
* :class:`MahalanobisDivergence` -- full-matrix ``Q``.  Cross-dimension
  terms make the generator non-separable, so this divergence refuses
  partitioning (``restrict`` raises :class:`NotDecomposableError`) but is
  usable with the linear-scan and BB-tree baselines.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from ..exceptions import InvalidParameterError
from .base import (
    REALS,
    BregmanDivergence,
    DecomposableBregmanDivergence,
    KernelTerms,
    RefinementConditioner,
)

__all__ = ["DiagonalMahalanobis", "MahalanobisDivergence"]


class DiagonalMahalanobis(DecomposableBregmanDivergence):
    """Separable Mahalanobis: ``D(x, y) = 1/2 sum_j w_j (x_j - y_j)^2``.

    Parameters
    ----------
    weights:
        Strictly positive per-dimension weights (the diagonal of ``Q``).
    """

    name = "diagonal_mahalanobis"
    domain = REALS

    def refinement_conditioner(self, points: np.ndarray) -> RefinementConditioner:
        # Translation invariance: centring on the dataset mean removes
        # the expansion kernel's large-magnitude cancellation exactly.
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return RefinementConditioner(shift=points.mean(axis=0))

    def __init__(self, weights: np.ndarray) -> None:
        weights = np.asarray(weights, dtype=float)
        if weights.ndim != 1 or weights.size == 0:
            raise InvalidParameterError("weights must be a non-empty 1-D array")
        if np.any(weights <= 0.0) or not np.all(np.isfinite(weights)):
            raise InvalidParameterError("weights must be strictly positive and finite")
        self.weights = weights

    def phi(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return 0.5 * self.weights * t * t

    def phi_prime(self, t: np.ndarray) -> np.ndarray:
        return self.weights * np.asarray(t, dtype=float)

    def phi_prime_inverse(self, s: np.ndarray) -> np.ndarray:
        return np.asarray(s, dtype=float) / self.weights

    def restrict(self, dims: Sequence[int]) -> "DiagonalMahalanobis":
        """Slice the weight vector along with the dimension subset."""
        return DiagonalMahalanobis(self.weights[np.asarray(dims, dtype=int)])

    def divergence(self, x: np.ndarray, y: np.ndarray) -> float:
        diff = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
        return float(0.5 * np.dot(self.weights, diff * diff))

    def batch_divergence(self, points: np.ndarray, y: np.ndarray) -> np.ndarray:
        # Direct diff form: well-conditioned at any magnitude (the
        # reference kernel; cross_divergence is the fast expansion).
        # einsum's fixed summation order keeps each row's value bitwise
        # independent of how many rows are scored together (a BLAS
        # matvec may switch accumulation patterns with the row count),
        # so rerank buffers agree with full-scan oracles bit for bit.
        points = np.atleast_2d(np.asarray(points, dtype=float))
        diff = points - np.asarray(y, dtype=float)
        return 0.5 * np.einsum("ij,ij,j->i", diff, diff, self.weights)

    # Expansion 1/2 (x^T W x - 2<x, W q> + q^T W q).
    def point_terms(self, points: np.ndarray) -> KernelTerms:
        return (np.einsum("nj,nj,j->n", points, points, self.weights),)

    def query_terms(self, queries: np.ndarray) -> KernelTerms:
        return (
            self.weights * queries,
            np.einsum("bj,bj,j->b", queries, queries, self.weights),
        )

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
        contraction *= 0.5
        return contraction

    # Bound magnitudes (the bound contract), conditioned frame, factor 1:
    # * estimate: 1/2 x~^T W x~ (A), <x~, W q~> (||x~|| H) and
    #   1/2 q~^T W q~ (B);
    # * direct kernel: 1/2 sum w_j (x_j - q_j)^2 <= A + B;
    # * conditioner: dD/dx~_j = w_j (x~_j - q~_j) times |x~_j|, and
    #   dD/dq~_j = w_j (q~_j - x~_j) times |q~_j|, together at most
    #   A + B + 2 ||x~|| H.
    def point_bound_terms(self, points: np.ndarray) -> np.ndarray:
        return np.einsum("nj,nj,j->n", points, points, self.weights)

    def query_bound_terms(
        self, queries: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        weighted = self.weights * queries
        return (
            np.einsum("bj,bj->b", weighted, queries),
            np.sqrt(np.einsum("bj,bj->b", weighted, weighted)),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DiagonalMahalanobis(d={self.weights.size})"


class MahalanobisDivergence(BregmanDivergence):
    """Full-matrix Mahalanobis: ``D(x, y) = 1/2 (x - y)^T Q (x - y)``.

    Not decomposable; included for baseline completeness and to exercise
    the library's rejection path for non-separable generators.
    """

    name = "mahalanobis"
    domain = REALS
    supports_partitioning = False

    def refinement_conditioner(self, points: np.ndarray) -> RefinementConditioner:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return RefinementConditioner(shift=points.mean(axis=0))

    def __init__(self, matrix: np.ndarray) -> None:
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise InvalidParameterError("matrix must be square")
        if not np.allclose(matrix, matrix.T, atol=1e-10):
            raise InvalidParameterError("matrix must be symmetric")
        eigvals = np.linalg.eigvalsh(matrix)
        if np.any(eigvals <= 0.0):
            raise InvalidParameterError("matrix must be positive definite")
        self.matrix = matrix

    def generator(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        return float(0.5 * x @ self.matrix @ x)

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return np.einsum("ij,j->i", self.matrix, np.asarray(x, dtype=float))

    def divergence(self, x: np.ndarray, y: np.ndarray) -> float:
        diff = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
        return float(0.5 * diff @ self.matrix @ diff)

    def batch_divergence(self, points: np.ndarray, y: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        diff = points - np.asarray(y, dtype=float)
        return 0.5 * np.einsum("ij,jk,ik->i", diff, self.matrix, diff)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MahalanobisDivergence(d={self.matrix.shape[0]})"
