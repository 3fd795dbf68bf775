"""Per-subspace precomputation (paper Algorithms 2-4 at dataset scale).

:class:`SubspaceTransforms` bundles, for every subspace of a
partitioning: the restricted divergence, and the precomputed point
summaries ``(alpha_x, gamma_x)`` for all ``n`` points.  At query time it
produces the ``(B, M)`` query triples and the ``(B, n, M)`` tensor of
Theorem-1 upper bounds, from which :func:`determine_search_bounds_batch`
(Algorithm 4, ``QBDetermine``) extracts the per-subspace range radii.
Search runs only the batch forms (a single query is ``B = 1``); the
scalar :meth:`SubspaceTransforms.query_triples`,
:meth:`SubspaceTransforms.upper_bound_matrix` and
:func:`determine_search_bounds` are the straightforward one-query
statements of the same algorithms, kept as the reference the batch
forms are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..divergences.base import DecomposableBregmanDivergence
from ..exceptions import InvalidParameterError
from ..geometry import bounds as bd
from ..partitioning.scheme import Partitioning

__all__ = [
    "RADIUS_EPS",
    "SubspaceTransforms",
    "SearchBounds",
    "SearchBoundsBatch",
    "determine_search_bounds",
    "determine_search_bounds_batch",
    "pad_radii",
]

#: relative slack added to range radii to absorb floating-point rounding
#: in the bound computation (never excludes a true candidate).
RADIUS_EPS = 1e-9


def pad_radii(radii: np.ndarray) -> np.ndarray:
    """Apply the :data:`RADIUS_EPS` slack to an array of range radii."""
    return radii + RADIUS_EPS * (1.0 + np.abs(radii))


@dataclass
class SearchBounds:
    """Output of Algorithm 4: the per-subspace searching radii.

    ``radii[i]`` is the i-th subspace's range-query radius (the
    components of the k-th smallest total upper bound); ``total`` is
    their sum, and ``anchor_id`` the point whose bound was selected.
    """

    radii: np.ndarray
    total: float
    anchor_id: int


@dataclass
class SearchBoundsBatch:
    """Per-query searching radii for a whole batch.

    ``radii[b, i]`` is query ``b``'s range radius in subspace ``i``;
    ``totals[b]`` and ``anchor_ids[b]`` are the batch analogues of
    :attr:`SearchBounds.total` and :attr:`SearchBounds.anchor_id`.
    """

    radii: np.ndarray
    totals: np.ndarray
    anchor_ids: np.ndarray


class SubspaceTransforms:
    """Precomputed tuples ``P(x)`` for every point in every subspace."""

    def __init__(
        self,
        divergence: DecomposableBregmanDivergence,
        partitioning: Partitioning,
        points: np.ndarray,
    ) -> None:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        self.divergence = divergence
        self.partitioning = partitioning
        self.n_points = points.shape[0]
        self.sub_divergences: List[DecomposableBregmanDivergence] = []
        alphas = []
        gammas = []
        for dims in partitioning.subspaces:
            sub_div = divergence.restrict(dims)
            self.sub_divergences.append(sub_div)
            alpha, gamma = bd.transform_points(sub_div, points[:, dims])
            alphas.append(alpha)
            gammas.append(gamma)
        #: per-subspace alpha_x, gamma_x as (n, M) matrices.
        self.alpha = np.stack(alphas, axis=1)
        self.gamma = np.stack(gammas, axis=1)

    def extended(self, new_points: np.ndarray) -> "SubspaceTransforms":
        """A new transforms object with ``new_points`` appended.

        Extend-merge path: only the appended rows' ``(alpha, gamma)``
        summaries are computed; the existing rows (and the per-subspace
        restricted divergences) are shared with the receiver, which is
        never mutated.  Bounds are per-point (Theorem 1 is elementwise in
        the point axis), so the old rows' bounds are bitwise unchanged.
        """
        new_points = np.atleast_2d(np.asarray(new_points, dtype=float))
        clone = object.__new__(SubspaceTransforms)
        clone.divergence = self.divergence
        clone.partitioning = self.partitioning
        clone.sub_divergences = self.sub_divergences
        clone.n_points = self.n_points + new_points.shape[0]
        alphas = []
        gammas = []
        for sub_div, dims in zip(self.sub_divergences, self.partitioning.subspaces):
            alpha, gamma = bd.transform_points(sub_div, new_points[:, dims])
            alphas.append(alpha)
            gammas.append(gamma)
        clone.alpha = np.concatenate([self.alpha, np.stack(alphas, axis=1)])
        clone.gamma = np.concatenate([self.gamma, np.stack(gammas, axis=1)])
        return clone

    def query_triples(self, query: np.ndarray) -> List[bd.QueryTriple]:
        """Algorithm 3: the M per-subspace query triples."""
        sub_queries = self.partitioning.split(query)
        return [
            bd.transform_query(sub_div, sub_query)
            for sub_div, sub_query in zip(self.sub_divergences, sub_queries)
        ]

    def upper_bound_matrix(self, triples: List[bd.QueryTriple]) -> np.ndarray:
        """Theorem 1 bounds for every (point, subspace) pair: shape (n, M)."""
        columns = [
            bd.batch_upper_bounds(self.alpha[:, i], self.gamma[:, i], triple)
            for i, triple in enumerate(triples)
        ]
        return np.stack(columns, axis=1)

    def query_triples_batch(self, queries: np.ndarray) -> bd.QueryTripleBatch:
        """Vectorised Algorithm 3 for a query batch: ``(B, M)`` arrays."""
        queries = np.atleast_2d(np.asarray(queries, dtype=float))
        sub_matrices = self.partitioning.split_matrix(queries)
        per_sub = [
            bd.transform_queries(sub_div, sub_mat)
            for sub_div, sub_mat in zip(self.sub_divergences, sub_matrices)
        ]
        return bd.QueryTripleBatch(
            alpha=np.stack([t.alpha for t in per_sub], axis=1),
            beta_yy=np.stack([t.beta_yy for t in per_sub], axis=1),
            delta=np.stack([t.delta for t in per_sub], axis=1),
        )

    def upper_bound_tensor(self, triples: bd.QueryTripleBatch) -> np.ndarray:
        """Theorem 1 bounds for every (query, point, subspace): ``(B, n, M)``.

        One broadcasted pass replaces ``B`` calls to
        :meth:`upper_bound_matrix`; the additions follow the same
        left-to-right order as :func:`repro.geometry.bounds.batch_upper_bounds`
        so batch and single-query bounds agree.
        """
        alpha_q = triples.alpha[:, None, :]
        beta_q = triples.beta_yy[:, None, :]
        delta_q = triples.delta[:, None, :]
        return (
            self.alpha[None, :, :]
            + alpha_q
            + beta_q
            + np.sqrt(np.maximum(self.gamma[None, :, :] * delta_q, 0.0))
        )


def determine_search_bounds(ub_matrix: np.ndarray, k: int) -> SearchBounds:
    """Algorithm 4 (``QBDetermine``): pick the k-th smallest total bound.

    The selected point's per-subspace components become the subspace
    range radii; Theorem 3 guarantees the union of the corresponding
    range results contains the exact kNN.
    """
    n = ub_matrix.shape[0]
    if not 1 <= k <= n:
        raise InvalidParameterError(f"k must be in [1, {n}], got {k}")
    totals = ub_matrix.sum(axis=1)
    # Index of the k-th smallest total without a full sort.
    smallest_k = np.argpartition(totals, k - 1)[:k]
    anchor = int(smallest_k[np.argmax(totals[smallest_k])])
    return SearchBounds(
        radii=ub_matrix[anchor].copy(),
        total=float(totals[anchor]),
        anchor_id=anchor,
    )


def determine_search_bounds_batch(ub_tensor: np.ndarray, k: int) -> SearchBoundsBatch:
    """Algorithm 4 for a whole batch with a single partition pass.

    ``ub_tensor`` has shape ``(B, n, M)``; the k-th smallest total bound
    of every query is located by one ``np.argpartition`` call over the
    ``(B, n)`` totals matrix.
    """
    if ub_tensor.ndim != 3:
        raise InvalidParameterError("ub_tensor must have shape (B, n, M)")
    b, n, _ = ub_tensor.shape
    if not 1 <= k <= n:
        raise InvalidParameterError(f"k must be in [1, {n}], got {k}")
    totals = ub_tensor.sum(axis=2)
    smallest_k = np.argpartition(totals, k - 1, axis=1)[:, :k]
    rows = np.arange(b)
    anchors = smallest_k[rows, np.argmax(totals[rows[:, None], smallest_k], axis=1)]
    return SearchBoundsBatch(
        radii=ub_tensor[rows, anchors, :].copy(),
        totals=totals[rows, anchors],
        anchor_ids=anchors,
    )
