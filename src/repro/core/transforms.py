"""Per-subspace precomputation (paper Algorithms 2-4 at dataset scale).

:class:`SubspaceTransforms` bundles, for every subspace of a
partitioning: the restricted divergence, and the precomputed point
summaries ``(alpha_x, gamma_x)`` for all ``n`` points.  At query time it
produces the ``(B, M)`` query triples and a ``(B, rows, M)`` tensor of
Theorem-1 upper bounds, from which :func:`determine_search_bounds_batch`
(Algorithm 4, ``QBDetermine``) extracts the per-subspace range radii
(:meth:`SubspaceTransforms.search_bounds_batch`).

The tensor need not span all ``n`` points.  Theorem 1's bound sees a
point only through ``(alpha_x, gamma_x)`` and never decreases when
either grows, so a point that ``k`` others dominate in both can never
hold one of a query's ``k`` smallest bounds.  At ``M = 1`` each base
therefore orders its rows once by domination count
(:func:`domination_counts`), and the tensor covers only the rows fewer
than ``k`` others dominate: the k-skyband of the skyline literature
(Borzsonyi, Kossmann and Stocker, ICDE 2001), a few percent of ``n``
and the same for every query.  Its ``k``-th smallest total equals the
full tensor's bit for bit.  At ``M > 1`` dominance would be in ``2M``
dimensions, so no order is built and the tensor spans every row.

Search runs only the batch forms (a single query is ``B = 1``); the
scalar :meth:`SubspaceTransforms.query_triples`,
:meth:`SubspaceTransforms.upper_bound_matrix` and
:func:`determine_search_bounds` are the straightforward one-query
statements of the same algorithms, kept as the reference the batch
forms are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

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
    "domination_counts",
    "pad_radii",
]

#: relative slack added to range radii to absorb floating-point rounding
#: in the bound computation (never excludes a true candidate).
RADIUS_EPS = 1e-9


def pad_radii(radii: np.ndarray) -> np.ndarray:
    """Apply the :data:`RADIUS_EPS` slack to an array of range radii."""
    return radii + RADIUS_EPS * (1.0 + np.abs(radii))


def domination_counts(alpha: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """How many rows dominate each row in ``(alpha, gamma)``.

    Row ``x`` dominates row ``y`` when ``alpha_x <= alpha_y``,
    ``gamma_x <= gamma_y`` and ``(alpha_x, gamma_x, x) < (alpha_y,
    gamma_y, y)`` lexicographically.  The row-id tie-break makes this a
    strict partial order: of ``k + 1`` identical rows the first
    dominates the rest, instead of all of them dominating each other.
    A row with a NaN summary dominates no row, and none dominates it.

    Sorted by ``(alpha, gamma, id)``, every dominator of a row comes
    before it, so its count is the number of earlier rows whose
    ``gamma`` is at most its own: a bottom-up merge count,
    ``O(n log^2 n)`` in vectorized passes.
    """
    alpha = np.asarray(alpha, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    counts = np.zeros(alpha.size, dtype=np.int64)
    ordered = np.flatnonzero(~(np.isnan(alpha) | np.isnan(gamma)))
    # lexsort is stable, so equal (alpha, gamma) pairs keep id order
    order = ordered[np.lexsort((gamma[ordered], alpha[ordered]))]
    # rank of each (gamma, position) pair: distinct, and an earlier row
    # has a smaller rank exactly when its gamma is at most the later one's
    ranks = np.empty(order.size, dtype=np.int64)
    ranks[np.argsort(gamma[order], kind="stable")] = np.arange(order.size)
    counts[order] = _earlier_smaller(ranks)
    return counts


def _earlier_smaller(ranks: np.ndarray) -> np.ndarray:
    """``counts[i] = |{j < i : ranks[j] < ranks[i]}|`` for a permutation.

    Merge sort over positions, bottom up: at each width the positions
    sit in aligned blocks sorted by rank, and merging a left block with
    its right sibling moves each right entry forward by the number of
    left entries of smaller rank, which is that entry's share of its
    count.  Both sides of every pair are merged at once with two
    ``searchsorted`` calls over block-offset keys.  The length is
    padded to a power of two with ranks above every real one, placed
    after every real position, so padding counts toward no real entry.
    """
    m = ranks.size
    size = 1 << max(0, int(m - 1).bit_length())
    rank = np.arange(size, dtype=np.int64)
    rank[:m] = ranks
    counts = np.zeros(size, dtype=np.int64)
    arrangement = np.arange(size, dtype=np.int64)
    width = 1
    while width < size:
        pairs = size // (2 * width)
        blocks = arrangement.reshape(pairs, 2, width)
        left, right = blocks[:, 0, :].ravel(), blocks[:, 1, :].ravel()
        offset = np.repeat(np.arange(pairs, dtype=np.int64) * size, width)
        left_keys = rank[left] + offset
        right_keys = rank[right] + offset
        # entries of the same side in earlier pairs
        earlier = np.repeat(np.arange(pairs, dtype=np.int64) * width, width)
        right_shift = np.searchsorted(left_keys, right_keys)
        left_shift = np.searchsorted(right_keys, left_keys)
        counts[right] += right_shift - earlier
        slot = np.tile(np.arange(width, dtype=np.int64), pairs) + earlier
        arrangement = np.empty(size, dtype=np.int64)
        arrangement[slot + right_shift] = right
        arrangement[slot + left_shift] = left
        width *= 2
    return counts[:m]


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
    """Precomputed tuples ``P(x)`` for every point in every subspace.

    At ``M = 1`` it also keeps the rows ordered by domination count
    (:func:`domination_counts`): ``skyband_rows`` lists the rows by
    ascending count (ties by row id) and ``skyband_counts`` their
    counts, 16 bytes per row.  Both are ``None`` at ``M > 1``.
    """

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
        self._set_summaries(np.stack(alphas, axis=1), np.stack(gammas, axis=1))

    def _set_summaries(self, alpha: np.ndarray, gamma: np.ndarray) -> None:
        """Install the ``(n, M)`` summaries and, at ``M = 1``, their
        domination order (one ``O(n log^2 n)`` count per publish)."""
        #: per-subspace alpha_x, gamma_x as (n, M) matrices.
        self.alpha = alpha
        self.gamma = gamma
        self.n_points = alpha.shape[0]
        self.skyband_rows: Optional[np.ndarray] = None
        self.skyband_counts: Optional[np.ndarray] = None
        if alpha.shape[1] != 1:
            return
        counts = domination_counts(alpha[:, 0], gamma[:, 0])
        self.skyband_rows = np.argsort(counts, kind="stable")
        self.skyband_counts = counts[self.skyband_rows]
        # the extremes a query's totals reach (see _monotone_for)
        self._alpha_floor = float(np.min(alpha, initial=np.inf, where=~np.isnan(alpha)))
        self._gamma_ceiling = float(
            np.max(gamma, initial=-np.inf, where=~np.isnan(gamma))
        )

    def extended(self, new_points: np.ndarray) -> "SubspaceTransforms":
        """A new transforms object with ``new_points`` appended.

        Extend-merge path: only the appended rows' ``(alpha, gamma)``
        summaries are computed; the existing rows (and the per-subspace
        restricted divergences) are shared with the receiver, which is
        never mutated.  Bounds are per-point (Theorem 1 is elementwise in
        the point axis), so the old rows' bounds are bitwise unchanged.
        The domination order is recounted over every row: an appended
        row can dominate old ones.
        """
        new_points = np.atleast_2d(np.asarray(new_points, dtype=float))
        clone = object.__new__(SubspaceTransforms)
        clone.divergence = self.divergence
        clone.partitioning = self.partitioning
        clone.sub_divergences = self.sub_divergences
        alphas = []
        gammas = []
        for sub_div, dims in zip(self.sub_divergences, self.partitioning.subspaces):
            alpha, gamma = bd.transform_points(sub_div, new_points[:, dims])
            alphas.append(alpha)
            gammas.append(gamma)
        clone._set_summaries(
            np.concatenate([self.alpha, np.stack(alphas, axis=1)]),
            np.concatenate([self.gamma, np.stack(gammas, axis=1)]),
        )
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

    def upper_bound_tensor(
        self, triples: bd.QueryTripleBatch, rows: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Theorem 1 bounds for every (query, point, subspace): ``(B, n, M)``,
        or ``(B, len(rows), M)`` over the given rows only.

        One broadcasted pass replaces ``B`` calls to
        :meth:`upper_bound_matrix`; the additions follow the same
        left-to-right order as :func:`repro.geometry.bounds.batch_upper_bounds`
        so batch and single-query bounds agree.  Each entry depends on
        its own row alone, so a row's bounds are the same bits in any
        row subset.
        """
        alpha = self.alpha if rows is None else self.alpha[rows]
        gamma = self.gamma if rows is None else self.gamma[rows]
        alpha_q = triples.alpha[:, None, :]
        beta_q = triples.beta_yy[:, None, :]
        delta_q = triples.delta[:, None, :]
        return (
            alpha[None, :, :]
            + alpha_q
            + beta_q
            + np.sqrt(np.maximum(gamma[None, :, :] * delta_q, 0.0))
        )

    def bound_rows(
        self, triples: bd.QueryTripleBatch, k: int
    ) -> Optional[np.ndarray]:
        """The rows whose bounds hold every query's ``k`` smallest totals.

        At ``M = 1``: the rows fewer than ``k`` others dominate (the
        k-skyband), a prefix of ``skyband_rows``.  ``None`` (every row)
        at ``M > 1``, or when a query's totals could break the order.

        Why the prefix is exact.  When ``x`` dominates ``y``, every
        query's bound of ``x`` is at most its bound of ``y``, also in
        floating point: rounded ``+``, ``sqrt`` and ``*`` by
        ``delta_q >= 0`` are monotone (:meth:`_monotone_for` names the
        one exception, NaN from infinities).  Take a row ``y`` outside
        the prefix, and of ``y`` and its dominators outside the prefix
        one with the fewest dominators.  It has at least ``k``; each
        has fewer dominators than it, so lies inside the prefix, and
        each dominates ``y``.  So at least ``k`` prefix rows bound no
        higher than ``y``, and the ``k``-th smallest total over the
        prefix is the ``k``-th smallest over all rows.  The prefix
        holds at least ``k`` rows: the first ``k`` of any linear
        extension of the order do.
        """
        if self.skyband_rows is None or not self._monotone_for(triples):
            return None
        return self.skyband_rows[: np.searchsorted(self.skyband_counts, k)]

    def _monotone_for(self, triples: bd.QueryTripleBatch) -> bool:
        """Whether every query's bound is monotone in the order (M = 1).

        Rounding keeps ``alpha_x + alpha_q + beta_q + sqrt(gamma_x
        delta_q)`` monotone in ``(alpha_x, gamma_x)`` unless a NaN
        appears: it can for a non-finite or negative query term, or
        when some row's partial sum reaches ``-inf`` while some row's
        root reaches ``+inf`` (then a dominating row's NaN would sort
        after a dominated row's ``inf``).  Both sums are monotone, so
        the extremes over the base decide; the check only classifies
        the batch, hence the local ``errstate``.  NaN from
        ``inf * 0`` is harmless: a row with ``gamma = inf`` dominates
        only rows with ``gamma = inf``.
        """
        alpha_q, beta_q, delta_q = triples.alpha, triples.beta_yy, triples.delta
        if not (
            np.isfinite(alpha_q).all()
            and np.isfinite(beta_q).all()
            and np.isfinite(delta_q).all()
            and (delta_q >= 0.0).all()
        ):
            return False
        with np.errstate(over="ignore", invalid="ignore"):
            floor = (self._alpha_floor + alpha_q) + beta_q
            root = np.sqrt(np.maximum(self._gamma_ceiling * delta_q, 0.0))
        return not np.any((floor == -np.inf) & (root == np.inf))

    def search_bounds_batch(
        self, triples: bd.QueryTripleBatch, k: int
    ) -> "SearchBoundsBatch":
        """Algorithm 4 over :meth:`bound_rows`: the radii and totals of
        the full ``(B, n, M)`` tensor, bit for bit, with anchor ids
        mapped back to base rows.

        At ``M = 1`` each radius is its total.  The anchor is the full
        tensor's whenever one row reaches the ``k``-th total; when
        several do, it is one of them (ties sit wherever
        ``argpartition`` puts them), and if they share one ``(alpha,
        gamma)`` pair -- duplicate rows -- so does the anchor, which is
        all the approximate extension's radius hook reads.
        """
        rows = self.bound_rows(triples, k)
        ub_tensor = self.upper_bound_tensor(triples, rows)
        bounds = determine_search_bounds_batch(ub_tensor, k)
        if rows is not None:
            bounds.anchor_ids = rows[bounds.anchor_ids]
        return bounds


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
