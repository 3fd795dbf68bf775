"""Refine stage: certified estimates of every (candidate, query) pair.

The stage estimates each pair's divergence with the divergence's
expansion terms and pairs it with a proved bound ``E`` on the gap to the
direct kernel's computed value (the bound contract on
:class:`~repro.divergences.base.DecomposableBregmanDivergence`).  Rerank
reads both: only the rows the bound cannot rule out reach the direct
kernel, so the estimates' bits never reach a result and the contraction
may run through BLAS in any summation order.

The stage reads the union's rows from the snapshot's pinned frozen base
(``snap.base.points``; Fetch copies nothing) in :func:`refinement_block`
row blocks, gathering only when the union is not every frozen row,
conditions each block, and takes the rows' query-independent terms from
the base, which computed them once (``base.row_terms``: the kernel's
``point_terms`` and the bound's ``A`` and ``||x~||`` per row).  A batch
pays only per-query and per-pair work: one BLAS product
``operand @ rows.T`` per block, stored query-major as the ``(B, union)``
matrix ``ctx.estimates``, so each query's estimates are one contiguous
row; a single search is the same run at ``B = 1``.  ``ctx.bound_of``
forms their bounds.  A query the divergence cannot estimate without
overflow (``estimable``) gets NaN estimates and bounds, so every
candidate of it reaches the direct kernel.

Why one kernel.  The matrix estimates every cell of the union-by-batch
matrix, although only a query's own candidates are real pairs.  A
sparse kernel that estimated only the real pairs (per-query gathers
and a fixed-order contraction, last in commit 0f9f3e2) beat it only
below a mean per-query candidate density, ``mean(|candidates_q|) /
|union|``, of about 0.03 (fonts proxy, d=400, Pareto-skewed candidates,
B=64, one BLAS thread; this kernel against the sparse one, 8.9 against
9.1 ms at 0.031 and 15.4 against 10.7 ms at 0.025).  The union is never
larger than the sum of the candidate sets, so the density is at least
``1 / B``, and only a batch of 34 or more queries can fall below 0.03.
On the benchmark's ``serve``, ``mutate`` and ``batch`` shapes (seed 11,
B from 1 to 128) no batch came near it: the lowest density was 0.31
(ABP at p = 0.9, which filters points, at B = 8), the exact index's
0.50, and the exact index covered every batch of 32 or more queries
(density 1).  Restoring the sparse kernel could pay only where
uncovered batches of 34 or more queries reach a density below ~0.03.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..divergences.base import RowTerms, error_scale
from .base import PipelineStage
from .context import QueryBatchContext

__all__ = [
    "ErrorBound",
    "RefineStage",
    "certified_scores",
    "error_bound",
    "refinement_block",
]

#: float64 elements one blocked-kernel call may materialise: the larger
#: of its ``(block, d)`` conditioned rows and ``(B, block)`` output
#: stays near 2^20 (~8MB), cache-friendly without paying per-block
#: dispatch for tiny slices.
_BLOCK_BUDGET_ELEMENTS = 1 << 20

#: sentinel for "use the index's live conditioner" (``None`` is a valid
#: explicit value meaning "no conditioning").
_UNSET = object()


def refinement_block(n_queries: int, dimensionality: int) -> int:
    """Union rows scored per blocked-kernel call."""
    return max(1, _BLOCK_BUDGET_ELEMENTS // max(1, n_queries, dimensionality))


class ErrorBound:
    """The certified bound ``E = scale (A + B + ||x~|| H) + floor`` of
    one batch's estimates (the bound contract on
    :class:`~repro.divergences.base.DecomposableBregmanDivergence`).

    ``bound(q, rows)`` is query ``q``'s ``E`` over union rows ``rows``,
    formed on demand from the union's cached row terms (``A``,
    ``||x~||``) and the batch's query terms (``B``, ``H``, with the
    floor folded into ``B``'s share), so no second ``(B, union)``
    matrix exists.  The rounding of assembling ``E`` is inside its
    margin.
    """

    __slots__ = ("row_bound", "row_norm", "query_bound", "query_norm", "_row_max")

    def __init__(
        self, row_terms: RowTerms, query_bound, query_norm, scale: float, floor: float
    ):
        self.row_bound = scale * row_terms.bound
        self.row_norm = scale * row_terms.norm
        self.query_bound = scale * query_bound + floor
        self.query_norm = query_norm
        self._row_max = None

    def __call__(self, q: int, rows) -> np.ndarray:
        bound = self.row_norm[rows] * self.query_norm[q]
        bound += self.row_bound[rows]
        bound += self.query_bound[q]
        return bound

    def matrix(self, queries: np.ndarray, rows) -> np.ndarray:
        """``(len(queries), rows)`` bounds of several queries over shared
        union rows, each entry the one ``self(q, rows)`` gives."""
        bound = np.multiply.outer(self.query_norm[queries], self.row_norm[rows])
        bound += self.row_bound[rows]
        bound += self.query_bound[queries][:, None]
        return bound

    def largest(self, queries: np.ndarray) -> np.ndarray:
        """Each query's largest bound over every union row: at least each
        entry of ``self(q, rows)``, since it rounds the same operations on
        the largest row terms and rounding is monotone."""
        if self._row_max is None:
            self._row_max = (self.row_norm.max(), self.row_bound.max())
        row_norm, row_bound = self._row_max
        bound = row_norm * self.query_norm[queries]
        bound += row_bound
        bound += self.query_bound[queries]
        return bound


def _conditioned(conditioner, rows: np.ndarray, out=None) -> np.ndarray:
    return rows if conditioner is None else conditioner.transform(rows, out=out)


def error_bound(divergence, row_terms: RowTerms, queries, ok, factor) -> ErrorBound:
    """The certified bounds of estimates over the rows of ``row_terms``
    against the conditioned ``queries``; NaN for a query ``ok`` refuses."""
    query_bound = np.full(queries.shape[0], np.nan)
    query_norm = np.full(queries.shape[0], np.nan)
    if ok.any():
        query_bound[ok], query_norm[ok] = divergence.query_bound_terms(queries[ok])
    return ErrorBound(
        row_terms, query_bound, query_norm, *error_scale(factor, queries.shape[1])
    )


def certified_scores(
    divergence, vectors: np.ndarray, queries: np.ndarray, conditioner, row_terms=None
) -> Tuple[np.ndarray, np.ndarray]:
    """``(estimates, bounds)``, both ``(n, B)``, of raw ``vectors``
    against raw ``queries``.

    The estimates are the divergence's fixed-order
    :meth:`cross_divergence` over the rows and queries conditioned by
    ``conditioner`` (its output factor folded back in), so their bits
    depend on no BLAS; the bounds are the certified ``E``.
    ``row_terms`` are the conditioned rows' cached terms (a base's
    ``row_terms.take(rows)``), computed fresh when ``None``.  A query
    the divergence cannot estimate gets NaN in both.
    """
    factor = 1.0 if conditioner is None else conditioner.factor
    rows = _conditioned(conditioner, vectors)
    queries = _conditioned(conditioner, queries)
    ok = divergence.estimable(queries)
    if row_terms is None:
        row_terms = divergence.row_terms(rows)
    estimates = np.full((rows.shape[0], queries.shape[0]), np.nan)
    estimates[:, ok] = (
        divergence.cross_divergence(rows, queries[ok], point_terms=row_terms.kernel)
        * factor
    )
    bound_of = error_bound(divergence, row_terms, queries, ok, factor)
    bounds = np.stack(
        [bound_of(q, slice(None)) for q in range(queries.shape[0])], axis=1
    )
    return estimates, bounds


class RefineStage(PipelineStage):
    name = "refine"

    def run(self, ctx: QueryBatchContext) -> None:
        ctx.estimates = None
        if ctx.union is None or ctx.union.size == 0 or ctx.n_queries == 0:
            ctx.refine_kernel = None
            return
        ctx.refine_kernel = "dense"
        ctx.refine_backend = "serial"
        # the pinned base: a merge republishing the index mid-flight
        # can't swap its rows, terms or conditioner under us
        base = ctx.snapshot.base
        union = ctx.union
        conditioner = base.refine_conditioner
        factor = 1.0 if conditioner is None else conditioner.factor
        queries = _conditioned(conditioner, ctx.queries)
        ok = self.index.divergence.estimable(queries)
        # a sorted unique union as long as the file is every frozen row:
        # read the base in place, no gather
        whole = union.size == base.n_frozen
        # the union's cached row terms, aligned with its positions
        row_terms = base.row_terms if whole else base.row_terms.take(union)
        ctx.bound_of = error_bound(self.index.divergence, row_terms, queries, ok, factor)
        ctx.estimates = self._estimate_dense(
            ctx, base, whole, row_terms, queries, ok, factor
        )

    def _estimate_dense(
        self, ctx, base, whole, row_terms, queries, ok, factor
    ) -> np.ndarray:
        """The ``(B, union)`` estimate matrix, one BLAS product per block,
        each block conditioned in place (in one reused buffer when read
        from the base in place) and combined in place in its slice of
        the matrix."""
        divergence = self.index.divergence
        union, conditioner = ctx.union, base.refine_conditioner
        dimensionality = queries.shape[1]
        cross = np.empty((queries.shape[0], union.size), dtype=float)
        every = bool(ok.all())
        if not every:
            cross[~ok] = np.nan
            queries = queries[ok]
        if queries.shape[0] == 0:
            return cross
        operand, *per_query = divergence.query_terms(queries)
        per_query = tuple(term[:, None] for term in per_query)
        block = refinement_block(queries.shape[0], dimensionality)
        buffer = np.empty((min(block, union.size), dimensionality))
        for lo in range(0, union.size, block):
            hi = min(lo + block, union.size)
            if whole:
                rows = _conditioned(conditioner, base.points[lo:hi], out=buffer[: hi - lo])
            else:
                rows = base.points[union[lo:hi]]
                rows = _conditioned(conditioner, rows, out=rows)
            out = cross[:, lo:hi] if every else np.empty((queries.shape[0], hi - lo))
            # BLAS may sum in any order: the certified bound holds for
            # every order, and results come from the direct kernel
            np.matmul(operand, rows.T, out=out)  # repro: noqa[fixed-order-reduction]
            values = divergence.combine(
                tuple(term[None, lo:hi] for term in row_terms.kernel),
                per_query,
                out,
                dimensionality,
            )
            if factor != 1.0:
                values *= factor
            if values is not out or not every:
                cross[ok, lo:hi] = values
        return cross

    # ------------------------------------------------------------------
    # the reference scoring
    # ------------------------------------------------------------------

    def certify(
        self, vectors: np.ndarray, queries: np.ndarray, conditioner=_UNSET
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(estimates, bounds)``, both ``(n, B)``, from fresh terms.

        The reference the looped refinement and the tests use:
        :func:`certified_scores` with freshly computed row terms, by
        default on the index's live conditioner.  A query the divergence
        cannot estimate gets NaN in both.
        """
        if conditioner is _UNSET:
            conditioner = self.index._refine_conditioner
        return certified_scores(self.index.divergence, vectors, queries, conditioner)
