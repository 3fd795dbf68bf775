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
pays only per-query and per-pair work.  It estimates either through
the dense kernel (one BLAS product ``operand @ rows.T`` per block, stored
query-major as ``(B, union)`` so each query's estimates are one
contiguous row) or the sparse grouped kernel (only real pairs, through
``pair_contract``'s query-bucketed gathers, over the same gathered rows
and cached terms); a single search is the same run at ``B = 1``, where
``auto`` always picks dense.  Both leave ``ctx.scores_of`` (estimates)
and ``ctx.bound_of`` (their bounds) on the context; the dense kernel
also leaves its matrix itself (``ctx.estimates``), which Rerank's
thresholded certificate compares in one pass.  A query the
divergence cannot estimate without overflow (``estimable``) gets NaN
estimates and bounds, so every candidate of it reaches the direct
kernel.  The kernel choice is purely a performance decision: both
kernels' estimates hold the same bound, and results come from the
direct kernel.

A note on the dense kernel's dead cells: the dense path estimates the
full union-by-batch matrix even though only ``total_pairs`` cells are
real.  Gathering only per-query candidate rows instead cannot help --
the union is by construction exactly the rows some query touches, and a
per-query gather of real pairs *is* the sparse grouped kernel, which
``auto`` already routes to below :data:`SPARSE_DENSITY_THRESHOLD`.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..divergences.base import RowTerms, error_scale
from .base import PipelineStage
from .context import QueryBatchContext

__all__ = [
    "ErrorBound",
    "RefineStage",
    "build_pairs",
    "certified_scores",
    "error_bound",
    "refinement_block",
    "SPARSE_DENSITY_THRESHOLD",
]

#: ``auto`` routes to the sparse kernel when the mean per-query
#: candidate density over the union, ``mean(|candidates_q|) / |union|``,
#: is below this: the break-even of the BLAS dense kernel against the
#: sparse one, which pays gather traffic and a fixed-order einsum per
#: pair.  Measured on a 2-vCPU host with one BLAS thread, fonts proxy
#: (d=400), Refine plus Rerank, best of 9, Pareto-skewed candidate runs
#: at B=64 unless noted (dense against sparse, ms): density 0.5 (half of
#: an 800-row pool) 6.3 / 21.2; 0.067 4.1 / 4.7; 0.043 6.8 / 8.2; 0.031
#: 8.9 / 9.1; 0.025 15.4 / 10.7; 0.020 22.4 / 19.8; 0.008 (B=256) 64.4 /
#: 33.4.  (Against the fixed-order einsum dense kernel the break-even
#: sat near 0.3.)
SPARSE_DENSITY_THRESHOLD = 0.03

#: float64 elements one blocked-kernel call may materialise: the larger
#: of its ``(block, d)`` conditioned rows and ``(B, block)`` output
#: stays near 2^20 (~8MB), cache-friendly without paying per-block
#: dispatch for tiny slices.
_BLOCK_BUDGET_ELEMENTS = 1 << 20

#: sentinel for "use the index's live conditioner" (``None`` is a valid
#: explicit value meaning "no conditioning").
_UNSET = object()


def build_pairs(
    candidates: List[np.ndarray], row_of: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flatten candidate sets into (pair_rows, pair_queries, offsets).

    Pairs are query-major: query ``q``'s scores land in
    ``flat[offsets[q]:offsets[q + 1]]``, in candidate order.
    """
    sizes = np.array([ids.size for ids in candidates], dtype=int)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    if offsets[-1] == 0:
        return np.empty(0, dtype=int), np.empty(0, dtype=int), offsets
    pair_rows = np.concatenate([row_of[ids] for ids in candidates])
    pair_queries = np.repeat(np.arange(len(candidates)), sizes)
    return pair_rows, pair_queries, offsets


def refinement_block(n_queries: int, dimensionality: int) -> int:
    """Union rows (or sparse pairs) scored per blocked-kernel call."""
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
        n_queries = ctx.n_queries
        ctx.estimates = None
        if ctx.union is None or ctx.union.size == 0 or n_queries == 0:
            ctx.refine_kernel = None
            return
        kernel = self.choose_kernel(ctx.candidates, ctx.union.size, n_queries)
        ctx.refine_kernel = kernel
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
        if kernel == "sparse":
            flat, offsets = self._estimate_sparse(
                ctx, base, whole, row_terms, queries, ok, factor
            )
            ctx.scores_of = lambda q, rows: flat[offsets[q] : offsets[q + 1]]
        else:
            cross = self._estimate_dense(ctx, base, whole, row_terms, queries, ok, factor)
            ctx.estimates = cross
            ctx.scores_of = lambda q, rows: cross[q, rows]

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

    def _estimate_sparse(self, ctx, base, whole, row_terms, queries, ok, factor):
        """Estimates of the real pairs only, query-major in candidate
        order, and each query's offsets into them."""
        sel = slice(None) if whole else ctx.union
        rows = _conditioned(base.refine_conditioner, base.points[sel])
        pair_rows, pair_queries, offsets = build_pairs(ctx.candidates, ctx.row_of)
        flat = np.full(pair_rows.size, np.nan)
        keep = ok[pair_queries]
        # query numbers among the estimable queries only
        renumber = np.cumsum(ok) - 1
        values = self.index.divergence.cross_divergence_grouped(
            rows,
            queries[ok],
            pair_rows[keep],
            renumber[pair_queries[keep]],
            pair_block=refinement_block(1, rows.shape[1]),
            point_terms=row_terms.kernel,
        )
        flat[keep] = values * factor if factor != 1.0 else values
        return flat, offsets

    # ------------------------------------------------------------------
    # kernel dispatch
    # ------------------------------------------------------------------

    def choose_kernel(
        self, candidates: List[np.ndarray], union_size: int, n_queries: int
    ) -> str:
        """Adaptive dispatch between the dense and sparse kernels.

        The dense (union x batch) kernel scores every cell whether or
        not it is a real (candidate, query) pair; when per-query
        candidate sets are small or skewed relative to the union its
        advantage inverts.  ``auto`` routes to the sparse grouped kernel
        when the mean per-query candidate density over the union drops
        below :data:`SPARSE_DENSITY_THRESHOLD`.
        """
        mode = self.index.config.refine_kernel
        if mode != "auto":
            return mode
        if union_size == 0 or n_queries == 0:
            return "dense"
        total_pairs = sum(int(ids.size) for ids in candidates)
        density = total_pairs / (union_size * n_queries)
        return "sparse" if density < SPARSE_DENSITY_THRESHOLD else "dense"

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
