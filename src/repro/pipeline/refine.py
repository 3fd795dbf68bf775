"""Refine stage: expansion-kernel scoring of every (candidate, query) pair.

Owns the adaptive dense/sparse/auto kernel dispatch and the
conditioner-wrapped cross-divergence kernels, all run in-process.  The
stage scores the union slab either through the dense blocked kernel
(full ``(union, B)`` matrix in :func:`refinement_block` row blocks) or
the sparse grouped kernel (only real pairs, query-bucketed gathers); a
single search is the same run at ``B = 1``, where ``auto`` always picks
dense.  Every path produces bitwise-identical scores -- dense columns
are independent of batch composition and blocking, sparse pair values
equal the dense matrix entries bit for bit -- so the kernel choice is
purely a performance decision.

A note on the dense kernel's dead cells: the dense path scores the full
``(union, B)`` matrix even though only ``total_pairs`` cells are real.
Gathering only per-query candidate rows instead cannot help -- the
union is by construction exactly the rows some query touches, and a
per-query gather of real pairs *is* the sparse grouped kernel, which
``auto`` already routes to below :data:`SPARSE_DENSITY_THRESHOLD`.
Measured at mid density on a 2-vCPU host (fonts proxy, d=400, B=64,
a union of 800 rows, density 0.5) the sparse kernel's gather traffic
loses to the dense kernel's sequential sweep, 21.6 ms against 13.4 ms,
confirming the threshold; a separate gather path would regress, so
none exists.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from .base import PipelineStage
from .context import QueryBatchContext

__all__ = [
    "RefineStage",
    "build_pairs",
    "refinement_block",
    "SPARSE_DENSITY_THRESHOLD",
]

#: ``auto`` routes to the sparse kernel when the mean per-query
#: candidate density over the union, ``mean(|candidates_q|) / |union|``,
#: is below this.  The sparse kernel pays gather traffic per pair, so
#: the break-even sits around 1/3 density.  Measured on a 2-vCPU host
#: with the fonts proxy (d=400): at B=64 and density 0.5 (union 800)
#: dense took 13.4 ms against sparse 21.6 ms; at B=256 with
#: Pareto-skewed candidate sets (density 0.018) sparse ran 2.61x
#: faster than dense.
SPARSE_DENSITY_THRESHOLD = 0.3

#: float64 elements one blocked-kernel call may materialise: the larger
#: of its ``(block, d)`` point-term slabs and ``(block, B)`` output
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


class RefineStage(PipelineStage):
    name = "refine"

    def run(self, ctx: QueryBatchContext) -> None:
        # read the conditioner through the pinned snapshot so a merge
        # republishing the index mid-flight can't swap it under us
        snap = ctx.snapshot
        conditioner = (
            snap.refine_conditioner if snap is not None else _UNSET
        )
        n_queries = ctx.n_queries
        if ctx.union is None or ctx.union.size == 0 or n_queries == 0:
            ctx.refine_kernel = None
            return
        kernel = self.choose_kernel(ctx.candidates, ctx.union.size, n_queries)
        ctx.refine_kernel = kernel
        ctx.refine_backend = "serial"
        vectors, queries = ctx.vectors, ctx.queries
        if kernel == "sparse":
            pair_rows, pair_queries, offsets = build_pairs(ctx.candidates, ctx.row_of)
            flat = self.score_sparse(
                vectors, queries, pair_rows, pair_queries, conditioner=conditioner
            )
            ctx.scores_of = lambda q, rows: flat[offsets[q] : offsets[q + 1]]
        else:
            block = refinement_block(n_queries, vectors.shape[1])
            cross = np.empty((ctx.union.size, n_queries), dtype=float)
            for lo in range(0, ctx.union.size, block):
                hi = min(lo + block, ctx.union.size)
                cross[lo:hi] = self.score_dense(
                    vectors[lo:hi], queries, conditioner=conditioner
                )
            ctx.scores_of = lambda q, rows: cross[rows, q]

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
    # conditioner-wrapped kernels
    # ------------------------------------------------------------------

    def score_dense(
        self, vectors: np.ndarray, queries: np.ndarray, conditioner=_UNSET
    ) -> np.ndarray:
        """Exact ``(n, B)`` divergences of every (vector, query) pair.

        Routes through the divergence's expansion-form cross kernel,
        first applying its :class:`RefinementConditioner` (centring /
        scaling into the well-conditioned regime) and folding the
        conditioner's output factor back in.  Conditioning is
        elementwise, so scoring a row subset or block is bitwise
        identical to slicing a full scoring -- the parity the blocked
        and per-query paths rely on.
        """
        index = self.index
        if conditioner is _UNSET:
            conditioner = index._refine_conditioner
        if conditioner is not None:
            vectors = conditioner.transform(vectors)
            queries = conditioner.transform(queries)
        values = index.divergence.cross_divergence(vectors, queries)
        if conditioner is not None and conditioner.factor != 1.0:
            values = values * conditioner.factor
        return values

    def score_sparse(
        self,
        vectors: np.ndarray,
        queries: np.ndarray,
        point_index: np.ndarray,
        query_index: np.ndarray,
        conditioner=_UNSET,
    ) -> np.ndarray:
        """Sparse analogue of :meth:`score_dense`: only the listed pairs.

        Applies the same conditioner and output factor, and the grouped
        kernel's pair values are bitwise equal to the dense kernel's
        matrix entries, so routing a query through this path instead of
        the dense one cannot change a single bit of its scores.
        """
        index = self.index
        if conditioner is _UNSET:
            conditioner = index._refine_conditioner
        if conditioner is not None:
            vectors = conditioner.transform(vectors)
            queries = conditioner.transform(queries)
        values = index.divergence.cross_divergence_grouped(
            vectors,
            queries,
            point_index,
            query_index,
            pair_block=refinement_block(1, vectors.shape[1]),
        )
        if conditioner is not None and conditioner.factor != 1.0:
            values = values * conditioner.factor
        return values
