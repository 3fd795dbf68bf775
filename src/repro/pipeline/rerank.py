"""Rerank stage: the certificate, then direct-kernel top-k.

Refine leaves estimates and their proved error bounds ``E``; the
estimates' bits never reach a result.  Per query, :func:`survivors`
takes ``tau``, the largest ``estimate + E`` among the query's ``k``
smallest estimates, and keeps the rows with ``estimate - E <= tau``.
Any ``k`` rows have direct values at most their ``estimate + E``, so
``tau`` is at least the oracle's ``k``-th value, and a pruned row's
direct value is strictly above it: it is neither a neighbour nor a tie.
The survivors are re-scored with the divergence's direct
``batch_divergence`` -- the same formula the brute-force oracle uses --
and :func:`top_k_stable` picks by value, then id.  Results are therefore
bitwise the oracle's by proof, whatever order Refine summed in.  Every
batch size (a single search is ``B = 1``), dense and sparse layouts and
the looped reference converge on one :meth:`RerankStage.topk`, which is
what makes their tie-breaking -- and the bitwise row parity between batch
sizes -- identical by construction.  Each query reads its estimates as
one contiguous row of Refine's query-major matrix (in place when it
holds the whole union) and forms its bounds from cached row and query
terms; the direct kernel's few rows are gathered from the snapshot's
pinned frozen base -- the same bytes the store holds.

Snapshot-aware reranking: when the context's snapshot carries a
non-identity row -> external-id mapping, candidates are reordered by
ascending *external* id before the top-k, so positional tie-breaking
matches a from-scratch index over the live points sorted by id; the
sort runs once per distinct candidate array (a covered batch hands
every query the same one).  When the snapshot carries unmerged delta
inserts, the frozen top-k is then merged with a brute-force direct
scoring of the (memory-resident, so zero-page) delta points: both sides
use the same row-count-independent ``batch_divergence`` kernel and the
same id-sorted ``top_k_stable`` selection, which keeps every merged
result bitwise equal to the oracle.
"""

from __future__ import annotations

import numpy as np

from .base import PipelineStage
from .context import QueryBatchContext

__all__ = ["RerankStage", "survivors", "top_k_stable"]


def top_k_stable(values: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` smallest values, ties broken by lowest index.

    Equivalent to ``np.argsort(values, kind="stable")[:k]`` without
    sorting the full array: ``np.argpartition`` isolates the k smallest,
    and only the entries tied with the k-th smallest value join the
    final stable sort (so boundary ties still resolve by index).  Every
    selection in the pipeline -- per-query and blocked-batch alike --
    goes through this one helper, which is what makes their
    tie-breaking identical.
    """
    k_eff = min(k, values.size)
    if k_eff == 0:
        return np.empty(0, dtype=int)
    if values.size > k_eff:
        part = np.argpartition(values, k_eff - 1)[:k_eff]
        pool = np.flatnonzero(values <= values[part].max())
    else:
        pool = np.arange(values.size)
    return pool[np.argsort(values[pool], kind="stable")][:k_eff]


def survivors(estimates: np.ndarray, bounds: np.ndarray, k: int) -> np.ndarray:
    """Ascending positions of the rows the certificate cannot rule out.

    ``bounds`` are the estimates' proved errors ``E``, aligned with
    ``estimates``.  With ``k`` or fewer rows every row survives.
    Otherwise ``tau`` is the largest ``estimate + E`` among the ``k``
    smallest estimates, and a row is pruned only when its finite
    ``estimate - E`` exceeds ``tau``; a row whose estimate or bound is
    not finite survives, and so does every row when one of the ``k`` has
    no finite ``estimate + E``.  The rounding of ``estimate +- E`` is
    inside ``E`` (the bound contract).
    """
    if estimates.size <= k:
        return np.arange(estimates.size)
    first = np.argpartition(estimates, k - 1)[:k]
    upper = estimates[first] + bounds[first]
    if not np.isfinite(upper).all():
        return np.arange(estimates.size)
    lower = estimates - bounds
    return np.flatnonzero(~(lower > upper.max()) | np.isinf(lower))


class RerankStage(PipelineStage):
    name = "rerank"

    def run(self, ctx: QueryBatchContext) -> None:
        snap = ctx.snapshot
        ctx.delta_candidates = [snap.delta.n_inserts] * ctx.n_queries
        empty = (np.empty(0, dtype=int), np.empty(0, dtype=float))
        if ctx.union is None or ctx.union.size == 0 or ctx.n_queries == 0:
            # no frozen candidates anywhere; results may still come
            # entirely from the delta buffer
            frozen_pairs = [empty] * ctx.n_queries
        else:
            frozen_pairs = []
            # the direct kernel's few rows come from the pinned base:
            # the same bytes the store holds
            points = snap.base.points
            union, row_of = ctx.union, ctx.row_of
            shared = ordered = None
            for q, ids in enumerate(ctx.candidates):
                if q in ctx.query_errors:
                    # doomed by a dead shard: never rank it
                    frozen_pairs.append(None)
                    continue
                if ids.size == 0:
                    frozen_pairs.append(empty)
                    continue
                if ids is not shared:
                    # once per distinct array: a covered batch hands
                    # every query the same one
                    shared, ordered = ids, self._id_ordered(ids, snap)
                ext_ids, frozen_rows, order = ordered
                # a query holding the whole union reads its estimates in
                # place
                whole = ids.size == union.size
                rows = slice(None) if whole else row_of[ids]
                scores = ctx.scores_of(q, rows)
                if order is not None:
                    scores = scores[order]
                    rows = order if whole else rows[order]
                frozen_pairs.append(
                    self.topk(
                        ext_ids,
                        scores,
                        ctx.bound_of(q, rows),
                        ctx.queries[q],
                        ctx.k,
                        lambda sel, frozen=frozen_rows: points[frozen[sel]],
                    )
                )
        ctx.refined = [
            None
            if pair is None
            else self._merge_delta(pair, ctx.queries[q], ctx.k, snap)
            for q, pair in enumerate(frozen_pairs)
        ]
        for q in ctx.query_errors:
            ctx.delta_candidates[q] = 0

    def _id_ordered(self, ids: np.ndarray, snap):
        """``(external ids, frozen rows, order)`` with ids ascending, so
        ``topk`` ties break by ascending external id.

        ``ids`` arrive as frozen row numbers sorted ascending; with an
        identity base rows *are* external ids and pass through untouched
        (``order`` is ``None``) -- the pre-mutation bitwise contract.  A
        merged base maps rows to external ids out of order, so the
        candidate axis is re-sorted by external id (candidate rows are
        live, hence their ids are unique and the order is total);
        callers permute each query's scores by ``order``.
        """
        if snap.base.identity:
            return ids, ids, None
        ext = snap.base.global_ids[ids]
        order = np.argsort(ext, kind="stable")
        return ext[order], ids[order], order

    def _merge_delta(self, frozen, query: np.ndarray, k: int, snap):
        """Merge the frozen top-k with a direct scan of the delta inserts.

        Delta points live in memory, so this charges zero pages -- the
        per-scope accounting stays exact.  Both arrays are concatenated
        and re-sorted by external id before one ``top_k_stable``: with
        disjoint id sets (a reinserted id's frozen predecessor is dead
        and was filtered in Plan) this reproduces, bit for bit, the
        selection a from-scratch index over the live points would make.
        """
        if not snap.has_delta:
            return frozen
        delta = snap.delta
        d_div = self.index.divergence.batch_divergence(delta.points, query)
        ids_all = np.concatenate([frozen[0], delta.ids])
        div_all = np.concatenate([frozen[1], d_div])
        order = np.argsort(ids_all, kind="stable")
        sel = top_k_stable(div_all[order], k)
        return ids_all[order][sel], div_all[order][sel]

    def topk(
        self,
        ids: np.ndarray,
        scores: np.ndarray,
        bounds: np.ndarray,
        query: np.ndarray,
        k: int,
        gather,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Final top-k: the certificate's survivors, scored directly.

        ``scores`` are estimates and ``bounds`` their proved errors, as
        :func:`survivors` takes them.
        ``gather(positions)`` materialises candidate vectors for
        positions into ``ids``; every path passes a fresh contiguous
        gather of the same rows, so looped, blocked and sparse refinement
        score identical arrays with the direct kernel and stay bitwise
        equal.  Ties resolve by ascending id (``ids`` is sorted and the
        survivors keep its order).
        """
        if ids.size == 0:
            return (np.empty(0, dtype=int), np.empty(0, dtype=float))
        keep = survivors(scores, bounds, k)
        exact = self.index.divergence.batch_divergence(gather(keep), query)
        order = top_k_stable(exact, k)
        return ids[keep][order], exact[order]
