"""Rerank stage: direct-kernel top-k over the preselected expansion scores.

The expansion kernel can lose precision to cancellation, so final
results are drawn from an adaptively-sized preselection buffer and
re-scored with the divergence's direct (well-conditioned)
``batch_divergence`` -- the same formula the brute-force oracle uses.
Every batch size (a single search is ``B = 1``), dense and sparse
layouts, sequential and fanned-out fetches, and the looped reference
all converge on one :meth:`RerankStage.topk` implementation, which is
what makes their tie-breaking -- and therefore the bitwise row parity
between batch sizes -- identical by construction.  Each query reads its
expansion scores as one contiguous row of Refine's query-major matrix
(in place when it holds the whole union), and the direct kernel's few
rows are gathered from the snapshot's pinned frozen base -- the same
bytes the store holds.

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

__all__ = ["RerankStage", "top_k_stable"]

#: extra candidates (beyond k) preselected by the fast expansion kernel
#: and re-scored with the direct kernel before the final top-k.
_RERANK_BUFFER = 16


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
                # a query holding the whole union reads its scores in place
                rows = slice(None) if ids.size == union.size else row_of[ids]
                scores = ctx.scores_of(q, rows)
                if order is not None:
                    scores = scores[order]
                frozen_pairs.append(
                    self.topk(
                        ext_ids,
                        scores,
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
        query: np.ndarray,
        k: int,
        gather,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Final top-k: preselect by expansion score, rerank directly.

        ``gather(positions)`` materialises candidate vectors for
        positions into ``ids``; every path passes a fresh contiguous
        gather of the same rows, so looped, blocked and fanned-out
        refinement rerank identical arrays and stay bitwise-equal.
        Ties resolve by ascending id (``ids`` is sorted, positions are
        sorted back before scoring).

        The buffer is *adaptive*: reranking the preselection also
        measures the expansion kernel's noise floor on this query -- the
        largest |expansion - direct| disagreement over the buffer.  When
        more candidates tie within that floor of the preselection
        boundary than the buffer holds, any of them could be a true
        neighbour the noisy preselection ranked out, so the buffer grows
        to cover the tie set and reranks again instead of silently
        risking a dropped result.  On well-conditioned data the measured
        floor is ~ulp-sized and the loop exits first pass; in the worst
        case the rerank degrades to a direct-kernel scan of all
        candidates, which is exactly the safe fallback.
        """
        if ids.size == 0:
            return (np.empty(0, dtype=int), np.empty(0, dtype=float))
        divergence = self.index.divergence
        buffer = min(ids.size, max(2 * k, k + _RERANK_BUFFER))
        while True:
            pre = np.sort(top_k_stable(scores, buffer))
            exact = divergence.batch_divergence(gather(pre), query)
            if buffer >= ids.size:
                break
            noise = float(np.max(np.abs(scores[pre] - exact)))
            boundary = float(np.max(scores[pre]))
            tied = int(np.count_nonzero(scores <= boundary + noise))
            if tied <= buffer:
                break
            buffer = min(ids.size, max(tied, 2 * buffer))
        order = top_k_stable(exact, k)
        return ids[pre][order], exact[order]
