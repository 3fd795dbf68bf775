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
batch size (a single search is ``B = 1``) and the looped reference
converge on one :meth:`RerankStage.topk`, which is what makes their
tie-breaking -- and the bitwise row parity between batch sizes --
identical by construction.  Each query reads its estimates as one
contiguous row of Refine's query-major matrix ``ctx.estimates`` (in
place when it holds the whole union) and forms its bounds from cached
row and query terms; the direct kernel's few rows are gathered from the
snapshot's pinned frozen base -- the same bytes the store holds.

The thresholded certificate.  Every query of a covered batch refines
the whole file; when that holds at least :data:`PREFILTER_ROWS` rows
(and :data:`PREFILTER_FACTOR` ``* k``), each query first finds a
threshold from a strided sample, every :data:`SAMPLE_STRIDE`-th
candidate: ``tau_S``, the largest
``estimate + E`` among the sample's ``k`` smallest estimates, and
``E_max``, the query's largest bound over the union
(:meth:`~repro.pipeline.refine.ErrorBound.largest`).  One compare keeps
``C1``, the candidates with ``estimate <= t = tau_S + 2 E_max``, and
:func:`survivors`' rule runs on ``C1`` alone.  Why that is the full
certificate: the ``k`` smallest estimates overall are each at most the
sample's ``k``-th, so at most ``tau_S <= t``, and lie in ``C1``, so the
``tau`` found on ``C1`` is the one all rows give; a row the full
certificate keeps has ``estimate - E <= tau``, and ``tau`` is at most the
``k``-th smallest estimate plus ``E_max``, so the row's estimate is at
most ``tau_S + 2 E_max`` and lies in ``C1`` too.  That argument is in
real arithmetic; in floating point a row outside ``C1`` has an estimate
of at least ``t+``, the float after ``t``, so its ``estimate - E`` rounds
to at least ``t+ - E_max`` (rounding is monotone), and the stage checks
``t+ - E_max > tau`` and otherwise runs the full certificate.  The
one difference is a tie at the ``k``-th estimate: ``argpartition`` may
pick another of the tied rows for ``tau``, and either choice is
certified.  A query with a non-finite estimate or bound (an ED query
``estimable`` refuses is all NaN), or a non-finite ``t``, runs the full
certificate.  The batch's queries are compared in one pass over
Refine's ``(B, union)`` matrix in place, their ``C1`` mapped through
the merged base's id order (below) without a copy.  Single searches
and uncovered batches keep the full certificate: the thresholded one
pays a fixed cost per call that only a batch sharing one pass
amortizes (see :data:`PREFILTER_ROWS`).

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

__all__ = [
    "PREFILTER_FACTOR",
    "PREFILTER_ROWS",
    "RerankStage",
    "SAMPLE_STRIDE",
    "survivors",
    "thresholded_survivors",
    "top_k_stable",
]

#: A covered batch runs the thresholded certificate when its union has
#: at least this many rows (and :data:`PREFILTER_FACTOR` times ``k``).
#: Measured per query as the full certificate against the thresholded
#: one (us, best of 15, random estimates, k=10, on a 2-vCPU x86-64 host
#: with NumPy 2.4) at 1,000 / 2,500 / 5,000 / 10,000 / 20,000 rows:
#: B=32 9/12, 12/13, 15/14, 24/16, 44/21; B=8 9/13, 12/15, 16/15, 24/18,
#: 44/23; B=2 9/19, 11/20, 16/21, 24/23, 45/29; B=1 9/27, 11/28, 16/28,
#: 25/31, 39/35 (k=1 and k=30 cross within a factor of two of the same
#: row counts).  Each call pays about 25 us of fixed work, which only a
#: batch's queries sharing one pass amortize, so single searches and
#: uncovered queries (whose candidates are gathered first: 58 against
#: 66 us at 15,000 of 20,000 rows) keep the full certificate.
PREFILTER_ROWS = 4096

#: The union must also hold this many times ``k`` rows, so the sample,
#: every :data:`SAMPLE_STRIDE`-th row, holds ``4 k``.
PREFILTER_FACTOR = 64

#: The thresholded certificate's sample takes every this-many-th
#: candidate.
SAMPLE_STRIDE = 16


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
    return _kept(estimates, bounds, upper.max())


def _kept(estimates: np.ndarray, bounds: np.ndarray, tau: float) -> np.ndarray:
    """Positions whose ``estimate - E`` is not finite or not above
    ``tau``: the certificate's rule."""
    lower = estimates - bounds
    return np.flatnonzero(~(lower > tau) | np.isinf(lower))


def thresholded_survivors(estimates: np.ndarray, bound, k: int):
    """The thresholded certificate (see the module notes) of every query
    of Refine's ``(B, union)`` matrix ``estimates``, each holding the
    whole union; ``bound`` is the matrix's
    :class:`~repro.pipeline.refine.ErrorBound`.

    Returns, per query, the ascending union rows of its survivors --
    :func:`survivors`' over the whole row, up to which row
    ``argpartition`` picks among ties at the ``k``-th estimate -- or
    ``None`` where the full certificate must run.  The matrix is read in
    place: one compare over it keeps every query's ``C1``.
    """
    queries = np.arange(estimates.shape[0])
    largest = bound.largest(queries)
    sampled = estimates[:, ::SAMPLE_STRIDE]
    first = np.argpartition(sampled, k - 1, axis=1)[:, :k]
    # a non-finite estimate or bound may meet an opposite infinity here;
    # such a query runs the full certificate
    with np.errstate(invalid="ignore", over="ignore"):
        upper = np.take_along_axis(sampled, first, 1)
        upper += np.take_along_axis(
            bound.matrix(queries, slice(None, None, SAMPLE_STRIDE)), first, 1
        )
        threshold = upper.max(axis=1) + 2.0 * largest
    usable = np.isfinite(threshold) & np.isfinite(estimates).all(axis=1)
    inside = estimates <= threshold[:, None]
    kept = []
    for q in queries:
        rows = None
        if usable[q]:
            c1 = np.flatnonzero(inside[q])
            c1_kept = _c1_survivors(
                estimates[q, c1], bound(q, c1), k, threshold[q], largest[q]
            )
            rows = None if c1_kept is None else c1[c1_kept]
        kept.append(rows)
    return kept


def _c1_survivors(estimates, bounds, k: int, threshold: float, largest: float):
    """:func:`survivors`' rule over ``C1``, the candidates within
    ``threshold``, given their ``estimates`` and ``bounds``; ``None``
    when the threshold cannot vouch for the rows outside ``C1`` (see the
    module notes)."""
    if estimates.size < k:
        return None
    first = np.argpartition(estimates, k - 1)[:k]
    upper = estimates[first] + bounds[first]
    if not np.isfinite(upper).all():
        return None
    tau = upper.max()
    if not np.nextafter(threshold, np.inf) - largest > tau:
        return None
    return _kept(estimates, bounds, tau)


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
            thresholded = self._thresholded(ctx)
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
                    shared, ordered, position = ids, self._id_ordered(ids, snap), None
                ext_ids, frozen_rows, order = ordered
                # a query holding the whole union reads its estimates in
                # place
                whole = ids.size == union.size
                rows = slice(None) if whole else row_of[ids]
                keep = None if thresholded is None else thresholded[q]
                if keep is not None and order is not None:
                    # union rows to candidate positions, ascending
                    if position is None:
                        position = np.empty_like(order)
                        position[order] = np.arange(order.size)
                    keep = np.sort(position[keep])
                if keep is None:
                    scores = ctx.estimates[q, rows]
                    if order is not None:
                        scores = scores[order]
                        rows = order if whole else rows[order]
                    keep = survivors(scores, ctx.bound_of(q, rows), ctx.k)
                frozen_pairs.append(
                    self._rank(
                        ext_ids,
                        keep,
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

    def _thresholded(self, ctx: QueryBatchContext):
        """The thresholded certificate's survivors of a covered batch,
        per query (``None`` where the full certificate runs), or ``None``
        for a batch that runs the full certificate throughout: uncovered,
        or over a union below :data:`PREFILTER_ROWS` or
        :data:`PREFILTER_FACTOR` ``* k`` rows."""
        if not ctx.covered or ctx.union.size < max(
            PREFILTER_ROWS, PREFILTER_FACTOR * ctx.k
        ):
            return None
        return thresholded_survivors(ctx.estimates, ctx.bound_of, ctx.k)

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
        gather of the same rows, so looped and blocked refinement score
        identical arrays with the direct kernel and stay bitwise equal.
        Ties resolve by ascending id (``ids`` is sorted and the
        survivors keep its order).
        """
        if ids.size == 0:
            return (np.empty(0, dtype=int), np.empty(0, dtype=float))
        return self._rank(ids, survivors(scores, bounds, k), query, k, gather)

    def _rank(self, ids: np.ndarray, keep: np.ndarray, query: np.ndarray, k: int, gather):
        """The direct kernel's top-k over the survivor positions ``keep``
        (ascending, so ties resolve by ascending id)."""
        exact = self.index.divergence.batch_divergence(gather(keep), query)
        order = top_k_stable(exact, k)
        return ids[keep][order], exact[order]
