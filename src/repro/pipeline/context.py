"""The shared state one search request carries through the pipeline.

A :class:`QueryBatchContext` is created by the drivers in
:class:`~repro.core.index.BrePartitionIndex` (``search`` builds one with
a single query row, ``search_batch`` one with ``B`` rows; the stages
treat both alike) and handed to each stage of a
:class:`~repro.pipeline.SearchPipeline` in turn.  Every stage reads the
fields of the stages before it and fills in its own; the driver
assembles results and statistics records from the finished context.
Keeping all intermediate state here -- instead of in method locals
threaded through one monolithic function -- is what lets the serving
layer, benchmarks and tests call individual stages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..storage.io_stats import QueryScope

__all__ = ["QueryBatchContext"]


@dataclass
class QueryBatchContext:
    """Mutable state shared by the pipeline stages of one search call.

    The lifecycle mirrors the stage order.  ``Plan`` fills the filter
    outputs (``candidates`` / ``forest_stats`` / ``bound_totals``),
    ``Fetch`` the storage outputs (``union`` / ``row_of`` and the page
    accounting), ``Refine`` the expansion estimates and their certified
    bounds, and ``Rerank`` the final per-query ``refined`` top-k pairs.
    No stage copies candidate vectors into the context: Refine and
    Rerank read them from the snapshot's pinned base.  ``stage_seconds``
    is filled by :meth:`~repro.pipeline.SearchPipeline.run` with each
    stage's wall-clock time.
    """

    #: query rows, always 2-D ``(B, d)`` (``B = 1`` for single search).
    queries: np.ndarray
    #: neighbours requested per query.
    k: int
    #: ``True`` when driven by :meth:`BrePartitionIndex.search`.  No
    #: stage reads it -- a single search is the batch run at ``B = 1``
    #: -- but observers (tracing, instrumentation) may.
    single: bool = False
    #: this request's private I/O scope (dedup set + counters), opened
    #: by the driver via ``tracker.scope()`` and threaded through every
    #: storage charge -- what lets several contexts be in flight on one
    #: index concurrently without corrupting each other's page counts.
    #: ``None`` for charge-free partial runs (``refine_prefetched``).
    scope: Optional[QueryScope] = None
    #: the immutable ``(frozen base, delta version)`` pair this request
    #: runs against (:meth:`BrePartitionIndex.snapshot`).  Every stage
    #: reads index components through it, so concurrent mutations can
    #: never tear a search; :meth:`SearchPipeline.run` captures one when
    #: the caller did not, and a stage run on its own needs one set.
    snapshot: Optional[object] = None

    # -- Plan outputs ---------------------------------------------------
    #: per-query candidate id arrays (sorted, unique).
    candidates: Optional[List[np.ndarray]] = None
    #: per-query forest traversal statistics.
    forest_stats: Optional[list] = None
    #: per-query total radius the query's range ran with, shape
    #: ``(B,)``, before the rounding slack and the approximate
    #: extension's shrink: a single search's seed radius, or the
    #: Theorem-1 searching-bound total (every query of a batch, and a
    #: single search that keeps it; see :mod:`repro.pipeline.plan`).
    bound_totals: Optional[np.ndarray] = None
    #: ``True`` when Plan proved the batch covered: the filter would
    #: read every page holding a live frozen row, so every query's
    #: ``candidates`` is the one array of all live frozen rows (see
    #: :meth:`~repro.bbtree.forest.BBForest.range_union_batch`).
    #: Only batches of two or more queries without ``point_filter``
    #: or ``shard_failure="partial"`` try the proof.
    covered: bool = False

    # -- Fetch outputs --------------------------------------------------
    #: sorted union of all candidate ids (the shared array itself when
    #: every query holds the same one).
    union: Optional[np.ndarray] = None
    #: global id -> row within ``union``.
    row_of: Optional[np.ndarray] = None
    #: distinct pages the batch's working set spans (pool-oblivious).
    pages_coalesced: int = 0
    #: per-shard split of ``pages_coalesced``.
    pages_per_shard: Optional[List[int]] = None
    #: per-shard fetch-task wall-clock seconds.
    shard_seconds: Optional[List[float]] = None
    #: pages served from the buffer pool that an *earlier* batch or
    #: query paid for (``None`` without a pool).
    cross_batch_hits: Optional[int] = None
    #: transient-fault retries the fetch absorbed (0 without faults).
    io_retries: int = 0
    #: replicas passed over: each deferred for its open breaker, and
    #: each failed attempt routing moved past (0 without replication
    #: faults; see :meth:`~repro.exec.ShardExecutor.call_with_failover`).
    n_failovers: int = 0
    #: hedged reads launched: slow replica fetches raced against a
    #: second replica (0 unless ``hedge_after_ms`` is configured).
    n_hedged: int = 0
    #: shard index -> permanent failure, for shards still down after
    #: retries (``shard_failure="partial"`` only; empty otherwise).
    shard_errors: Dict[int, BaseException] = field(default_factory=dict)
    #: query index -> error for queries doomed by a failed shard; the
    #: later stages skip these rows and ``refined[q]`` stays ``None``.
    query_errors: Dict[int, BaseException] = field(default_factory=dict)

    # -- Refine outputs -------------------------------------------------
    #: ``"dense"`` (Refine's one kernel) whenever anything was scored,
    #: ``None`` when the candidate union was empty.
    refine_kernel: Optional[str] = None
    #: where the scoring ran: ``"serial"`` (in-process, the only
    #: backend) whenever anything was scored, ``None`` otherwise.  No
    #: stage reads this field or ``refine_kernel``: only the benchmark's
    #: traced pass does (``perfbench/spans.py`` labels Refine spans by
    #: both), and both go once it stops reading them.
    refine_backend: Optional[str] = None
    #: the ``(B, union)`` expansion-estimate matrix: ``estimates[q,
    #: rows]`` are query ``q``'s estimates in candidate order, where
    #: ``rows`` are its candidates' rows within ``union``
    #: (``ctx.row_of[ids]``, or ``slice(None)`` for a query holding the
    #: whole union, read in place).  Their summation order is BLAS's, so
    #: their bits are not fixed: each is certified only to within its
    #: ``bound_of`` entry of the direct kernel's value.  ``None`` when
    #: nothing was scored.
    estimates: Optional[np.ndarray] = None
    #: ``bound_of(q, rows)`` -> the proved bound ``E`` on
    #: ``|estimate - batch_divergence|`` for the same pairs, aligned with
    #: ``estimates[q, rows]`` and formed on demand from cached row terms
    #: and per-query terms (a :class:`~repro.pipeline.refine.ErrorBound`;
    #: see the bound contract on
    #: :class:`~repro.divergences.base.DecomposableBregmanDivergence`).
    #: NaN, like the estimates, for a query the divergence cannot
    #: estimate: all its candidates reach the direct kernel.
    bound_of: Optional[Any] = None

    # -- Rerank outputs -------------------------------------------------
    #: per-query ``(top_ids, divergences)`` pairs, ascending divergence.
    refined: Optional[List[Tuple[np.ndarray, np.ndarray]]] = None
    #: per-query count of delta-buffer points scored alongside the
    #: frozen candidates (0 when the snapshot carries no delta).
    delta_candidates: Optional[List[int]] = None

    # -- driver bookkeeping ---------------------------------------------
    #: wall-clock seconds per stage, in stage order.
    stage_seconds: Dict[str, float] = field(default_factory=dict)

    @property
    def n_queries(self) -> int:
        """Number of query rows in the context."""
        return int(self.queries.shape[0])
