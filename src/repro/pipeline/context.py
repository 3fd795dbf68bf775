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
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..storage.io_stats import QueryScope

__all__ = ["QueryBatchContext"]


@dataclass
class QueryBatchContext:
    """Mutable state shared by the pipeline stages of one search call.

    The lifecycle mirrors the stage order.  ``Plan`` fills the filter
    outputs (``candidates`` / ``forest_stats`` / ``bound_totals``),
    ``Fetch`` the storage outputs (``union`` / ``vectors`` and the page
    accounting), ``Refine`` the expansion scores, and ``Rerank`` the
    final per-query ``refined`` top-k pairs.  ``stage_seconds`` is
    filled by the driver with each stage's wall-clock time.
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
    #: runs against (:meth:`BrePartitionIndex.snapshot`).  Stages read
    #: index components through it so concurrent mutations can never
    #: tear a search; ``None`` (charge-free partial runs on indexes
    #: without snapshot support) falls back to the live attributes.
    snapshot: Optional[object] = None

    # -- Plan outputs ---------------------------------------------------
    #: per-query candidate id arrays (sorted, unique).
    candidates: Optional[List[np.ndarray]] = None
    #: per-query forest traversal statistics.
    forest_stats: Optional[list] = None
    #: per-query Theorem-1 searching-bound totals, shape ``(B,)``.
    bound_totals: Optional[np.ndarray] = None
    #: ``True`` when Plan proved the batch covered: the filter would
    #: read every page holding a live frozen row, so every query's
    #: ``candidates`` is the one array of all live frozen rows (see
    #: :meth:`~repro.bbtree.forest.BBForest.range_union_batch`).
    #: Only batches of two or more queries without ``point_filter``
    #: or ``shard_failure="partial"`` try the proof.
    covered: bool = False

    # -- Fetch outputs --------------------------------------------------
    #: sorted union of all candidate ids.
    union: Optional[np.ndarray] = None
    #: global id -> row within ``union``.
    row_of: Optional[np.ndarray] = None
    #: candidate vectors, union-ordered.
    vectors: Optional[np.ndarray] = None
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
    #: kernel the dispatcher ran ("dense"/"sparse"; ``None`` when the
    #: candidate union was empty).
    refine_kernel: Optional[str] = None
    #: where the scoring ran: ``"serial"`` (in-process, the only
    #: backend) whenever anything was scored, ``None`` otherwise.  Kept
    #: for trace consumers that label Refine spans by backend.
    refine_backend: Optional[str] = None
    #: ``scores_of(q, rows)`` -> query ``q``'s expansion scores in
    #: candidate order.
    scores_of: Optional[Callable[[int, np.ndarray], np.ndarray]] = None

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
