"""Result and statistics records returned by the search APIs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

__all__ = ["QueryStats", "SearchResult", "BatchQueryStats", "BatchSearchResult"]


@dataclass
class QueryStats:
    """Per-query diagnostics common to all indexes in this library.

    In a covered batch (:attr:`BatchQueryStats.covered`) each query's
    candidate set is the live file: ``n_candidates`` and
    ``points_evaluated`` count every live frozen row,
    ``per_subspace_candidates`` repeats that count, ``pages_read`` is
    the live file's page count, and ``leaves_visited`` counts the
    leaves the covered-batch proof showed the query keeps.
    """

    #: simulated disk pages read (the paper's "I/O cost" metric).
    pages_read: int = 0
    #: wall-clock seconds of the search (the paper's "running time").
    cpu_seconds: float = 0.0
    #: number of candidate points refined.
    n_candidates: int = 0
    #: total radius the query's range ran with (BrePartition; 0 for
    #: other indexes): on a single search the seed radius, at least its
    #: k-th frozen neighbour's divergence and below the Theorem-1 total,
    #: unless the seed rule declines (:mod:`repro.pipeline.plan`); else,
    #: and in a batch of two or more queries, the Theorem-1 total.
    search_bound: float = 0.0
    #: candidates produced by each subspace before the union.
    per_subspace_candidates: List[int] = field(default_factory=list)
    #: BB-tree leaves visited across all subspaces.
    leaves_visited: int = 0
    #: points whose exact divergence was evaluated.
    points_evaluated: int = 0
    #: wall-clock seconds per pipeline stage (plan/fetch/refine/rerank);
    #: ``None`` for indexes that do not run the staged pipeline.
    stage_seconds: Optional[Dict[str, float]] = None
    #: unmerged delta-buffer points scored (in memory, never charged
    #: I/O) and merged into this query's top-k; 0 without mutations.
    delta_candidates: int = 0
    #: epoch of the frozen base this query's snapshot pinned.
    epoch: int = 0


@dataclass
class SearchResult:
    """k nearest neighbours, sorted by increasing divergence."""

    ids: np.ndarray
    divergences: np.ndarray
    stats: QueryStats

    def __post_init__(self) -> None:
        self.ids = np.asarray(self.ids, dtype=int)
        self.divergences = np.asarray(self.divergences, dtype=float)

    @property
    def k(self) -> int:
        """Number of neighbours returned."""
        return int(self.ids.size)

    def __iter__(self):
        """Iterate ``(id, divergence)`` pairs."""
        return iter(zip(self.ids.tolist(), self.divergences.tolist()))


@dataclass
class BatchQueryStats:
    """Diagnostics aggregated over one ``search_batch`` call.

    ``pages_coalesced`` is the batch's working set -- the distinct pages
    its candidates live on -- while ``pages_read_unshared`` is what the
    same queries would have touched one at a time; their difference is
    the I/O the cross-query coalescing saved.  ``pages_read`` is what
    the batch actually charged, which can be lower still when a buffer
    pool absorbs part of the working set (a caching effect, kept
    separate so it is never reported as coalescing).

    ``pages_read_per_shard`` records how the coalesced working set
    fanned out across the simulated disks (its entries sum to
    ``pages_coalesced``; one entry on a one-shard index).
    ``shard_seconds`` records each fan-out task's wall-clock time
    (the page charge); with ``shard_workers > 1`` tasks overlap, so their
    sum can exceed ``cpu_seconds``.  Both stay ``None`` for indexes
    without a Fetch fan-out (the baselines).

    ``covered`` marks a batch whose Plan proved, from its fast pass,
    that the filter would read every page holding a live row (see
    :meth:`~repro.bbtree.forest.BBForest.range_union_batch`).  Each
    query's candidates are then the whole live file, so its
    ``pages_read`` is the live file's page count and
    ``pages_read_unshared`` is ``B`` times that; ``pages_coalesced``
    and ``pages_read`` are what the filter's union reads, as in any
    batch.

    ``stage_seconds`` breaks ``cpu_seconds`` down by pipeline stage
    (plan / fetch / refine / rerank), and ``cross_batch_hits`` counts
    the pages this batch read from the buffer pool that an *earlier*
    batch paid for (``None`` when no pool is attached) -- the
    cross-batch reuse figure, kept separate from ``pages_saved`` (pure
    within-batch coalescing) just like pool hits are.
    """

    #: simulated pages actually charged (after any buffer pool).
    pages_read: int = 0
    #: sum of the per-query page counts had each run alone.
    pages_read_unshared: int = 0
    #: distinct pages touched by the whole batch (pool-oblivious).
    pages_coalesced: int = 0
    #: per-shard split of ``pages_coalesced`` (``None``: no fan-out).
    pages_read_per_shard: Optional[List[int]] = None
    #: wall-clock seconds for the whole batch.
    cpu_seconds: float = 0.0
    #: number of queries in the batch.
    n_queries: int = 0
    #: total candidates refined across the batch.
    n_candidates: int = 0
    #: thread-pool width the fan-out ran with, at most the shard count
    #: (1 = sequential).
    shard_workers: int = 1
    #: per-shard fetch-task seconds (the charge; ``None``: no fan-out).
    shard_seconds: Optional[List[float]] = None
    #: wall-clock seconds per pipeline stage (plan/fetch/refine/rerank).
    stage_seconds: Optional[Dict[str, float]] = None
    #: buffer-pool hits on pages an earlier batch paid for (None: no pool).
    cross_batch_hits: Optional[int] = None
    #: total delta-buffer points scored across the batch (in memory,
    #: never charged I/O); 0 without mutations.
    delta_candidates: int = 0
    #: transient I/O faults absorbed by retries during the fetch; 0
    #: without fault injection.  Retried charges never inflate
    #: ``pages_read`` -- the scope's dedup admits each page once.
    io_retries: int = 0
    #: queries that returned no result because their candidate pages
    #: live on a permanently failed shard (``shard_failure="partial"``).
    n_failed_queries: int = 0
    #: replicas passed over: each deferred for its open breaker (tried
    #: last), and each failed attempt routing moved past; 0 without
    #: replication faults.  A failed-over slice re-charges against the
    #: same query scope, so it never inflates ``pages_read``.
    n_failovers: int = 0
    #: hedged reads launched (slow replica fetches raced against a
    #: second replica; ``hedge_after_ms``).  Results are bitwise
    #: identical whichever leg wins.
    n_hedged: int = 0
    #: Plan proved the batch covered and refined every live row for
    #: every query; ``False`` for single searches, ``point_filter`` or
    #: ``shard_failure="partial"`` indexes and indexes without the
    #: staged pipeline.
    covered: bool = False

    @property
    def pages_saved(self) -> int:
        """Page reads avoided by cross-query coalescing alone."""
        return max(self.pages_read_unshared - self.pages_coalesced, 0)


@dataclass
class BatchSearchResult:
    """Results of one batched search, one :class:`SearchResult` per query.

    Under ``shard_failure="partial"`` a query doomed by a dead shard
    occupies its slot with ``None`` and its error rides in
    :attr:`failures` -- positions stay aligned with the query rows, so
    callers resolving per-request futures can zip straight through.
    """

    results: List[Optional[SearchResult]]
    stats: BatchQueryStats
    #: query index -> the shard failure that doomed it (empty when every
    #: query succeeded, which is always the case under the default
    #: ``shard_failure="raise"`` policy).
    failures: Dict[int, BaseException] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    def __getitem__(self, index: int) -> SearchResult:
        return self.results[index]

    @property
    def ids(self) -> List[Optional[np.ndarray]]:
        """Per-query neighbour ids (``None`` for a failed query)."""
        return [r.ids if r is not None else None for r in self.results]

    @property
    def divergences(self) -> List[Optional[np.ndarray]]:
        """Per-query neighbour divergences (``None`` for a failed query)."""
        return [r.divergences if r is not None else None for r in self.results]
