"""Experiment harness: run a query workload through an index and
aggregate the paper's metrics (I/O cost, running time, accuracy).

Every index in the library exposes the same surface
(``build(points)`` / ``search(query, k) -> SearchResult`` /
``construction_seconds``), so one harness serves all tables and figures.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..baselines.linear_scan import brute_force_knn
from ..core.results import SearchResult
from ..exceptions import InvalidParameterError
from ..datasets.loader import Dataset
from .metrics import overall_ratio, recall_at_k

__all__ = ["WorkloadResult", "run_workload", "build_index"]


@dataclass
class WorkloadResult:
    """Aggregated metrics of one (index, dataset, k) run."""

    method: str
    dataset: str
    k: int
    mean_io: float
    mean_seconds: float
    mean_candidates: float
    mean_overall_ratio: float
    mean_recall: float
    construction_seconds: float
    n_queries: int
    extras: dict = field(default_factory=dict)

    def row(self) -> list:
        """Row form used by the reporting tables."""
        return [
            self.method,
            self.dataset,
            self.k,
            round(self.mean_io, 1),
            round(self.mean_seconds * 1000.0, 2),
            round(self.mean_candidates, 1),
            round(self.mean_overall_ratio, 4),
            round(self.mean_recall, 4),
        ]

    @staticmethod
    def headers() -> list[str]:
        """Headers matching :meth:`row`."""
        return [
            "method",
            "dataset",
            "k",
            "io_pages",
            "time_ms",
            "candidates",
            "overall_ratio",
            "recall",
        ]


def build_index(factory: Callable[[], object], points: np.ndarray) -> object:
    """Instantiate and build an index, timing construction."""
    index = factory()
    start = time.perf_counter()
    index.build(points)
    if not hasattr(index, "construction_seconds") or index.construction_seconds == 0.0:
        index.construction_seconds = time.perf_counter() - start
    return index


def _iter_results(index, queries: np.ndarray, k: int, batch_size: int | None):
    """Yield ``(result, batch_stats_or_None)`` per query, single or batched.

    With a ``batch_size`` the queries are chunked through the index's
    ``search_batch`` engine; the chunk's :class:`BatchQueryStats` rides
    along with its first query so callers can aggregate coalesced I/O.
    """
    if batch_size is None:
        for query in queries:
            yield index.search(query, k), None
        return
    if batch_size < 1:
        raise InvalidParameterError(f"batch_size must be >= 1, got {batch_size}")
    for lo in range(0, len(queries), batch_size):
        batch = index.search_batch(queries[lo : lo + batch_size], k)
        for offset, result in enumerate(batch.results):
            yield result, (batch.stats if offset == 0 else None)


def run_workload(
    index,
    dataset: Dataset,
    k: int,
    method_name: str | None = None,
    n_queries: int | None = None,
    with_accuracy: bool = True,
    batch_size: int | None = None,
    shards: int | None = None,
    shard_workers: int | None = None,
    replication_factor: int | None = None,
    hedge_after_ms: float | None = None,
) -> WorkloadResult:
    """Run the dataset's query workload and aggregate metrics.

    Ground truth for accuracy comes from an in-memory brute-force oracle
    (no I/O charged), so exact methods should report OR = recall = 1.

    With ``batch_size`` set, queries are driven through the index's
    ``search_batch`` engine in chunks of that size; ``mean_io`` then
    reflects the coalesced pages actually charged per query, and the
    result's ``extras`` record the batch totals -- including the
    pipeline's per-stage wall-time split (``extras["stage_seconds"]``,
    summed over chunks), how many of the ``extras["batches"]`` chunks
    Plan proved covered (``extras["covered_batches"]``) and, when a
    buffer pool is attached, the pages reused across batches
    (``extras["cross_batch_hits"]``).

    With ``shards`` set, the index's point file is re-laid across that
    many simulated disks before the workload (via ``index.reshard``;
    indexes without one are rejected).  Batch runs on a BrePartition
    index record the per-shard fan-out of the coalesced page reads in
    ``extras["shard_pages_read"]``.

    ``shard_workers`` sets the fan-out thread-pool width on the index's
    config (per-shard Fetch tasks overlap when the store has more than
    one shard; see :mod:`repro.exec`).  It requires an index with a
    :class:`~repro.core.config.BrePartitionConfig`, and changes only how
    results are computed, never the results.

    ``replication_factor`` re-lays every shard's pages on that many
    distinct disks (requires ``shards``), and ``hedge_after_ms`` races
    slow replica fetches against a second replica; neither changes
    results either.
    """
    if replication_factor is not None and shards is None:
        raise InvalidParameterError(
            "replication_factor requires shards (a sharded point file)"
        )
    if shards is not None:
        if not hasattr(index, "reshard"):
            raise InvalidParameterError(
                f"index {type(index).__name__} does not support sharding "
                "(no reshard method)"
            )
        index.reshard(shards, replication_factor=replication_factor)
    config = getattr(index, "config", None)
    if hedge_after_ms is not None:
        if config is None or not hasattr(config, "hedge_after_ms"):
            raise InvalidParameterError(
                f"index {type(index).__name__} has no hedged-read support"
            )
        if hedge_after_ms <= 0:
            raise InvalidParameterError(
                f"hedge_after_ms must be positive, got {hedge_after_ms}"
            )
        config.hedge_after_ms = float(hedge_after_ms)
    if shard_workers is not None:
        if config is None or not hasattr(config, "shard_workers"):
            raise InvalidParameterError(
                f"index {type(index).__name__} has no shard-worker pool"
            )
        if shard_workers < 1:
            raise InvalidParameterError(
                f"shard_workers must be >= 1, got {shard_workers}"
            )
        config.shard_workers = int(shard_workers)

    queries = dataset.queries
    if n_queries is not None:
        queries = queries[:n_queries]

    ios, seconds, candidates, ratios, recalls = [], [], [], [], []
    batched_pages = 0
    batched_pages_unshared = 0
    batched_pages_coalesced = 0
    shard_pages: list[int] | None = None
    stage_totals: dict[str, float] = {}
    cross_batch_hits: int | None = None
    n_batches = covered_batches = 0
    for query, (result, batch_stats) in zip(
        queries, _iter_results(index, queries, k, batch_size)
    ):
        if batch_stats is not None:
            n_batches += 1
            covered_batches += int(batch_stats.covered)
            batched_pages += batch_stats.pages_read
            batched_pages_unshared += batch_stats.pages_read_unshared
            batched_pages_coalesced += batch_stats.pages_coalesced
            if batch_stats.stage_seconds:
                for stage_name, stage_secs in batch_stats.stage_seconds.items():
                    stage_totals[stage_name] = (
                        stage_totals.get(stage_name, 0.0) + stage_secs
                    )
            if batch_stats.cross_batch_hits is not None:
                cross_batch_hits = (
                    cross_batch_hits or 0
                ) + batch_stats.cross_batch_hits
            if batch_stats.pages_read_per_shard is not None:
                if shard_pages is None:
                    shard_pages = [0] * len(batch_stats.pages_read_per_shard)
                shard_pages = [
                    total + part
                    for total, part in zip(
                        shard_pages, batch_stats.pages_read_per_shard
                    )
                ]
        ios.append(result.stats.pages_read)
        seconds.append(result.stats.cpu_seconds)
        candidates.append(result.stats.n_candidates)
        if with_accuracy:
            exact_ids, exact_dists = brute_force_knn(
                dataset.divergence, dataset.points, query, k
            )
            got = result.divergences
            if got.size < k:
                # Penalise missing results with the worst observed ratio
                # by padding with the dataset's k-th exact distance scale.
                pad = np.full(k - got.size, max(exact_dists[-1], 1e-12) * 10.0)
                got = np.concatenate([got, pad])
            ratios.append(overall_ratio(got, exact_dists))
            recalls.append(recall_at_k(result.ids, exact_ids))

    extras: dict = {}
    if batch_size is not None and queries.shape[0]:
        # In batch mode the honest I/O figure is what the batches
        # actually charged, spread over the queries they served.
        ios = [batched_pages / len(queries)] * len(queries)
        extras = {
            "batch_size": batch_size,
            "batch_pages_read": batched_pages,
            "batch_pages_unshared": batched_pages_unshared,
            "batch_pages_saved": max(
                batched_pages_unshared - batched_pages_coalesced, 0
            ),
            "batches": n_batches,
            "covered_batches": covered_batches,
        }
        if shard_pages is not None:
            extras["shard_pages_read"] = shard_pages
        if stage_totals:
            # where the batch time went, summed over all chunks -- the
            # pipeline's plan/fetch/refine/rerank wall-clock split
            extras["stage_seconds"] = {
                stage_name: round(total, 6)
                for stage_name, total in stage_totals.items()
            }
        if cross_batch_hits is not None:
            extras["cross_batch_hits"] = cross_batch_hits
    if shards is not None:
        extras["shards"] = shards
    if shard_workers is not None:
        extras["shard_workers"] = shard_workers

    return WorkloadResult(
        method=method_name if method_name is not None else type(index).__name__,
        dataset=dataset.name,
        k=k,
        mean_io=float(np.mean(ios)),
        mean_seconds=float(np.mean(seconds)),
        mean_candidates=float(np.mean(candidates)),
        mean_overall_ratio=float(np.mean(ratios)) if ratios else 1.0,
        mean_recall=float(np.mean(recalls)) if recalls else 1.0,
        construction_seconds=float(getattr(index, "construction_seconds", 0.0)),
        n_queries=len(queries),
        extras=extras,
    )
