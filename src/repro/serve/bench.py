"""Closed-loop serving benchmark engine behind the CLI ``serve-bench``.

Models a serving deployment end to end: ``n_clients`` concurrent
closed-loop clients (each awaits its response before issuing its next
request) drive a :class:`~repro.serve.MicroBatcher` over an index.
Per-request serving (``max_batch_size=1``) runs and charges every
query's candidate working set separately; micro-batching coalesces the
requests that arrive within one ``max_wait_ms`` window into one
pipeline run over the union of their page working sets.  Storage is
compute-only: the rows report measured wall time and exact page counts
(``mean_pages_per_request``).

Everything here is wall-clock-free of *assertions*: callers decide what
to claim.
"""

from __future__ import annotations

import asyncio
import time
from typing import List, Optional

import numpy as np

from ..core.config import BrePartitionConfig
from ..core.index import BrePartitionIndex
from ..datasets.proxies import load_dataset
from ..exceptions import ServerOverloadedError
from .microbatcher import MicroBatcher

__all__ = ["make_serving_index", "run_closed_loop"]


def make_serving_index(
    dataset_name: str = "fonts",
    n: int = 600,
    n_queries: int = 64,
    seed: int = 0,
    n_partitions: int = 4,
    page_size_bytes: int = 16384,
    leaf_capacity: int = 40,
    n_shards: int = 1,
    shard_workers: int = 1,
    **config_overrides,
):
    """Build a dataset + index pair configured for serving benchmarks.

    Small pages give each query a page working set worth coalescing.
    Extra keyword arguments land on the
    :class:`~repro.core.config.BrePartitionConfig` verbatim (retry
    budgets, ``shard_failure`` policy, ``wal_path``, ...).
    """
    dataset = load_dataset(dataset_name, n=n, n_queries=n_queries, seed=seed)
    index = BrePartitionIndex(
        dataset.divergence,
        BrePartitionConfig(
            n_partitions=n_partitions,
            page_size_bytes=page_size_bytes,
            leaf_capacity=leaf_capacity,
            seed=seed,
            n_shards=n_shards,
            shard_workers=shard_workers,
            **config_overrides,
        ),
    ).build(dataset.points)
    return dataset, index


def run_closed_loop(
    index,
    queries: np.ndarray,
    k: int,
    n_clients: int,
    requests_per_client: int,
    max_batch_size: int,
    max_wait_ms: float,
    max_concurrent_batches: int = 1,
    max_queue_depth: Optional[int] = None,
    overflow: str = "wait",
    keep_results: bool = False,
) -> dict:
    """Drive one closed-loop arm; returns the measured row.

    Client ``c``'s ``r``-th request reuses query row
    ``(c * requests_per_client + r) % len(queries)``, so every arm
    serves an identical request stream and rows are comparable.
    ``max_concurrent_batches`` widens the batch worker pool (overlapping
    in-flight batches); ``max_queue_depth`` / ``overflow`` bound the
    admission queue -- in ``"reject"`` mode a shed request records the
    :class:`~repro.exceptions.ServerOverloadedError` in its result slot
    and its latency as NaN, and the throughput row counts only served
    requests.  With ``keep_results`` the per-request
    :class:`SearchResult` records ride along under ``"results"``
    (request order, client-major) for parity checks; timing rows drop
    them.
    """
    total = n_clients * requests_per_client
    results: List = [None] * total
    latencies = np.full(total, np.nan)

    async def client(batcher: MicroBatcher, c: int) -> None:
        for r in range(requests_per_client):
            slot = c * requests_per_client + r
            query = queries[slot % len(queries)]
            issued = time.perf_counter()
            try:
                results[slot] = await batcher.search(query)
            except ServerOverloadedError as error:
                results[slot] = error
                continue
            latencies[slot] = time.perf_counter() - issued

    async def drive() -> tuple[float, MicroBatcher]:
        async with MicroBatcher(
            index,
            k,
            max_batch_size=max_batch_size,
            max_wait_ms=max_wait_ms,
            max_concurrent_batches=max_concurrent_batches,
            max_queue_depth=max_queue_depth,
            overflow=overflow,
        ) as batcher:
            start = time.perf_counter()
            await asyncio.gather(*(client(batcher, c) for c in range(n_clients)))
            elapsed = time.perf_counter() - start
        return elapsed, batcher

    elapsed, batcher = asyncio.run(drive())
    stats = batcher.stats
    served = int(np.count_nonzero(~np.isnan(latencies)))
    served_latencies = latencies[~np.isnan(latencies)]
    row = {
        "n_clients": n_clients,
        "requests": total,
        "served": served,
        "max_batch_size": max_batch_size,
        "max_wait_ms": max_wait_ms,
        "max_concurrent_batches": max_concurrent_batches,
        "seconds": elapsed,
        "throughput_rps": served / elapsed if elapsed > 0 else float("inf"),
        "mean_latency_ms": (
            float(served_latencies.mean() * 1000.0) if served else 0.0
        ),
        "p95_latency_ms": (
            float(np.quantile(served_latencies, 0.95) * 1000.0) if served else 0.0
        ),
        "n_batches": stats.n_batches,
        "batch_sizes": list(stats.batch_sizes),
        "mean_batch_size": stats.mean_batch_size,
        "n_cancelled": stats.n_cancelled,
        "n_failed": stats.n_failed,
        "n_rejected": stats.n_rejected,
        "mean_pages_per_request": (
            stats.total_pages_read / served if served else 0.0
        ),
    }
    if keep_results:
        row["results"] = results
    return row
