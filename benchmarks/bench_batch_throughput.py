"""Batch engine micro-benchmark: search_batch vs looped search.

ISSUE 1 acceptance: at batch size 64 the vectorized batch engine must
deliver >= 3x the throughput of per-query ``search`` while returning
bitwise-identical results.  The workload is the fonts proxy (the paper's
Itakura-Saito benchmark) with M=16 partitions, where per-query BB-forest
traversal dominates and the batch engine's shared bisection rounds
pay off most.

Run directly (``python benchmarks/bench_batch_throughput.py``) or via
pytest from this directory.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro import BrePartitionConfig, BrePartitionIndex, LinearScanIndex
from repro.datasets import load_dataset

BATCH_SIZE = 64
K = 10
N_PARTITIONS = 16
TARGET_SPEEDUP = 3.0


@pytest.fixture(scope="module")
def workload():
    dataset = load_dataset("fonts", n=1500, n_queries=BATCH_SIZE, seed=0)
    index = BrePartitionIndex(
        dataset.divergence,
        BrePartitionConfig(
            n_partitions=N_PARTITIONS,
            page_size_bytes=dataset.page_size_bytes,
            seed=0,
        ),
    ).build(dataset.points)
    return dataset, index


def measure(dataset, index) -> dict:
    queries = dataset.queries[:BATCH_SIZE]
    # Warm both paths (allocator, caches) before timing.
    index.search(queries[0], K)
    index.search_batch(queries[:2], K)

    start = time.perf_counter()
    singles = [index.search(query, K) for query in queries]
    loop_seconds = time.perf_counter() - start

    start = time.perf_counter()
    batch = index.search_batch(queries, K)
    batch_seconds = time.perf_counter() - start

    return {
        "singles": singles,
        "batch": batch,
        "loop_seconds": loop_seconds,
        "batch_seconds": batch_seconds,
        "speedup": loop_seconds / batch_seconds,
        "loop_qps": BATCH_SIZE / loop_seconds,
        "batch_qps": BATCH_SIZE / batch_seconds,
    }


def test_batch_matches_loop(workload):
    dataset, index = workload
    result = measure(dataset, index)
    for single, batched in zip(result["singles"], result["batch"]):
        np.testing.assert_array_equal(single.ids, batched.ids)
        np.testing.assert_array_equal(single.divergences, batched.divergences)


@pytest.mark.slow
def test_batch_throughput_at_least_3x(workload):
    dataset, index = workload
    # Best of three runs on each side to damp scheduler noise.
    best = max(measure(dataset, index)["speedup"] for _ in range(3))
    print(f"\nbatch speedup over looped search: {best:.2f}x (target {TARGET_SPEEDUP}x)")
    assert best >= TARGET_SPEEDUP


def test_batch_saves_io(workload):
    dataset, index = workload
    batch = index.search_batch(dataset.queries[:BATCH_SIZE], K)
    assert batch.stats.pages_saved > 0
    assert batch.stats.pages_read <= index.datastore.n_pages


def main() -> None:
    dataset = load_dataset("fonts", n=1500, n_queries=BATCH_SIZE, seed=0)
    index = BrePartitionIndex(
        dataset.divergence,
        BrePartitionConfig(
            n_partitions=N_PARTITIONS,
            page_size_bytes=dataset.page_size_bytes,
            seed=0,
        ),
    ).build(dataset.points)
    result = measure(dataset, index)
    batch = result["batch"]
    print(f"dataset: {dataset!r}, M={index.n_partitions}, k={K}, B={BATCH_SIZE}")
    print(
        f"looped search : {result['loop_seconds']:.3f}s "
        f"({result['loop_qps']:.1f} queries/s)"
    )
    print(
        f"search_batch  : {result['batch_seconds']:.3f}s "
        f"({result['batch_qps']:.1f} queries/s)"
    )
    print(f"speedup       : {result['speedup']:.2f}x")
    print(
        f"I/O           : {batch.stats.pages_read} pages coalesced vs "
        f"{batch.stats.pages_read_unshared} unshared "
        f"({batch.stats.pages_saved} saved)"
    )

    scan = LinearScanIndex(
        dataset.divergence, page_size_bytes=dataset.page_size_bytes
    ).build(dataset.points)
    queries = dataset.queries[:BATCH_SIZE]
    scan.search(queries[0], K)
    start = time.perf_counter()
    for query in queries:
        scan.search(query, K)
    scan_loop = time.perf_counter() - start
    start = time.perf_counter()
    scan.search_batch(queries, K)
    scan_batch = time.perf_counter() - start
    print(
        f"linear scan   : loop {scan_loop:.3f}s vs batch {scan_batch:.3f}s "
        f"({scan_loop / scan_batch:.2f}x)"
    )


if __name__ == "__main__":
    main()
