"""Refinement-kernel micro-benchmark: blocked cross-divergence vs looped.

ISSUE 2 acceptance: at batch size 64 the blocked (union x queries)
cross-divergence kernel must refine at least 2x faster than the PR 1
per-query loop while returning bitwise-identical ids and divergences.
The workload is the fonts proxy (the paper's Itakura-Saito benchmark,
d=400) where per-pair evaluation is expensive and the cache-blocked
kernel pays off most; batch sizes 1, 16, 64 and 256 map the regime.

The B=256 row is expected to be near 1x: the trailing queries of the
fonts workload have tiny candidate sets, and the dense kernel scores
the full (union x queries) matrix regardless, so candidate-set skew
erodes the win.  The row is kept as an honest data point.

The ``mid_density`` entry (ISSUE 9 satellite) settles a proposed dense
optimization: gathering only per-query candidate rows when fewer than
half the (union x B) cells are real pairs.  The union contains no dead
rows by construction -- every union row is some query's candidate -- so
a per-query row gather of real pairs *is* the sparse grouped kernel.
The entry therefore measures dense vs sparse on a ~0.5-density workload
on identical inputs: dense wins there (the grouped kernel's gathers
cost more than the dense kernel's wasted-but-sequential cells), which
is why the auto threshold stays at 0.3 and no separate gather path was
added (measured, dropped).

Running the file directly rewrites ``BENCH_refinement.json`` in the
repo root (the machine-readable perf trajectory); pytest only checks
parity plus the slow-marked 2x assertion.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro import BrePartitionConfig, BrePartitionIndex
from repro.core.transforms import determine_search_bounds_batch, pad_radii
from repro.datasets import load_dataset
from repro.pipeline.refine import refinement_block

DATASET = "fonts"
N_POINTS = 2000
N_PARTITIONS = 8
K = 10
BATCH_SIZES = (1, 16, 64, 256)
ASSERT_BATCH = 64
TARGET_SPEEDUP = 2.0
REPS = 3

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_refinement.json"


@pytest.fixture(scope="module")
def workload():
    return make_workload()


def make_workload():
    # Cycle one large allocation first: freeing a big mmap'd block raises
    # glibc's dynamic mmap threshold, after which the looped path's
    # multi-MB temporaries are heap-recycled instead of mmap'd (and
    # page-faulted) on every call.  Without this, whichever path is
    # measured first in a fresh process pays allocator costs the other
    # does not, inflating the comparison.
    _warm = np.zeros(1 << 22)
    del _warm

    dataset = load_dataset(DATASET, n=N_POINTS, n_queries=max(BATCH_SIZES), seed=0)
    index = BrePartitionIndex(
        dataset.divergence,
        BrePartitionConfig(
            n_partitions=N_PARTITIONS,
            page_size_bytes=dataset.page_size_bytes,
            seed=0,
        ),
    ).build(dataset.points)
    return dataset, index


def filter_candidates(index, queries, k):
    """Replay the batch filter stage (Algorithm 6 steps 1-3).

    The refinement helpers take candidate id sets as input; this
    reproduces exactly what ``search_batch`` feeds them so the kernels
    are measured on real filter output rather than synthetic sets.
    """
    triples = index.transforms.query_triples_batch(queries)
    ub_tensor = index.transforms.upper_bound_tensor(triples)
    search_bounds = determine_search_bounds_batch(ub_tensor, k)
    radii = pad_radii(search_bounds.radii)
    sub_matrices = index.partitioning.split_matrix(queries)
    candidates, _ = index.forest.range_union_batch(
        sub_matrices, radii, point_filter=index.config.point_filter
    )
    return candidates


def _best_of(fn, reps: int = REPS) -> float:
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def measure(dataset, index, batch_size: int) -> dict:
    queries = dataset.queries[:batch_size]
    candidates = filter_candidates(index, queries, K)
    pipeline = index.pipeline
    blocked = pipeline.refine_prefetched(candidates, queries, K).refined
    looped = pipeline.refine_looped(candidates, queries, K)

    loop_seconds = _best_of(lambda: pipeline.refine_looped(candidates, queries, K))
    block_seconds = _best_of(
        lambda: pipeline.refine_prefetched(candidates, queries, K)
    )

    union = np.unique(np.concatenate(candidates)) if candidates else np.empty(0)
    return {
        "batch_size": batch_size,
        "looped": looped,
        "blocked": blocked,
        "loop_seconds": loop_seconds,
        "block_seconds": block_seconds,
        "speedup": loop_seconds / block_seconds,
        "mean_candidates": float(np.mean([c.size for c in candidates])),
        "union_candidates": int(union.size),
        "block_rows": refinement_block(batch_size, dataset.points.shape[1]),
    }


MID_DENSITY = 0.5
MID_DENSITY_BATCH = 64
MID_DENSITY_UNION = 800


def measure_mid_density(dataset, index) -> dict:
    """Dense vs sparse at ~0.5 density: the proposed-gather regime.

    Each of B queries keeps a uniform half of a shared row pool, so
    about half the (union x B) cells are real pairs -- exactly where a
    "gather candidate rows only" dense variant would target.  Since that
    variant is the sparse grouped kernel (no dead union rows exist),
    this measures it directly, on bitwise-identical outputs.
    """
    queries = dataset.queries[:MID_DENSITY_BATCH]
    rng = np.random.default_rng(7)
    pool = np.arange(min(index.n_points, MID_DENSITY_UNION))
    per_query = int(MID_DENSITY * pool.size)
    candidates = [
        np.sort(rng.choice(pool, size=per_query, replace=False))
        for _ in range(MID_DENSITY_BATCH)
    ]
    union = np.unique(np.concatenate(candidates))
    density = float(
        np.mean([c.size for c in candidates]) / union.size
    )
    index.datastore.charge_pages_for(candidates)

    pipeline = index.pipeline
    results, timings = {}, {}
    for kernel in ("dense", "sparse"):
        index.config.refine_kernel = kernel
        results[kernel] = pipeline.refine_prefetched(candidates, queries, K).refined
        timings[kernel] = _best_of(
            lambda: pipeline.refine_prefetched(candidates, queries, K)
        )
    index.config.refine_kernel = "auto"
    for (a_ids, a_divs), (b_ids, b_divs) in zip(
        results["dense"], results["sparse"]
    ):
        np.testing.assert_array_equal(a_ids, b_ids)
        np.testing.assert_array_equal(a_divs, b_divs)
    return {
        "batch_size": MID_DENSITY_BATCH,
        "density": density,
        "union_candidates": int(union.size),
        "dense_seconds": timings["dense"],
        "sparse_seconds": timings["sparse"],
        "dense_speedup_vs_gather": timings["sparse"] / timings["dense"],
        "auto_kernel": pipeline.stage("refine").choose_kernel(
            candidates, union.size, MID_DENSITY_BATCH
        ),
    }


def test_blocked_refinement_matches_looped(workload):
    dataset, index = workload
    for batch_size in BATCH_SIZES:
        result = measure(dataset, index, batch_size)
        for (blocked_ids, blocked_divs), (looped_ids, looped_divs) in zip(
            result["blocked"], result["looped"]
        ):
            np.testing.assert_array_equal(blocked_ids, looped_ids)
            np.testing.assert_array_equal(blocked_divs, looped_divs)


def test_mid_density_kernels_bitwise_identical(workload):
    dataset, index = workload
    measure_mid_density(dataset, index)  # asserts parity


@pytest.mark.slow
def test_blocked_refinement_at_least_2x_at_64(workload):
    dataset, index = workload
    best = max(
        measure(dataset, index, ASSERT_BATCH)["speedup"] for _ in range(3)
    )
    print(
        f"\nblocked refinement speedup at B={ASSERT_BATCH}: "
        f"{best:.2f}x (target {TARGET_SPEEDUP}x)"
    )
    assert best >= TARGET_SPEEDUP


def main() -> None:
    dataset, index = make_workload()
    rows = []
    print(
        f"dataset: {dataset!r}, M={index.n_partitions}, k={K}, "
        f"refinement block rule: 2^20-element budget"
    )
    for batch_size in BATCH_SIZES:
        result = measure(dataset, index, batch_size)
        rows.append(
            {
                "batch_size": result["batch_size"],
                "looped_seconds": round(result["loop_seconds"], 6),
                "blocked_seconds": round(result["block_seconds"], 6),
                "speedup": round(result["speedup"], 3),
                "mean_candidates": round(result["mean_candidates"], 1),
                "union_candidates": result["union_candidates"],
                "block_rows": result["block_rows"],
            }
        )
        print(
            f"B={batch_size:4d}: looped {result['loop_seconds'] * 1e3:8.2f}ms  "
            f"blocked {result['block_seconds'] * 1e3:8.2f}ms  "
            f"speedup {result['speedup']:5.2f}x  "
            f"(mean cand {result['mean_candidates']:.0f}, "
            f"union {result['union_candidates']}, "
            f"block {result['block_rows']} rows)"
        )

    mid = measure_mid_density(dataset, index)
    print(
        f"mid-density (gather would-be regime): density {mid['density']:.3f}, "
        f"dense {mid['dense_seconds'] * 1e3:.1f}ms vs "
        f"sparse/gather {mid['sparse_seconds'] * 1e3:.1f}ms -> dense "
        f"{mid['dense_speedup_vs_gather']:.2f}x faster (auto -> "
        f"{mid['auto_kernel']}); gather path measured, dropped"
    )

    payload = {
        "benchmark": "refinement_kernel",
        "dataset": DATASET,
        "n_points": N_POINTS,
        "dimensionality": int(dataset.points.shape[1]),
        "divergence": dataset.divergence.name,
        "n_partitions": N_PARTITIONS,
        "k": K,
        "reps": REPS,
        "target_speedup_at_64": TARGET_SPEEDUP,
        "results": rows,
        "mid_density": {
            "note": (
                "dense candidate-row gather would equal the sparse "
                "grouped kernel (the union has no dead rows); dense wins "
                "at ~0.5 density, so the gather path was measured and "
                "dropped"
            ),
            **{
                key: (round(value, 6) if isinstance(value, float) else value)
                for key, value in mid.items()
            },
        },
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {RESULT_PATH}")


if __name__ == "__main__":
    main()
