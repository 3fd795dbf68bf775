"""The three workloads: ``batch``, ``serve`` and ``mutate``.

``BENCHMARK.json`` gates ``serve`` and ``mutate`` only.  Between them
they run every layer, and on a 2-vCPU shared host a total budget of
about an hour for 22 runs per workload leaves 45 s windows for two
workloads but 25 s for three -- too short to outlast the host's slow
phases.  ``batch`` stays runnable by hand.

Every workload is compute-only (``simulated_io_iops=None``): nothing
sleeps to model I/O.  I/O is the exact count of simulated pages charged,
and modeled device time is derived from that count.  Each workload's
load comes from this one process.

``batch``
    Fonts-shaped data (Itakura-Saito, d=400), ``n_partitions=16`` fixed.
    One caller issues ``search_batch(B=64, k=10)`` over held-out
    queries.  Runs no serve, delta, WAL or shard code: the control
    workload for those layers.
``serve``
    Sift-shaped data (exponential distance, d=128), Theorem-4 ``M``,
    ``n_shards=4``, ``shard_workers=2``, ``MicroBatcher`` defaults.  A
    closed loop of 32 asyncio clients in one event-loop thread.
``mutate``
    Audio-shaped data (exponential distance, d=192), Theorem-4 ``M``,
    WAL on with the library's default flush policy.  One synchronous
    client runs a seeded mix of 70% ``search``, 20% ``insert`` and 10%
    ``delete`` -- each block of 20 operations holds exactly 14, 4 and 2,
    in seeded order -- with ``merge("extend")`` every 200 operations.

Schedules are cyclic where the index does not change (``batch``,
``serve``): a run stops only at a cycle boundary, so page and candidate
counts over the run repeat exactly for a seed.  On ``mutate`` the counts
cover the first ``count_ops`` operations of the seeded schedule, which
every run completes.

Timed metrics are taken per block of equal work -- one pass over the
query set on ``batch`` and ``serve``, 20 operations on ``mutate`` --
and reported at the fast decile over the run's blocks: ``throughput``
is the 90th percentile of the blocks' operations per second and
``latency_p50_ms`` the 10th percentile of the blocks' median latency.
On a shared host, neighbours slow the same code by up to 1.6x in phases
of seconds to a minute; interference only ever adds time, so the fast
decile reads the program's own speed wherever a tenth of the run
escapes it, while a change to the program moves every block.  On a
2-vCPU host, over 25 s windows of a single search loop, this cut the
spread of ten windows (IQR / median) from 0.14 (median over blocks) to
0.08.  Whole-window figures are in the report.
"""

from __future__ import annotations

import asyncio
import os
import resource
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

import repro.core.index as core_index
from repro import (
    BrePartitionConfig,
    BrePartitionIndex,
    ExponentialDistance,
    ItakuraSaito,
    LinearScanIndex,
    ReproError,
    brute_force_knn,
)
from repro.bbtree.forest import BBForest
from repro.serve import MicroBatcher
from repro.storage.io_stats import IOCostModel
from repro.storage.wal import WriteAheadLog

from inputs import Inputs, make_inputs
from spans import Tracer, TracedEngine, call, patched, span_cost, trace_pipeline

__all__ = ["SPECS", "Spec", "execute", "END_TO_END", "PER_LAYER"]

K = 10

#: the workload's end-to-end metrics (untraced run) and their units.
END_TO_END = {
    "setup_s": "s",
    "throughput": "ops/s",
    "latency_p50_ms": "ms",
    "pages_per_query": "pages",
    "peak_rss_mb": "MB",
}

#: the traced run's per-layer metrics and their units.
PER_LAYER = {
    "build.partition_s": "s",
    "build.forest_s": "s",
    "build.n_partitions": "count",
    "core.driver_s_per_query": "s",
    "plan.s_per_query": "s",
    "plan.leaves_visited_per_query": "count",
    "plan.candidates_per_query": "count",
    "plan.candidate_fraction": "ratio",
    "plan.useful_ratio": "ratio",
    "fetch.s_per_query": "s",
    "fetch.solo_pages_per_query": "pages",
    "fetch.coalescing_ratio": "ratio",
    "fetch.modeled_io_ms_per_query": "modeled_ms",
    "exec.shard_task_s.max": "s",
    "exec.shard_skew": "ratio",
    "refine.s_per_query": "s",
    "refine.cells_per_query": "count",
    "refine.useful_cell_ratio": "ratio",
    "refine.sparse_share": "ratio",
    "refine.process_share": "ratio",
    "rerank.s_per_query": "s",
    "rerank.delta_candidates_per_query": "count",
    "serve.queue_wait_ms.p50": "ms",
    "serve.queue_wait_ms.p99": "ms",
    "serve.batch_exec_ms.p50": "ms",
    "serve.batch_size.mean": "count",
    "delta.size_at_search.mean": "count",
    "wal.flushes_per_op": "ratio",
    "wal.bytes_per_op": "bytes",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_frac": "ratio",
}


@dataclass(frozen=True)
class Spec:
    """Sizes and settings of one workload."""

    name: str
    shape: str
    n: int
    n_queries: int
    #: queries per ``search_batch`` (``batch``) or concurrent clients
    #: (``serve``); unused by ``mutate``.
    width: int = 1
    #: held-out points the ``mutate`` client inserts.
    n_pool: int = 0
    #: builds timed for ``setup_s`` (the median is reported).
    builds: int = 3
    #: ``mutate``: operations whose counts are reported.
    count_ops: int = 200
    merge_every: int = 200
    #: responses checked against the brute-force oracle per pass.
    check_samples: int = 24
    #: seconds of the ``LinearScanIndex`` reference measurement.
    scan_seconds: float = 1.0
    #: ``serve`` index layout.
    n_shards: int = 1
    shard_workers: int = 1
    #: ``batch``: fixed ``M`` (``None`` applies Theorem 4).
    n_partitions: Optional[int] = None


SPECS = {
    "batch": Spec("batch", "fonts", n=6000, n_queries=256, width=64, n_partitions=16),
    "serve": Spec(
        "serve", "sift", n=20000, n_queries=256, width=32, n_shards=4, shard_workers=2
    ),
    "mutate": Spec("mutate", "audio", n=6000, n_queries=256, n_pool=2000),
}

#: largest share of a search call's wall time the stage spans may leave
#: uncovered (the index's own validation, snapshot and stats work).
UNATTRIBUTED_TOLERANCE = 0.2

#: one ``mutate`` block, shuffled per block: 70% search, 20% insert,
#: 10% delete.
MUTATE_BLOCK = ("search",) * 14 + ("insert",) * 4 + ("delete",) * 2

#: WAL flush policy of the ``mutate`` workload: the library defaults.
WAL_POLICY = "flush on every append, no fsync, no group commit"


@dataclass
class Log:
    """What one measured window did."""

    seconds: float = 0.0
    #: operations served (queries on batch/serve, all ops on mutate).
    ops: int = 0
    attempted: int = 0
    failed: int = 0
    #: per-call latency: a batch call, a served request, a search.
    latencies: List[float] = field(default_factory=list)
    #: block index of each ``latencies`` entry.
    block_of: List[int] = field(default_factory=list)
    #: perf_counter at the start of each block, then at the window's end.
    marks: List[float] = field(default_factory=list)
    #: operations served in each block.
    block_ops: List[int] = field(default_factory=list)
    #: traced only: latency minus the serving engine call's time.
    waits: List[float] = field(default_factory=list)
    #: (query row, response) pairs; ``mutate`` keeps its op log instead.
    responses: List[Tuple[int, Any]] = field(default_factory=list)
    #: ``mutate`` op log: ("search", row, response), ("insert", id, pool
    #: row) and ("delete", id), in order.
    events: List[tuple] = field(default_factory=list)
    #: exact counts over the count window.
    count_queries: int = 0
    count_pages: int = 0
    count_solo_pages: int = 0
    #: schedule units, from the first, inside the count window (None: all).
    count_units: Optional[int] = None
    insert_latencies: List[float] = field(default_factory=list)
    n_deletes: int = 0
    merge_latencies: List[float] = field(default_factory=list)
    batch_sizes: List[int] = field(default_factory=list)


# ----------------------------------------------------------------------
# index construction
# ----------------------------------------------------------------------


def _divergence(spec: Spec):
    return ItakuraSaito() if spec.shape == "fonts" else ExponentialDistance()


def _config(spec: Spec, inputs: Inputs, seed: int, wal_path: Optional[str]):
    return BrePartitionConfig(
        n_partitions=spec.n_partitions,
        page_size_bytes=inputs.page_size_bytes,
        seed=seed,
        n_shards=spec.n_shards,
        shard_workers=spec.shard_workers,
        wal_path=wal_path,
    )


def _build(spec: Spec, inputs: Inputs, seed: int, workdir: str, tag: str):
    wal = os.path.join(workdir, f"{tag}.wal") if spec.name == "mutate" else None
    index = BrePartitionIndex(_divergence(spec), _config(spec, inputs, seed, wal))
    start = time.perf_counter()
    index.build(inputs.points)
    return index, time.perf_counter() - start


def _build_traced(spec: Spec, inputs: Inputs, seed: int, workdir: str, tracer: Tracer):
    """Build inside a ``build`` span with the build entry points wrapped."""
    config = _config(spec, inputs, seed, None)
    strategy = type(config.make_strategy(np.random.default_rng(0)))
    targets = [
        (core_index, "calibrate_cost_model", "build.calibrate"),
        (strategy, "partition", "build.partition"),
        (BBForest, "build", "build.forest"),
    ]
    with patched(tracer, targets), tracer.span("build"):
        return _build(spec, inputs, seed, workdir, "traced")[0]


def _wal_probe(wal, *args) -> Dict[str, int]:
    return {"bytes": os.path.getsize(wal.path), "flushes": wal.n_flushes}


def _wal_targets():
    """The log's mutation appends, each span recording bytes and flushes."""
    return [
        (WriteAheadLog, "append_insert", "wal.append_insert", _wal_probe),
        (WriteAheadLog, "append_delete", "wal.append_delete", _wal_probe),
    ]


# ----------------------------------------------------------------------
# measured windows
# ----------------------------------------------------------------------


def _batch_window(index, inputs: Inputs, spec: Spec, seed: int, seconds: float, tracer):
    queries = inputs.queries
    order = np.random.default_rng([seed, 1]).permutation(queries.shape[0])
    cycle = [order[i : i + spec.width] for i in range(0, order.size - spec.width + 1, spec.width)]
    log = Log()
    start = time.perf_counter()
    unit = 0
    while unit == 0 or unit % len(cycle) or time.perf_counter() - start < seconds:
        rows = cycle[unit % len(cycle)]
        t0 = time.perf_counter()
        if unit % len(cycle) == 0:
            log.marks.append(t0)
            log.block_ops.append(0)
        result, span = call(tracer, "core.search_batch", index.search_batch, queries[rows], K, unit=unit)
        latency = time.perf_counter() - t0
        log.latencies.append(latency)
        log.block_of.append(len(log.block_ops) - 1)
        if span is not None:
            log.waits.append(latency - (span["end"] - span["start"]))
        log.attempted += rows.size
        log.failed += result.stats.n_failed_queries
        log.block_ops[-1] += rows.size - result.stats.n_failed_queries
        log.count_pages += result.stats.pages_read
        log.count_solo_pages += result.stats.pages_read_unshared
        log.count_queries += rows.size
        log.batch_sizes.append(rows.size)
        log.responses.extend(zip(rows.tolist(), result.results))
        unit += 1
    log.marks.append(time.perf_counter())
    log.seconds = log.marks[-1] - start
    log.ops = log.count_queries - log.failed
    return log


def _serve_window(index, inputs: Inputs, spec: Spec, seed: int, seconds: float, tracer):
    """Closed loop of ``spec.width`` clients over a ``MicroBatcher``.

    Clients move in lockstep: with one batch in flight and
    ``max_batch_size`` equal to the client count, every batch is the
    clients' next requests, so batch composition -- and with it the
    coalesced page counts -- follows the seeded schedule exactly.  The
    decision to stop is taken once per cycle, for every client at once.
    """
    queries = inputs.queries
    width = spec.width
    order = np.random.default_rng([seed, 2]).permutation(queries.shape[0])
    rounds = order.size // width
    engine = TracedEngine(index, tracer) if tracer is not None else index
    log = Log()
    decisions: Dict[int, bool] = {}

    async def client(c: int, batcher: MicroBatcher, start: float) -> None:
        j = 0
        while True:
            if j and j % rounds == 0:
                if j not in decisions:
                    # the first client to finish a pass closes its block
                    log.marks.append(time.perf_counter())
                    decisions[j] = log.marks[-1] - start < seconds
                if not decisions[j]:
                    return
            row = int(order[(j % rounds) * width + c])
            log.attempted += 1
            t0 = time.perf_counter()
            try:
                response = await batcher.search(queries[row])
            except ReproError:
                log.failed += 1
            else:
                latency = time.perf_counter() - t0
                log.latencies.append(latency)
                log.block_of.append(j // rounds)
                if tracer is not None:
                    log.waits.append(latency - engine.exec_seconds.pop(id(response)))
                log.responses.append((row, response))
                log.count_solo_pages += response.stats.pages_read
            j += 1

    async def main() -> None:
        batcher = MicroBatcher(engine, k=K)
        try:
            start = time.perf_counter()
            log.marks.append(start)
            await asyncio.gather(*(client(c, batcher, start) for c in range(width)))
            log.seconds = time.perf_counter() - start
        finally:
            await batcher.close()
        log.count_pages = batcher.stats.total_pages_read
        log.batch_sizes = list(batcher.stats.batch_sizes)

    asyncio.run(main())
    log.block_ops = np.bincount(log.block_of, minlength=len(log.marks) - 1).tolist()
    log.ops = len(log.latencies)
    log.count_queries = log.ops
    return log


def _mutate_window(index, inputs: Inputs, spec: Spec, seed: int, seconds: float, tracer):
    """Seeded 70/20/10 search/insert/delete mix with periodic merges.

    The op log (searches with their responses, inserts, deletes) lets
    the oracle replay the acknowledged live set after the window.
    """
    queries, pool = inputs.queries, inputs.pool
    rng = np.random.default_rng([seed, 3])
    live = list(range(inputs.points.shape[0]))
    log = Log(count_units=spec.count_ops)
    n_inserted = 0
    op = 0
    width = len(MUTATE_BLOCK)
    kinds: List[str] = []
    start = time.perf_counter()
    while op < spec.count_ops or op % width or time.perf_counter() - start < seconds:
        if op % width == 0:
            kinds = [MUTATE_BLOCK[i] for i in rng.permutation(width)]
            log.marks.append(time.perf_counter())
            log.block_ops.append(width)
        kind = kinds[op % width]
        log.attempted += 1
        if kind == "search":
            row = int(rng.integers(queries.shape[0]))
            t0 = time.perf_counter()
            result, span = call(tracer, "core.search", index.search, queries[row], K, unit=op)
            latency = time.perf_counter() - t0
            log.latencies.append(latency)
            log.block_of.append(op // width)
            if span is not None:
                log.waits.append(latency - (span["end"] - span["start"]))
            log.events.append(("search", row, result))
            if op < spec.count_ops:
                log.count_queries += 1
                log.count_pages += result.stats.pages_read
                log.count_solo_pages += result.stats.pages_read
        elif kind == "insert":
            pool_row = n_inserted % pool.shape[0]
            n_inserted += 1
            t0 = time.perf_counter()
            pid = index.insert(pool[pool_row])
            log.insert_latencies.append(time.perf_counter() - t0)
            live.append(pid)
            log.events.append(("insert", pid, pool_row))
        else:
            slot = int(rng.integers(len(live)))
            pid = live[slot]
            live[slot] = live[-1]
            live.pop()
            index.delete(pid)
            log.n_deletes += 1
            log.events.append(("delete", pid))
        op += 1
        if op % spec.merge_every == 0:
            t0 = time.perf_counter()
            call(tracer, "core.merge", index.merge, "extend")
            log.merge_latencies.append(time.perf_counter() - t0)
    log.marks.append(time.perf_counter())
    log.seconds = log.marks[-1] - start
    log.ops = op
    log.batch_sizes = [1] * len(log.latencies)
    return log


WINDOWS = {"batch": _batch_window, "serve": _serve_window, "mutate": _mutate_window}


def _warm_up(index, inputs: Inputs, spec: Spec, seed: int) -> None:
    """Pay first-call costs before timing; never mutates the index."""
    if spec.name == "serve":
        _serve_window(index, inputs, spec, seed, 0.0, None)
    else:
        rows = inputs.queries[: spec.width]
        if spec.width > 1:
            index.search_batch(rows, K)
        else:
            index.search(rows[0], K)


# ----------------------------------------------------------------------
# correctness gate
# ----------------------------------------------------------------------


def _same(response, ids: np.ndarray, divergences: np.ndarray) -> bool:
    """Bitwise equality of a response with the oracle's answer."""
    got_ids = np.asarray(response.ids, dtype=np.int64)
    got_div = np.asarray(response.divergences, dtype=np.float64)
    return got_ids.tobytes() == np.asarray(ids, dtype=np.int64).tobytes() and (
        got_div.tobytes() == np.asarray(divergences, dtype=np.float64).tobytes()
    )


def check_responses(spec: Spec, inputs: Inputs, log: Log, seed: int) -> Tuple[int, int]:
    """Compare a seed-chosen sample of responses with ``brute_force_knn``.

    Runs after the timed window.  On ``mutate`` the oracle sees the live
    set as acknowledged at that search, laid out in ascending id order.
    Returns ``(checked, mismatched)``.
    """
    divergence = _divergence(spec)
    rng = np.random.default_rng([seed, 4])
    if spec.name != "mutate":
        n = len(log.responses)
        picks = rng.choice(n, size=min(spec.check_samples, n), replace=False)
        bad = 0
        for i in picks:
            row, response = log.responses[i]
            ids, divs = brute_force_knn(divergence, inputs.points, inputs.queries[row], K)
            bad += not _same(response, ids, divs)
        return len(picks), bad
    searches = [i for i, event in enumerate(log.events) if event[0] == "search"]
    picks = set(
        rng.choice(searches, size=min(spec.check_samples, len(searches)), replace=False)
        .tolist()
    )
    live = {pid: inputs.points[pid] for pid in range(inputs.points.shape[0])}
    bad = 0
    for i, event in enumerate(log.events):
        kind = event[0]
        if kind == "insert":
            live[event[1]] = inputs.pool[event[2]]
        elif kind == "delete":
            del live[event[1]]
        elif i in picks:
            ids = np.array(sorted(live), dtype=np.int64)
            points = np.stack([live[pid] for pid in ids])
            pos, divs = brute_force_knn(divergence, points, inputs.queries[event[1]], K)
            bad += not _same(event[2], ids[pos], divs)
    return len(picks), bad


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------


def _pct(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q)) if values else 0.0


def _tail(values: List[float], scale: float = 1e3, unit: str = "ms") -> Dict[str, Any]:
    """The highest of p99/p95/p90/p75/p50 with >= 10 samples beyond it."""
    n = len(values)
    for q in (99, 95, 90, 75, 50):
        if n * (100 - q) / 100 >= 10:
            return {"percentile": q, "value": _pct(values, q) * scale, "unit": unit, "samples": n}
    return {"percentile": None, "value": None, "unit": unit, "samples": n}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _scan_reference(spec: Spec, inputs: Inputs) -> Dict[str, Any]:
    """``LinearScanIndex`` throughput on the same points and queries
    (a reference, not a gated metric): batches of the workload's width,
    single searches on ``mutate``."""
    scan = LinearScanIndex(_divergence(spec), page_size_bytes=inputs.page_size_bytes)
    scan.build(inputs.points)
    width = spec.width
    served = 0
    start = time.perf_counter()
    while served == 0 or time.perf_counter() - start < spec.scan_seconds:
        lo = served % (inputs.queries.shape[0] - width + 1)
        if width > 1:
            scan.search_batch(inputs.queries[lo : lo + width], K)
        else:
            scan.search(inputs.queries[lo], K)
        served += width
    return {"throughput": served / (time.perf_counter() - start), "unit": "queries/s"}


def _fast_decile(log: Log) -> Tuple[float, float]:
    """``throughput`` (90th percentile of the blocks' ops/s) and
    ``latency_p50_ms`` (10th percentile of the blocks' median latency)."""
    rates = np.asarray(log.block_ops, dtype=float) / np.diff(log.marks)
    latencies = np.asarray(log.latencies)
    of = np.asarray(log.block_of)
    medians = [np.median(latencies[of == b]) for b in np.unique(of)]
    return float(np.percentile(rates, 90)), float(np.percentile(medians, 10)) * 1e3


def _end_to_end(log: Log, setup: List[float], rss: float) -> Dict[str, float]:
    throughput, latency_p50_ms = _fast_decile(log)
    return {
        "setup_s": statistics.median(setup),
        "throughput": throughput,
        "latency_p50_ms": latency_p50_ms,
        "pages_per_query": log.count_pages / max(1, log.count_queries),
        "peak_rss_mb": rss,
    }


def _workload_extras(spec: Spec, log: Log) -> Dict[str, Any]:
    """Workload-specific figures that are not on every workload."""
    extras: Dict[str, Any] = {
        "blocks": len(log.block_ops),
        "window_throughput": log.ops / log.seconds,
        "window_latency_p50_ms": _pct(log.latencies, 50) * 1e3,
        "latency_tail": _tail(log.latencies),
    }
    if spec.name == "mutate":
        extras.update(
            search_throughput=len(log.latencies) / log.seconds,
            insert_latency_p50_us=_pct(log.insert_latencies, 50) * 1e6,
            insert_latency_tail=_tail(log.insert_latencies, 1e6, "us"),
            n_inserts=len(log.insert_latencies),
            n_deletes=log.n_deletes,
            merge_s=statistics.mean(log.merge_latencies) if log.merge_latencies else None,
            n_merges=len(log.merge_latencies),
        )
    return extras


def _layer_metrics(
    tracer: Tracer, log: Log, n_partitions: int, overhead: float
) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """Per-layer metrics from the traced build's and window's spans."""
    own = tracer.self_seconds()
    children: Dict[int, Dict[str, dict]] = defaultdict(dict)
    for s in tracer.spans:
        if s["parent"] is not None:
            children[s["parent"]][s["name"]] = s
    calls = [s for s in tracer.spans if s["name"] in ("core.search", "core.search_batch")]
    last = log.count_units
    counted = [d for d in calls if last is None or d["attrs"]["unit"] < last]

    def stages(name: str, group=calls) -> List[dict]:
        return [children[d["id"]]["pipeline." + name] for d in group]

    def total(name: str, key: str, group=counted) -> float:
        return float(sum(s["attrs"][key] for s in stages(name, group)))

    def seconds(name: str) -> float:
        return float(sum(s["end"] - s["start"] for s in stages(name)))

    queries = total("plan", "queries", calls)
    counted_queries = total("plan", "queries")
    candidates = total("plan", "candidates")
    cells = total("refine", "cells")
    refines = stages("refine")
    fetch_max, fetch_skew = [], []
    for s in stages("fetch"):
        tasks = s["attrs"]["shard_seconds"] or [s["end"] - s["start"]]
        fetch_max.append(max(tasks))
        fetch_skew.append(max(tasks) / statistics.mean(tasks) if statistics.mean(tasks) > 0 else 1.0)
    build = tracer.named("build")[0]
    top = [s for s in tracer.spans if s["parent"] == build["id"]]
    appends = tracer.named("wal.append_insert") + tracer.named("wal.append_delete")
    call_seconds = sum(d["end"] - d["start"] for d in calls)
    call_self = sum(own[d["id"]] for d in calls)
    pages_per_query = log.count_pages / max(1, log.count_queries)
    metrics = {
        "build.partition_s": sum(own[s["id"]] for s in top if s["name"] == "build.partition"),
        "build.forest_s": sum(own[s["id"]] for s in top if s["name"] == "build.forest"),
        "build.n_partitions": n_partitions,
        "core.driver_s_per_query": call_self / queries,
        "plan.s_per_query": seconds("plan") / queries,
        "plan.leaves_visited_per_query": total("plan", "leaves") / counted_queries,
        "plan.candidates_per_query": candidates / counted_queries,
        "plan.candidate_fraction": candidates
        / sum(s["attrs"]["live"] * s["attrs"]["queries"] for s in stages("plan", counted)),
        "plan.useful_ratio": sum(s["attrs"]["k"] * s["attrs"]["queries"] for s in stages("plan", counted))
        / max(1.0, candidates),
        "fetch.s_per_query": seconds("fetch") / queries,
        "fetch.solo_pages_per_query": log.count_solo_pages / max(1, log.count_queries),
        "fetch.coalescing_ratio": log.count_pages / max(1, log.count_solo_pages),
        "fetch.modeled_io_ms_per_query": pages_per_query / IOCostModel().iops * 1e3,
        "exec.shard_task_s.max": statistics.mean(fetch_max),
        "exec.shard_skew": statistics.mean(fetch_skew),
        "refine.s_per_query": seconds("refine") / queries,
        "refine.cells_per_query": cells / counted_queries,
        "refine.useful_cell_ratio": total("refine", "pairs") / max(1.0, cells),
        "refine.sparse_share": sum(
            p["attrs"]["queries"] for p, r in zip(stages("plan"), refines) if r["attrs"]["kernel"] == "sparse"
        ) / queries,
        "refine.process_share": sum(
            p["attrs"]["queries"] for p, r in zip(stages("plan"), refines) if r["attrs"]["backend"] == "process"
        ) / queries,
        "rerank.s_per_query": seconds("rerank") / queries,
        "rerank.delta_candidates_per_query": total("rerank", "delta_candidates") / counted_queries,
        "serve.queue_wait_ms.p50": _pct(log.waits, 50) * 1e3,
        "serve.queue_wait_ms.p99": _pct(log.waits, 99) * 1e3,
        "serve.batch_exec_ms.p50": _pct([d["end"] - d["start"] for d in calls], 50) * 1e3,
        "serve.batch_size.mean": queries / len(calls),
        "delta.size_at_search.mean": total("rerank", "delta_size") / max(1, len(counted)),
        "wal.flushes_per_op": sum(s["attrs"]["flushes"] for s in appends) / max(1, len(appends)),
        "wal.bytes_per_op": sum(s["attrs"]["bytes"] for s in appends) / max(1, len(appends)),
        "trace.overhead_frac": overhead,
        "trace.unattributed_frac": call_self / call_seconds,
    }
    append_us = [(s["end"] - s["start"]) * 1e6 for s in appends]
    extras = {
        "build.calibrate_s": sum(s["end"] - s["start"] for s in tracer.named("build.calibrate")),
        "wal.append_us.p50": _pct(append_us, 50),
        "wal.append_us.p99": _pct(append_us, 99),
        "wal.appends": len(append_us),
        "serve.queue_wait_samples": len(log.waits),
        "spans": len(tracer.spans),
        "trace.span_cost_frac": len(tracer.spans) * span_cost() / log.seconds,
        "trace.stage_spans_cover_calls": call_self / call_seconds <= UNATTRIBUTED_TOLERANCE,
        "counted_queries": counted_queries,
    }
    return metrics, extras


# ----------------------------------------------------------------------
# the two kinds of run
# ----------------------------------------------------------------------


@dataclass
class Outcome:
    metrics: Dict[str, float]
    report: Dict[str, Any]
    attempted: int
    failed: int
    correct: bool


def execute(spec: Spec, seed: int, seconds: float, trace: bool, workdir: str) -> Outcome:
    inputs = make_inputs(spec.shape, spec.n, spec.n_queries, spec.n_pool, seed)
    window = WINDOWS[spec.name]
    untraced = Log()  # the trace run's untraced pass
    if not trace:
        setup: List[float] = []
        index = None
        for b in range(spec.builds):
            if index is not None:
                index.close()
            index, built = _build(spec, inputs, seed, workdir, f"build{b}")
            setup.append(built)
        _warm_up(index, inputs, spec, seed)
        log = window(index, inputs, spec, seed, seconds, None)
        rss = _peak_rss_mb()
        n_partitions = index.n_partitions
        index.close()
        checked, bad = check_responses(spec, inputs, log, seed)
        metrics = _end_to_end(log, setup, rss)
        report = {
            "setup_builds_s": setup,
            "n_partitions": n_partitions,
            "ops": log.ops,
            "window_s": log.seconds,
            "mean_batch_size": statistics.mean(log.batch_sizes),
            **_workload_extras(spec, log),
            "scan_reference": _scan_reference(spec, inputs),
        }
    else:
        half = seconds / 2.0
        plain, _ = _build(spec, inputs, seed, workdir, "plain")
        _warm_up(plain, inputs, spec, seed)
        untraced = window(plain, inputs, spec, seed, half, None)
        plain.close()
        tracer = Tracer()
        index = _build_traced(spec, inputs, seed, workdir, tracer)
        _warm_up(index, inputs, spec, seed)
        trace_pipeline(index, tracer)
        with patched(tracer, _wal_targets()):
            log = window(index, inputs, spec, seed, half, tracer)
        n_partitions = index.n_partitions
        index.close()
        overhead = 1.0 - (log.ops / log.seconds) / (untraced.ops / untraced.seconds)
        metrics, extras = _layer_metrics(tracer, log, n_partitions, overhead)
        checked, bad = check_responses(spec, inputs, log, seed)
        trace_path = os.path.join(os.path.dirname(workdir), f"trace-{spec.name}-seed{seed}.jsonl")
        tracer.dump(trace_path)
        report = {
            "untraced_throughput": untraced.ops / untraced.seconds,
            "traced_throughput": log.ops / log.seconds,
            "trace_file": os.path.relpath(trace_path),
            **extras,
        }
    attempted = log.attempted + untraced.attempted
    failed = log.failed + untraced.failed + bad
    report.update(
        checked_responses=checked,
        oracle_mismatches=bad,
        failed_ops=log.failed + untraced.failed,
        failed_frac=failed / attempted,
    )
    return Outcome(metrics, report, attempted, failed, correct=failed == 0)
