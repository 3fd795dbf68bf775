"""In-memory span recorder and the instrumentation of the traced pass.

Spans are recorded from the benchmark's own files, around the calls
into each layer; nothing under ``src/`` is edited:

* every stage object in ``index.pipeline.stages`` is wrapped by a
  :class:`TracedStage` (``SearchPipeline`` runs any stage list), which
  also reads the layer's counters off the shared query context;
* the index calls (``search``, ``search_batch``, ``merge``, ``build``)
  are wrapped where the workload makes them, and :class:`TracedEngine`
  stands in for the index behind ``MicroBatcher`` to time each batch;
* the build entry points (``calibrate_cost_model``, the partition
  strategy's ``partition`` and ``BBForest.build``) and the write-ahead
  log's appends are wrapped by :func:`patched` for the traced pass only.

A span is ``{id, root, parent, name, start, end, attrs}``; spans of one
request share ``root``.  Self time is a span's duration minus the
durations of its direct children (children run on the parent's thread,
one after another).  Spans stay in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import json
import statistics
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = ["Tracer", "TracedStage", "TracedEngine", "call", "patched", "span_cost"]


class Tracer:
    """Thread-safe in-memory span recorder."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[Dict[str, Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Dict[str, Any]]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        record: Dict[str, Any] = {"name": name, "attrs": attrs}
        record["parent"] = parent["id"] if parent is not None else None
        with self._lock:
            record["id"] = len(self.spans)
            record["root"] = parent["root"] if parent is not None else record["id"]
            self.spans.append(record)
        stack.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()

    def named(self, name: str) -> List[Dict[str, Any]]:
        return [s for s in self.spans if s["name"] == name and "end" in s]

    def self_seconds(self) -> Dict[int, float]:
        """Span id -> duration minus the durations of its direct children."""
        own = {s["id"]: s["end"] - s["start"] for s in self.spans if "end" in s}
        for s in self.spans:
            if s["parent"] is not None and s["id"] in own and s["parent"] in own:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def dump(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, default=float) + "\n")


def span_cost(n: int = 20000) -> float:
    """Seconds one empty span costs here: the median of five rounds."""
    tracer, per_round, rounds = Tracer(), n // 5, []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(per_round):
            with tracer.span("probe"):
                pass
        rounds.append((time.perf_counter() - start) / per_round)
    return statistics.median(rounds)


def call(tracer: Optional[Tracer], name: str, fn: Callable, *args, **attrs):
    """``fn(*args)``, inside a span when tracing; returns ``(result, span)``."""
    if tracer is None:
        return fn(*args), None
    with tracer.span(name, **attrs) as record:
        result = fn(*args)
    return result, record


def _observe(stage: str, ctx) -> Dict[str, Any]:
    """The counters a stage leaves on the query context."""
    if stage == "plan":
        snap = ctx.snapshot
        return {
            "queries": ctx.n_queries,
            "k": ctx.k,
            "candidates": int(sum(ids.size for ids in ctx.candidates)),
            "leaves": int(sum(fs.leaves_visited for fs in ctx.forest_stats)),
            "live": int(snap.n_live) if snap is not None else 0,
        }
    if stage == "fetch":
        shard_seconds = list(ctx.shard_seconds) if ctx.shard_seconds else None
        return {"shard_seconds": shard_seconds}
    if stage == "refine":
        pairs = int(sum(ids.size for ids in ctx.candidates))
        if ctx.single:
            cells = pairs
        elif ctx.refine_kernel == "dense":
            cells = int(ctx.union.size) * ctx.n_queries
        elif ctx.refine_kernel == "sparse":
            cells = pairs
        else:
            cells = 0
        return {
            "kernel": "dense" if ctx.single else ctx.refine_kernel,
            "backend": ctx.refine_backend,
            "cells": cells,
            "pairs": pairs,
        }
    if stage == "rerank":
        snap = ctx.snapshot
        delta = snap.delta if snap is not None else None
        return {
            "delta_candidates": int(sum(ctx.delta_candidates or [])),
            "delta_size": (delta.n_inserts + len(delta.tombstones)) if delta else 0,
        }
    return {}


class TracedStage:
    """A pipeline stage run inside a ``pipeline.<name>`` span."""

    def __init__(self, stage, tracer: Tracer) -> None:
        self._stage = stage
        self._tracer = tracer
        self.name = stage.name

    def run(self, ctx) -> None:
        with self._tracer.span("pipeline." + self.name) as record:
            self._stage.run(ctx)
            record["attrs"].update(_observe(self.name, ctx))

    def __getattr__(self, attr: str):
        return getattr(self._stage, attr)


def trace_pipeline(index, tracer: Tracer) -> None:
    """Splice :class:`TracedStage` wrappers into the index's pipeline."""
    index.pipeline.stages = [TracedStage(s, tracer) for s in index.pipeline.stages]


class TracedEngine:
    """Stands in for the index behind ``MicroBatcher``.

    Each ``search_batch`` runs inside a ``core.search_batch`` span; the
    batch's execution seconds are kept per response object so the client
    can split its latency into queue wait and execution.
    """

    def __init__(self, index, tracer: Tracer) -> None:
        self._index = index
        self._tracer = tracer
        self.exec_seconds: Dict[int, float] = {}
        self.n_batches = 0

    def search_batch(self, queries, k: int):
        unit = self.n_batches
        self.n_batches += 1
        result, record = call(
            self._tracer, "core.search_batch", self._index.search_batch, queries, k,
            unit=unit,
        )
        seconds = record["end"] - record["start"]
        for response in result.results:
            self.exec_seconds[id(response)] = seconds
        return result

    def __getattr__(self, attr: str):
        return getattr(self._index, attr)


def _wrap(
    tracer: Tracer, name: str, fn: Callable, probe: Optional[Callable[..., dict]]
) -> Callable:
    def traced(*args, **kwargs):
        before = probe(*args) if probe is not None else {}
        with tracer.span(name) as record:
            result = fn(*args, **kwargs)
        if probe is not None:
            after = probe(*args)
            record["attrs"].update({key: after[key] - before[key] for key in after})
        return result

    return traced


@contextmanager
def patched(tracer: Tracer, targets: Sequence[Tuple]) -> Iterator[None]:
    """Wrap ``owner.attr`` in a span for each ``(owner, attr, name[,
    probe])`` target and restore every original on exit.

    Owners are modules or classes.  A ``probe`` is called with the
    call's positional arguments before and after it and returns a dict
    of numbers; the span's attributes record how much each grew (read
    outside the span, so probing adds nothing to its time).
    """
    saved = []
    try:
        for owner, attr, name, *probe in targets:
            own = attr in vars(owner)
            original = vars(owner)[attr] if own else getattr(owner, attr)
            saved.append((owner, attr, own, original))
            wrapped = _wrap(tracer, name, getattr(owner, attr), *(probe or [None]))
            setattr(owner, attr, wrapped)
        yield
    finally:
        for owner, attr, own, original in reversed(saved):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
