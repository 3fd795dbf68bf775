"""Stage protocol and the driver that runs a stage list over a context."""

from __future__ import annotations

import time
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .context import QueryBatchContext

__all__ = ["PipelineStage", "SearchPipeline"]


class PipelineStage:
    """One transformation of a :class:`QueryBatchContext`.

    Stages are small, stateless-between-calls objects bound to one
    index; they read tunables from ``self.index.config`` at run time so
    config mutations between searches (kernel pinning, worker counts)
    take effect without rebuilding the pipeline.
    """

    #: key under which the driver records this stage's wall time.
    name: str = "stage"

    def __init__(self, index) -> None:
        self.index = index

    def run(self, ctx: QueryBatchContext) -> None:  # pragma: no cover - interface
        raise NotImplementedError


class SearchPipeline:
    """Run the stage list over a context, timing each stage.

    The default stage list is Plan -> Fetch -> Refine -> Rerank (built
    lazily from :func:`default_stages` to avoid import cycles); callers
    can pass any stage sequence, which is how tests splice
    instrumentation or run partial pipelines.
    """

    def __init__(self, index, stages: Optional[Sequence[PipelineStage]] = None) -> None:
        self.index = index
        if stages is None:
            stages = default_stages(index)
        self.stages: List[PipelineStage] = list(stages)

    def stage(self, name: str) -> PipelineStage:
        """The stage registered under ``name`` (for tests and benchmarks)."""
        for stage in self.stages:
            if stage.name == name:
                return stage
        raise KeyError(f"pipeline has no stage named {name!r}")

    def run(self, ctx: QueryBatchContext) -> QueryBatchContext:
        """Execute every stage in order, recording per-stage seconds."""
        if ctx.snapshot is None:
            # capture one atomic (frozen base, delta) pair so every stage
            # reads a single consistent index state even when callers
            # (benchmarks, tests) drive the pipeline without a driver
            take = getattr(self.index, "snapshot", None)
            if callable(take):
                ctx.snapshot = take()
        for stage in self.stages:
            start = time.perf_counter()
            stage.run(ctx)
            ctx.stage_seconds[stage.name] = time.perf_counter() - start
        return ctx

    def refine_prefetched(
        self, candidates, queries: np.ndarray, k: int
    ) -> QueryBatchContext:
        """Run Refine -> Rerank over candidates whose pages are already paid.

        The entry point of the refinement benchmarks and kernel-parity
        tests: candidate vectors are read I/O-free via ``peek`` (callers
        charge pages themselves), then scored and reranked through the
        same stage objects ``search_batch`` drives, so measured kernels
        are exactly the production ones.  Returns the finished context
        (``refined`` holds the per-query top-k pairs).
        """
        from .fetch import union_rows

        ctx = QueryBatchContext(
            queries=np.atleast_2d(np.asarray(queries, dtype=float)), k=k
        )
        ctx.candidates = [np.asarray(ids, dtype=int) for ids in candidates]
        ctx.union, ctx.row_of = union_rows(
            ctx.candidates, self.index.transforms.n_points
        )
        ctx.vectors = self.index.datastore.peek(ctx.union)
        self.stage("refine").run(ctx)
        self.stage("rerank").run(ctx)
        return ctx

    def refine_looped(
        self, candidates, queries: np.ndarray, k: int
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Reference refinement: one dense kernel call and one top-k per
        query, over per-query gathers.

        The loop structure the blocked kernels replaced, kept as the
        reference the kernel-parity tests compare
        :meth:`refine_prefetched` against: the two must return bitwise
        equal ``(top_ids, divergences)`` pairs under any kernel choice.
        Like :meth:`refine_prefetched` it reads through ``peek``.
        """
        refine, rerank = self.stage("refine"), self.stage("rerank")
        queries = np.atleast_2d(np.asarray(queries, dtype=float))
        refined = []
        for q, ids in enumerate(candidates):
            vectors = self.index.datastore.peek(ids)
            scores = refine.score_dense(vectors, queries[q][None, :])[:, 0]
            refined.append(
                rerank.topk(ids, scores, queries[q], k, lambda sel: vectors[sel])
            )
        return refined


def default_stages(index) -> List[PipelineStage]:
    """The canonical Plan -> Fetch -> Refine -> Rerank stage list."""
    from .fetch import FetchStage
    from .plan import PlanStage
    from .refine import RefineStage
    from .rerank import RerankStage

    return [PlanStage(index), FetchStage(index), RefineStage(index), RerankStage(index)]
