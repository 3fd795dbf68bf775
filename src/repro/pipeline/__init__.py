"""The staged search pipeline (Plan -> Fetch -> Refine -> Rerank).

Four small stage objects transform one shared :class:`QueryBatchContext`
holding ``B`` query rows:

``Plan``
    Theorem-1 bound tensor, Algorithm-4 radii (plus the approximate
    extension's radius-adjustment hook), batched BB-forest traversal and
    the short-candidate widening recovery.
``Fetch``
    Page-union charging, fanned out one task per shard through the
    :class:`~repro.exec.ShardExecutor`; it copies no vector.
``Refine``
    Adaptive dense/sparse/auto cross-divergence kernel dispatch over the
    union's rows of the pinned frozen base, with the base's cached
    query-independent kernel terms.
``Rerank``
    Direct-kernel top-k with the adaptive noise-floor buffer.

There is one search path: :meth:`~repro.core.index.BrePartitionIndex.search`
runs it at ``B = 1`` and ``search_batch`` at any ``B``, and the serving
layer (:mod:`repro.serve`) and the stage-parity tests call the same
stages.  Each stage preserves the kernels' row/pair bitwise-independence
contracts, so a query's results are bitwise identical at every batch
size and for every divergence, kernel and worker count; each stage's
wall-clock time is recorded in ``stats.stage_seconds``.
"""

from .base import PipelineStage, SearchPipeline, default_stages
from .context import QueryBatchContext
from .fetch import FetchStage, union_rows
from .plan import PlanStage
from .refine import RefineStage, build_pairs
from .rerank import RerankStage, top_k_stable

__all__ = [
    "QueryBatchContext",
    "PipelineStage",
    "SearchPipeline",
    "default_stages",
    "PlanStage",
    "FetchStage",
    "RefineStage",
    "RerankStage",
    "union_rows",
    "build_pairs",
    "top_k_stable",
]
