"""The staged search pipeline (Plan -> Fetch -> Refine -> Rerank).

Four small stage objects transform one shared :class:`QueryBatchContext`
holding ``B`` query rows:

``Plan``
    Theorem-1 bound tensor, Algorithm-4 radii (plus the approximate
    extension's radius-adjustment hook), batched BB-forest traversal and
    the short-candidate widening recovery.
``Fetch``
    Page-union charging and vector materialisation -- coalesced on one
    disk, fanned out per shard through the
    :class:`~repro.exec.ShardExecutor` (with modeled I/O latency) on a
    sharded store.
``Refine``
    Adaptive dense/sparse/auto cross-divergence kernel dispatch over the
    union slab.
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
