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
    Certified estimates: one BLAS expansion kernel over the union's
    rows of the pinned frozen base, with the base's cached
    query-independent kernel and bound terms; each estimate carries a
    proved error bound.
``Rerank``
    The certificate (only rows whose bound cannot rule them out
    survive), then direct-kernel top-k over the survivors.

There is one search path: :meth:`~repro.core.index.BrePartitionIndex.search`
runs it at ``B = 1`` and ``search_batch`` at any ``B``, and the serving
layer (:mod:`repro.serve`) and the stage-parity tests call the same
stages.  Every returned divergence comes from the direct kernel, whose
rows are bitwise independent of batch composition, and the certificate
keeps every row that could be a neighbour or a tie, so a query's results
are bitwise identical at every batch size and for every divergence
and worker count; each stage's wall-clock time is recorded in
``stats.stage_seconds``.
"""

from .base import PipelineStage, SearchPipeline, default_stages
from .context import QueryBatchContext
from .fetch import FetchStage, union_rows
from .plan import PlanStage
from .refine import RefineStage
from .rerank import RerankStage, survivors, top_k_stable

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
    "survivors",
    "top_k_stable",
]
