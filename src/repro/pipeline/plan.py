"""Plan stage: Theorem-1 bounds, Algorithm-4 radii, forest traversal.

Covers Algorithm 6 steps 1-3 for every query of the context at once:
batched query triples, one ``(B, n, M)`` bound tensor, all search radii
from one ``argpartition`` (including the index's
``_adjust_radii_batch`` hook, which the approximate extension
overrides), one batched range query per BB-forest tree (a dense
fast-path pass over the tree's flat node array, then bisection rounds
over the (node, query) pairs still open; see :mod:`repro.bbtree.flat`),
and the per-query widening recovery when adjusted radii return fewer
than ``k`` candidates.  A single search is the same run at ``B = 1``.

Snapshot semantics: all components (transforms, partitioning, forest)
are read through ``ctx.snapshot`` so a concurrent merge can never swap
structures mid-plan.  When the snapshot carries tombstones, Algorithm
4's ``k`` is inflated by the tombstone count (``k_plan``): Theorem 3
then guarantees at least ``k_plan`` frozen candidates, of which at most
``n_dead`` are dead, so at least ``k`` live ones survive the tombstone
filter applied after traversal (or all remaining live frozen points,
when fewer than ``k`` exist -- the delta merge in Rerank supplies the
rest).
"""

from __future__ import annotations

import numpy as np

from ..core.transforms import determine_search_bounds_batch, pad_radii
from .base import PipelineStage
from .context import QueryBatchContext

__all__ = ["PlanStage"]


class PlanStage(PipelineStage):
    name = "plan"

    def run(self, ctx: QueryBatchContext) -> None:
        index = self.index
        transforms, partitioning, forest, k_plan = self._components(ctx)
        queries = ctx.queries
        triples = transforms.query_triples_batch(queries)
        ub_tensor = transforms.upper_bound_tensor(triples)
        search_bounds = determine_search_bounds_batch(ub_tensor, k_plan)
        exact_radii = pad_radii(search_bounds.radii)
        radii = pad_radii(index._adjust_radii_batch(search_bounds, triples))

        sub_matrices = partitioning.split_matrix(queries)
        candidates, forest_stats = forest.range_union_batch(
            sub_matrices, radii, point_filter=index.config.point_filter
        )
        for q in range(ctx.n_queries):
            if candidates[q].size < k_plan:
                sub_queries = [mat[q] for mat in sub_matrices]
                candidates[q], forest_stats[q] = self.widen_if_short(
                    forest,
                    sub_queries,
                    radii[q],
                    exact_radii[q],
                    k_plan,
                    candidates[q],
                    forest_stats[q],
                )
            candidates[q] = self._filter_live(ctx, candidates[q])
        ctx.candidates = candidates
        ctx.forest_stats = forest_stats
        ctx.bound_totals = np.asarray(search_bounds.totals, dtype=float)

    def _components(self, ctx: QueryBatchContext):
        """(transforms, partitioning, forest, k_plan) for this context."""
        snap = ctx.snapshot
        if snap is None:
            index = self.index
            return index.transforms, index.partitioning, index.forest, ctx.k
        k_plan = min(snap.n_frozen, ctx.k + snap.n_dead)
        return snap.transforms, snap.partitioning, snap.forest, k_plan

    def _filter_live(self, ctx: QueryBatchContext, candidates: np.ndarray):
        snap = ctx.snapshot
        if snap is None:
            return candidates
        return snap.filter_live(candidates)

    def widen_if_short(
        self, forest, sub_queries, radii, exact_radii, k, candidates, forest_stats
    ):
        """Recover >= k candidates when adjusted radii were too aggressive.

        Bisects the interpolation between the adjusted and the exact
        radii (which Theorem 3 guarantees yield >= k candidates) for the
        smallest widening that returns at least k.  Exact search radii
        equal the exact radii, so this is a no-op there.  Counts are
        pre-tombstone-filter: ``k`` here is the caller's inflated
        ``k_plan``, so the guarantee survives the filter.
        """
        if candidates.size >= k or np.array_equal(radii, exact_radii):
            return candidates, forest_stats
        point_filter = self.index.config.point_filter
        lo, hi = 0.0, 1.0
        best = forest.range_union(sub_queries, exact_radii, point_filter=point_filter)
        for _ in range(8):
            mid = 0.5 * (lo + hi)
            mid_radii = radii + mid * (exact_radii - radii)
            attempt = forest.range_union(
                sub_queries, mid_radii, point_filter=point_filter
            )
            if attempt[0].size >= k:
                best = attempt
                hi = mid
            else:
                lo = mid
        return best
