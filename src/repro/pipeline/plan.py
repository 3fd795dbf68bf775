"""Plan stage: Theorem-1 bounds, Algorithm-4 radii, forest traversal.

Covers Algorithm 6 steps 1-3 for every query of the context at once:
batched query triples, one bound tensor, all search radii from one
``argpartition`` (including the index's ``_adjust_radii_batch`` hook,
which the approximate extension overrides), one batched range query
per BB-forest tree (a dense fast-path pass over the tree's flat node
array, then bisection rounds over the (node, query) pairs still open;
see :mod:`repro.bbtree.flat`), and the per-query widening recovery
when adjusted radii return fewer than ``k`` candidates.  A single
search is the same run at ``B = 1``.

Covered batches: a batch of two or more queries without
``point_filter`` first tries to prove, from the fast pass, that its
filter would read every page holding a live frozen row
(:meth:`~repro.bbtree.forest.BBForest.range_union_batch` with the
store's :attr:`~repro.storage.sharded.ShardedDataStore.page_of`, dead
rows excluded).  When it can, the bisection rounds are skipped and
every query's candidates are all live frozen rows, one shared array
(``ctx.covered``).  The proven rows are a subset of the filter's
candidates, which are live rows, so such a batch reads exactly the
filter's pages, and Rerank over a superset of each query's true
candidates returns the same bits.  An uncovered batch keeps its filter
candidates bitwise.  A single search never tries the proof: one
query's fast pass rarely proves the file, and the attempt would cost
it time.  Nor does an index with ``shard_failure="partial"``: there a
query's candidates also decide whether a dead shard dooms it, and a
covered query would depend on every shard.  On an approximate index
without ``point_filter`` (its shrunken radii can miss true
neighbours) a covered batch refines every live row, so it returns the
exact kNN at the filter's page cost.

The bound tensor spans only the rows that can hold a query's ``k_plan``
smallest Theorem-1 bounds
(:meth:`~repro.core.transforms.SubspaceTransforms.search_bounds_batch`):
at ``M = 1`` the base's k-skyband, the rows fewer than ``k_plan``
others dominate in ``(alpha, gamma)``, which the base ordered once when
it was published; every row at ``M > 1``.  Radii and totals are the
full tensor's bit for bit, and the anchor ids are base rows, which the
approximate extension's radius hook indexes.

Snapshot semantics: all components (transforms, partitioning, forest)
are read through ``ctx.snapshot`` so a concurrent merge can never swap
structures mid-plan.  When the snapshot carries tombstones, Algorithm
4's ``k`` is inflated by the tombstone count (``k_plan``): Theorem 3
then guarantees at least ``k_plan`` frozen candidates, of which at most
``n_dead`` are dead, so at least ``k`` live ones survive the tombstone
filter applied after traversal (or all remaining live frozen points,
when fewer than ``k`` exist -- the delta merge in Rerank supplies the
rest).  Dead rows keep their place in the domination order, so the
k-skyband at ``k_plan`` stays exact on tombstoned and extend-merged
bases.
"""

from __future__ import annotations

import numpy as np

from ..core.transforms import pad_radii
from .base import PipelineStage
from .context import QueryBatchContext

__all__ = ["PlanStage"]


class PlanStage(PipelineStage):
    name = "plan"

    def run(self, ctx: QueryBatchContext) -> None:
        index = self.index
        snap = ctx.snapshot
        transforms, forest = snap.transforms, snap.forest
        k_plan = min(snap.n_frozen, ctx.k + snap.n_dead)
        queries = ctx.queries
        triples = transforms.query_triples_batch(queries)
        search_bounds = transforms.search_bounds_batch(triples, k_plan)
        exact_radii = pad_radii(search_bounds.radii)
        radii = pad_radii(index._adjust_radii_batch(search_bounds, triples, transforms))

        sub_matrices = snap.partitioning.split_matrix(queries)
        point_filter = index.config.point_filter
        cover = None
        partial = index.config.shard_failure == "partial"
        if ctx.n_queries >= 2 and not point_filter and not partial:
            cover = self._required_pages(snap)
        candidates, forest_stats = forest.range_union_batch(
            sub_matrices, radii, point_filter=point_filter, cover=cover
        )
        ctx.covered = cover is not None and forest_stats[0].covered
        if not ctx.covered:  # else the candidates are every live frozen row
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
                candidates[q] = snap.filter_live(candidates[q])
        ctx.candidates = candidates
        ctx.forest_stats = forest_stats
        ctx.bound_totals = np.asarray(search_bounds.totals, dtype=float)

    @staticmethod
    def _required_pages(snap) -> np.ndarray:
        """Each frozen row's page on the snapshot's store, ``-1`` for
        rows it holds dead: the covered-batch proof's map."""
        pages = snap.datastore.page_of
        if snap.dead_mask is None:
            return pages
        return np.where(snap.dead_mask, -1, pages)

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
