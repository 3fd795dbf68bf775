"""Plan stage: search radii, forest traversal, candidate sets.

Covers Algorithm 6 steps 1-3 for every query of the context at once:
batched query triples, one Theorem-1 bound tensor, every query's search
radii, one batched range query per BB-forest tree (each (node, query)
pair's center divergences, a dense fast-path pass over the tree's flat
node array, then bisection rounds over the pairs still open; see
:mod:`repro.bbtree.flat`), and the per-query widening recovery when
adjusted radii return fewer than ``k`` candidates.  A single search is
the same run at ``B = 1``, except for where its radius comes from.

Two radius rules.  Theorem 3 needs only an anchor whose divergence to
the query is at least its ``k``-th neighbour's; the rules differ in
where the anchor comes from.

* A batch of two or more queries takes Algorithm 4's radii: the
  components of each query's ``k_plan``-th smallest Theorem-1 bound,
  passed through the index's ``_adjust_radii_batch`` hook (which the
  approximate extension overrides).  The bound sees a point only
  through ``(alpha, gamma)``, so the anchor is one of the same few
  low-energy rows for every query: on one query these radii keep about
  three quarters of the file.
* A single search takes its radius from seed rows scored exactly.  The
  seed-subspace tree's leaves are visited in ascending ``D(center,
  q)`` -- the range batch's center divergences, computed before any
  radius -- and their rows taken until at least ``SEED_FACTOR * k`` of
  them are live: the leaves nearest the query, a page or two of the
  leaf-ordered file, where Cayton's BB-tree search starts ("Fast
  Nearest Neighbor Retrieval for Bregman Divergences", ICML 2008).  The
  live seeds are scored with the fixed-order certified estimate and its
  bound on the snapshot's conditioner
  (:func:`~repro.pipeline.refine.certified_scores`: no direct-kernel
  call, and no BLAS, so no thread count changes the radius).  The
  ``k``-th smallest estimate + bound is at least the ``k``-th smallest
  direct-kernel value among the seeds, so at least the ``k``-th over
  the live frozen rows: every frozen true neighbour, and every tie, lies
  within it.  The radius ``r`` is the smaller of that and the Theorem-1
  total, so no query's radius grows.  At ``M > 1`` it is split over the
  subspaces in proportion to the anchor seed's per-subspace estimates;
  by Theorem 3's union argument any non-negative split that sums to
  ``r`` is exact.  The seeds join the query's candidates before the
  tombstone filter, so rounding in the ball tests can never prune the
  anchor, and Fetch charges their pages like any other candidate's.  A
  query the divergence cannot estimate (``estimable``), and a base with
  fewer than ``k`` live frozen rows, keep the Theorem-1 radius.

Why batches keep Theorem 1.  Under each query's seed radius, none of
eight B=32 batches of perfbench's ``serve`` workload (seed 11) stays
covered (see below), against all eight under Theorem 1: the forest's
range work per batch rises from 2.4 to 22.4 ms, while the pages the
batch coalesces fall only from 315.0 to 314.5, since a batch's union
spans most of the file under either radius.  The
covered-batch proof reasons about the Theorem-1 filter, so batches keep
it.  The rule keys on the batch size, as the rule for trying the proof
does.

The approximate extension's radius hook shrinks each subspace's
Theorem-1 radius (Proposition 1).  On a single search Plan scales the
seed radii by the same per-subspace factor, clipped to ``[0, 1]``
(:func:`_shrink`), in the one range pass; the seeds still join the
candidates.  The ball tests decide monotonically in the radius (a
certain NO at a radius stays NO at any smaller one), so ABP's rows are
a subset of the exact index's and a lower ``p`` reads no more than a
higher one.  Their probes move with the radius, so this holds by the
monotonicity of the divergences along the geodesic: two radii within
rounding of each other and of a pair's tangency are the one exception,
where either answer is rounding.  Proposition 1's probability is proved for the Theorem-1
anchor, whose slack is the Cauchy term; a seed radius has no such
slack, so at ``B = 1`` the factor is the same knob without that proof.
On ``examples/approximate_tradeoff.py`` (audio proxy, n = 3000, M = 8,
k = 20, 15 queries) pages per search go 10.5 for the exact index, then
9.3, 8.3, 7.6 and 5.5 for p = 0.9, 0.8, 0.7 and 0.5, at an overall
ratio of 1.000 down to p = 0.7 and 1.005 at p = 0.5.  A seed radius is
close to the ``k``-th neighbour's divergence, so the shrink cuts into
the true neighbours sooner than it does from a Theorem-1 radius: on
Fig. 15's ``normal`` set (n = 3000, M = 8, k = 20) recall is 0.74,
0.66 and 0.59 at p = 0.9, 0.8 and 0.7, below ``p``.

``ctx.bound_totals`` holds the total radius each query's range ran with
under the exact rule (before :func:`~repro.core.transforms.pad_radii`'s
slack, which both rules keep, and before the approximate extension's
shrink): the seed radius on a single search that took one, the
Theorem-1 total otherwise.

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
candidates bitwise.  Neither Plan nor Rerank scans a covered batch's
pairs exactly: from :data:`~repro.geometry.projection.BLAS_MIN_QUERIES`
queries on, the fast pass decides each (node, query) pair from BLAS
estimates of its center divergences under a proved bound, with the
fixed-order formula only for the pairs inside the bound's margin and
those the proof's targeted step bisects
(:class:`~repro.geometry.projection.BatchRangeProber`), and Rerank
finds each query's certificate threshold from a strided sample and
runs the certificate only on the rows one thresholded compare keeps
(:mod:`repro.pipeline.rerank`).  On perfbench's ``serve`` (B=32, every
query refining all 20,000 rows) that took Plan from about 2.3 to 1.4
ms and Rerank from 1.9 to 1.3 ms per batch, with every decision,
candidate, page and result unchanged.  A single search never tries the
proof: one query's fast pass rarely proves the file, and the attempt
would cost it time.  Nor does an index with
``shard_failure="partial"``: there a query's candidates also decide
whether a dead shard dooms it, and a covered query would depend on
every shard.  On an approximate index
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

Snapshot semantics: all components (transforms, partitioning, forest,
the base's rows and cached terms) are read through ``ctx.snapshot`` so
a concurrent merge can never swap structures mid-plan.  When the
snapshot carries tombstones, Algorithm 4's ``k`` is inflated by the
tombstone count (``k_plan``): Theorem 3 then guarantees at least
``k_plan`` frozen candidates, of which at most ``n_dead`` are dead, so
at least ``k`` live ones survive the tombstone filter applied after
traversal (or all remaining live frozen points, when fewer than ``k``
exist -- the delta merge in Rerank supplies the rest).  Dead rows keep
their place in the domination order, so the k-skyband at ``k_plan``
stays exact on tombstoned and extend-merged bases.  Seed radii count
live seeds only, so they need no inflation.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.transforms import pad_radii
from .base import PipelineStage
from .context import QueryBatchContext
from .refine import certified_scores

__all__ = ["PlanStage", "SEED_FACTOR"]

#: A single search scores the rows of its nearest leaves until at least
#: this many times ``k`` are live.  Pages per search on perfbench's
#: ``mutate`` index (seed 11, 120 queries, k=10) at 1, 2, 3 and 4 times
#: ``k``: 65.2, 61.0, 59.6 and 59.1, against 219.4 under Theorem 1; past
#: 2 each step saves under 3% of the pages for more rows scored.
SEED_FACTOR = 2


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
        adjusted = index._adjust_radii_batch(search_bounds, triples, transforms)
        radii = pad_radii(adjusted)
        sub_matrices = snap.partitioning.split_matrix(queries)
        point_filter = index.config.point_filter
        ctx.bound_totals = np.asarray(search_bounds.totals, dtype=float)
        if ctx.n_queries == 1:
            # the seed rule reads the leaf order before choosing a radius,
            # so a single search builds its range batches first
            batches = forest.range_batches(sub_matrices)
            seeded = self.seed_radii(
                snap, batches[forest.seed_subspace], queries[0], ctx.k, ctx.bound_totals[0]
            )
            if seeded is not None:
                shrink = _shrink(adjusted, search_bounds.radii)
                self._plan_seeded(ctx, snap, batches, shrink, *seeded)
                return
            ranged = forest.range_unions(batches, radii, point_filter)
        else:
            cover = None
            partial = index.config.shard_failure == "partial"
            if ctx.n_queries >= 2 and not point_filter and not partial:
                cover = self._required_pages(snap)
            ranged = forest.range_union_batch(
                sub_matrices, radii, point_filter=point_filter, cover=cover
            )
        self._plan_theorem1(
            ctx, snap, ranged, sub_matrices, radii, pad_radii(search_bounds.radii), k_plan
        )

    def seed_radii(self, snap, batch, query: np.ndarray, k: int, total: float):
        """``(seeds, radii, r)`` of a single search, or ``None`` where it
        keeps the Theorem-1 radius.

        ``batch`` is the query's range batch on the seed-subspace tree,
        ``total`` its Theorem-1 total.  ``seeds`` are the frozen rows of
        its nearest leaves (dead ones included), ``r`` the ``k``-th
        smallest estimate + bound over the live ones and ``radii`` its
        ``(1, M)`` split.  ``None`` when fewer than ``k`` frozen rows are
        live, when the divergence refuses the query (NaN estimates), or
        when ``r`` is no smaller than ``total``.
        """
        if snap.n_frozen - snap.n_dead < k:
            return None
        live = None if snap.dead_mask is None else ~snap.dead_mask
        seeds = _nearest_rows(batch, live, SEED_FACTOR * k)
        scored = seeds if live is None else seeds[live[seeds]]
        base = snap.base
        estimates, bounds = certified_scores(
            self.index.divergence,
            base.points[scored],
            query[None, :],
            base.refine_conditioner,
            base.row_terms.take(scored),
        )
        upper = estimates[:, 0] + bounds[:, 0]
        anchor = np.argpartition(upper, k - 1)[k - 1]
        radius = upper[anchor]
        if not radius < total:  # NaN for a refused query, or no tighter
            return None
        radii = _split(snap, base.points[scored[anchor]], query, radius)
        return seeds, radii, float(radius)

    def _plan_seeded(self, ctx, snap, batches, shrink, seeds, radii, radius):
        """A single search's candidates under its seed radii, each scaled
        by ``shrink`` (1 on the exact index)."""
        ranged, stats = snap.forest.range_unions(
            batches, pad_radii(radii * shrink), self.index.config.point_filter
        )
        ctx.candidates = [snap.filter_live(np.union1d(ranged[0], seeds))]
        ctx.forest_stats = stats
        ctx.bound_totals = np.array([radius])

    def _plan_theorem1(
        self, ctx, snap, ranged, sub_matrices, radii, exact_radii, k_plan
    ) -> None:
        """Candidates from the ``ranged`` unions and stats of Algorithm
        4's (padded) ``radii``: every batch, and a single search without
        a seed radius."""
        candidates, forest_stats = ranged
        ctx.covered = any(stats.covered for stats in forest_stats)
        if not ctx.covered:  # else the candidates are every live frozen row
            for q in range(ctx.n_queries):
                if candidates[q].size < k_plan:
                    sub_queries = [mat[q] for mat in sub_matrices]
                    candidates[q], forest_stats[q] = self.widen_if_short(
                        snap.forest,
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
        ``k_plan``, so the guarantee survives the filter.  A single
        search under a seed radius never needs it: its seeds alone hold
        ``k`` live rows.  Every radius runs through the query's one set
        of range batches, so each attempt pays only the fast pass and
        the batched ball tests.
        """
        if candidates.size >= k or np.array_equal(radii, exact_radii):
            return candidates, forest_stats
        point_filter = self.index.config.point_filter
        batches = forest.range_batches([sub[None, :] for sub in sub_queries])

        def union_at(at):
            unions, stats = forest.range_unions(batches, at[None, :], point_filter)
            return unions[0], stats[0]

        lo, hi = 0.0, 1.0
        best = union_at(exact_radii)
        for _ in range(8):
            mid = 0.5 * (lo + hi)
            attempt = union_at(radii + mid * (exact_radii - radii))
            if attempt[0].size >= k:
                best = attempt
                hi = mid
            else:
                lo = mid
        return best


def _nearest_rows(batch, live: Optional[np.ndarray], want: int) -> np.ndarray:
    """The rows of ``batch``'s leaves in ascending ``D(center, q)`` for
    its one query, leaf by leaf until ``want`` of them are ``live`` (or
    the leaves run out)."""
    flat = batch.flat
    parts = []
    n_live = 0
    for leaf in batch.nearest_leaves(0):
        rows = flat.leaf_points(leaf)
        parts.append(rows)
        n_live += rows.size if live is None else int(np.count_nonzero(live[rows]))
        if n_live >= want:
            break
    return np.concatenate(parts)


def _shrink(adjusted: np.ndarray, exact: np.ndarray):
    """The factor, per subspace and in ``[0, 1]``, by which the radius
    hook shrank the Theorem-1 radii ``exact`` to ``adjusted``: ``1.0``
    when it left them as they were (the exact index), and in a subspace
    whose Theorem-1 radius is not positive and finite or whose ratio is
    NaN."""
    if np.array_equal(adjusted, exact):
        return 1.0
    ratio = np.divide(
        adjusted, exact, out=np.ones_like(exact), where=np.isfinite(exact) & (exact > 0.0)
    )
    return np.where(np.isnan(ratio), 1.0, np.clip(ratio, 0.0, 1.0))


def _split(snap, anchor: np.ndarray, query: np.ndarray, radius: float) -> np.ndarray:
    """``(1, M)`` radii summing to ``radius``, in proportion to the
    anchor's per-subspace estimates (evenly when those are not positive
    and finite).

    Each share is the subspace's fixed-order expansion on the
    conditioned pair, which tracks the anchor's divergence in that
    subspace; any non-negative split is exact, so the shares need no
    bound.
    """
    subspaces = snap.partitioning.subspaces
    if len(subspaces) == 1:
        return np.array([[radius]])
    pair = np.stack([anchor, query])
    conditioner = snap.refine_conditioner
    if conditioner is not None:
        pair = conditioner.transform(pair)
    shares = np.array(
        [
            sub.cross_divergence(pair[:1, dims], pair[1:, dims])[0, 0]
            for sub, dims in zip(snap.transforms.sub_divergences, subspaces)
        ]
    )
    total = shares.sum()
    if not (np.isfinite(total) and total > 0.0):
        shares, total = np.ones(len(subspaces)), float(len(subspaces))
    return (radius * (shares / total))[None, :]
