"""BB-forest: one BB-tree per partitioned subspace, sharing a disk layout.

Paper Section 6: after dimensionality partitioning, a BB-tree is built in
a randomly selected subspace and the full high-dimensional points are
written to disk clustered by that tree's leaf order; the remaining trees
store the same addresses in their leaves.  Because PCCP makes clusters in
different subspaces similar, range queries in different subspaces then
touch largely the same pages -- the per-query page deduplication in
:class:`~repro.storage.io_stats.DiskAccessTracker` turns that overlap
into measured I/O savings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..divergences.base import DecomposableBregmanDivergence
from ..exceptions import InvalidParameterError, NotFittedError
from ..partitioning.scheme import Partitioning
from .tree import BBTree, RangeBatch, RangeResult

__all__ = ["BBForest", "ForestRangeStats", "COVER_GAP"]

#: Largest share of the required pages that the fast pass may leave
#: unproven for the covered-batch proof to bisect the pairs above them
#: (the targeted step); past it the batch takes the ordinary rounds.
#: Measured on perfbench's ``serve`` (sift, 4 shards) and ``audio``
#: shapes, seeds 1-3, 256 queries each, on a 2-vCPU Xeon with NumPy
#: 2.4: the fast pass leaves at most 1.8% unproven in every B=32 batch
#: (35 of 48 none), a median of 1-4% at B=8, 10-11% at B=4 and 25-27%
#: at B=2.  Plan ms per query (best of 7 interleaved passes) at a share
#: of 0 / 0.05 / 1 (never / bounded / always targeted): sift B=2 3.8 /
#: 3.6 / 5.1, B=8 1.6 / 1.3 / 1.4; audio B=2 5.3 / 5.1 / 6.3, B=8 2.6
#: / 1.1 / 1.2.  Always targeting costs small batches, whose gaps are
#: wide and rarely close; never targeting leaves B=8 batches with a
#: few unproven pages on the ordinary rounds.
COVER_GAP = 0.05


@dataclass
class ForestRangeStats:
    """Diagnostics for one multi-subspace range query.

    In a covered batch (``covered``) the query's candidates are every
    required id: both counts are that number, and ``leaves_visited``
    counts the leaves the proof showed the query keeps.
    """

    per_subspace_candidates: List[int]
    union_candidates: int
    leaves_visited: int
    covered: bool = False


class BBForest:
    """M BB-trees over the M subspaces of a partitioning.

    Parameters
    ----------
    divergence:
        The full-space decomposable divergence; each tree uses its
        restriction to the subspace dimensions.
    partitioning:
        The dimension partitioning (from :mod:`repro.partitioning`).
    leaf_capacity:
        Per-tree leaf capacity.
    rng:
        Randomness for tree construction and seed-subspace choice.
    """

    def __init__(
        self,
        divergence: DecomposableBregmanDivergence,
        partitioning: Partitioning,
        leaf_capacity: int = 64,
        rng: np.random.Generator | None = None,
    ) -> None:
        self.divergence = divergence
        self.partitioning = partitioning
        self.leaf_capacity = int(leaf_capacity)
        self.rng = rng if rng is not None else np.random.default_rng()
        self.trees: List[BBTree] = []
        self.layout_order: np.ndarray | None = None
        self.seed_subspace: int | None = None

    def build(self, points: np.ndarray) -> "BBForest":
        """Build all M trees and derive the shared disk layout.

        The layout order is the leaf order of the tree built on a
        randomly chosen seed subspace (paper Section 6).
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        m = self.partitioning.n_partitions
        self.seed_subspace = int(self.rng.integers(m))
        self.trees = [None] * m  # type: ignore[list-item]

        seed_dims = self.partitioning.subspaces[self.seed_subspace]
        seed_tree = BBTree(
            self.divergence.restrict(seed_dims),
            leaf_capacity=self.leaf_capacity,
            rng=self.rng,
        ).build(points[:, seed_dims])
        self.trees[self.seed_subspace] = seed_tree
        self.layout_order = seed_tree.leaf_order()

        for i, dims in enumerate(self.partitioning.subspaces):
            if i == self.seed_subspace:
                continue
            self.trees[i] = BBTree(
                self.divergence.restrict(dims),
                leaf_capacity=self.leaf_capacity,
                rng=self.rng,
            ).build(points[:, dims])
        return self

    def _require_built(self) -> List[BBTree]:
        if not self.trees or self.layout_order is None:
            raise NotFittedError("BBForest.build() must be called before searching")
        return self.trees

    def range_union(
        self,
        query_subvectors: Sequence[np.ndarray],
        radii: Sequence[float],
        point_filter: bool = False,
    ) -> tuple[np.ndarray, ForestRangeStats]:
        """Union of per-subspace range-query candidates (filter step).

        ``query_subvectors[i]`` and ``radii[i]`` address tree ``i``; the
        union of the M candidate sets is Theorem 3's final candidate set.
        """
        trees = self._require_built()
        per_counts: List[int] = []
        chunks: List[np.ndarray] = []
        leaves = 0
        for tree, sub_query, radius in zip(trees, query_subvectors, radii):
            result: RangeResult = tree.range_query(sub_query, radius, point_filter=point_filter)
            per_counts.append(int(result.point_ids.size))
            leaves += result.leaves_visited
            if result.point_ids.size:
                chunks.append(result.point_ids)
        union = (
            np.unique(np.concatenate(chunks)) if chunks else np.empty(0, dtype=int)
        )
        stats = ForestRangeStats(
            per_subspace_candidates=per_counts,
            union_candidates=int(union.size),
            leaves_visited=leaves,
        )
        return union, stats

    def range_union_batch(
        self,
        query_submatrices: Sequence[np.ndarray],
        radii: np.ndarray,
        point_filter: bool = False,
        cover: Optional[np.ndarray] = None,
    ) -> tuple[List[np.ndarray], List[ForestRangeStats]]:
        """Batched :meth:`range_union`: one batched range query per tree.

        ``query_submatrices[i]`` is the ``(B, d_i)`` stack of the batch's
        subvectors in subspace ``i`` and ``radii[:, i]`` their range
        radii.  Tree ``i`` answers all ``B`` queries in one
        :class:`~repro.bbtree.tree.RangeBatch` over its flat view
        (:meth:`range_batches`, then :meth:`range_unions`).  Returns
        per-query candidate unions and per-query stats.

        ``cover`` turns on the covered-batch proof: each id's page, or
        ``-1`` for an id no page requires (a dead row).  After the fast
        pass, the ids in leaves whose whole root path is YES for some
        query are proven candidates.  If their pages are every page an
        id requires -- directly, or after bisecting only the pairs above
        the unproven pages while those are at most :data:`COVER_GAP` of
        them -- the batch is *covered*: the filter would read every
        required page, so every query's union is the one array of
        required ids and no further pair is decided.  Otherwise the
        rounds finish from the pairs already decided and the unions are
        exactly what they are without ``cover``.  Only leaf-level
        candidates can be proven, so ``cover`` needs ``point_filter``
        off.
        """
        batches = self.range_batches(query_submatrices)
        return self.range_unions(batches, radii, point_filter, cover)

    def range_batches(self, query_submatrices: Sequence[np.ndarray]) -> List[RangeBatch]:
        """One :class:`~repro.bbtree.tree.RangeBatch` per tree over the
        batch's subvectors (shaped as :meth:`range_union_batch` takes
        them), with its center divergences computed and no radius
        applied yet."""
        trees = self._require_built()
        m = len(trees)
        if len(query_submatrices) != m:
            raise InvalidParameterError(
                f"query_submatrices must hold {m} matrices of shape (B, d_i), "
                f"one per subspace, got {len(query_submatrices)}"
            )
        subs = [np.asarray(sub, dtype=float) for sub in query_submatrices]
        b = subs[0].shape[0] if subs[0].ndim == 2 else None
        for i, (sub, dims) in enumerate(zip(subs, self.partitioning.subspaces)):
            if b is None or sub.shape != (b, dims.size):
                raise InvalidParameterError(
                    f"query_submatrices[{i}] must have shape (B, {dims.size}), "
                    f"with the same B in every subspace, got {sub.shape}"
                )
        return [tree.range_batch(sub) for tree, sub in zip(trees, subs)]

    def range_unions(
        self,
        batches: Sequence[RangeBatch],
        radii: np.ndarray,
        point_filter: bool = False,
        cover: Optional[np.ndarray] = None,
    ) -> tuple[List[np.ndarray], List[ForestRangeStats]]:
        """:meth:`range_union_batch` over :meth:`range_batches`' output,
        each started at its column of ``radii``."""
        m = len(batches)
        b = batches[0].queries.shape[0]
        radii = np.asarray(radii, dtype=float)
        if radii.shape != (b, m):
            raise InvalidParameterError(
                f"radii must have shape (B, M) = ({b}, {m}), got {radii.shape}"
            )
        if cover is not None and point_filter:
            raise InvalidParameterError("cover needs point_filter=False")
        for i, batch in enumerate(batches):
            batch.start(radii[:, i])
        if cover is not None and _covers(batches, cover):
            required = np.flatnonzero(cover >= 0)
            leaves = sum(batch.leaves_kept(batch.kept()) for batch in batches)
            stats = [
                ForestRangeStats(
                    per_subspace_candidates=[required.size] * m,
                    union_candidates=int(required.size),
                    leaves_visited=int(leaves[q]),
                    covered=True,
                )
                for q in range(b)
            ]
            return [required] * b, stats
        n = self.layout_order.size
        per_counts = np.zeros((b, m), dtype=int)
        leaves = np.zeros(b, dtype=int)
        chunks: List[List[np.ndarray]] = [[] for _ in range(b)]
        for i, batch in enumerate(batches):
            result = batch.result(point_filter)
            leaves += result.leaves_visited
            for q, ids in enumerate(result.point_ids):
                per_counts[q, i] = ids.size
                if ids.size:
                    chunks[q].append(ids)
        # Union by id-membership mask: O(n) per query and already sorted,
        # cheaper than sort-based np.unique on the concatenated chunks.
        member = np.zeros(n, dtype=bool)
        unions = []
        for parts in chunks:
            if not parts:
                unions.append(np.empty(0, dtype=int))
                continue
            member[:] = False
            for ids in parts:
                member[ids] = True
            unions.append(np.flatnonzero(member))
        stats = [
            ForestRangeStats(
                per_subspace_candidates=per_counts[q].tolist(),
                union_candidates=int(unions[q].size),
                leaves_visited=int(leaves[q]),
            )
            for q in range(b)
        ]
        return unions, stats

    def extended(self, points: np.ndarray) -> "BBForest":
        """A new forest over ``points`` (the old points plus appended rows).

        Extend-merge path: every tree is cloned via
        :meth:`~repro.bbtree.tree.BBTree.extended` with the appended rows
        inserted, the seed-subspace choice is preserved, and the shared
        disk layout keeps the old order with the new logical ids appended
        (matching :meth:`~repro.storage.datastore.DataStore.extended`).
        The receiver is never mutated -- pinned snapshots keep searching
        it -- and its rng state does not advance (clones draw from child
        streams).
        """
        self._require_built()
        points = np.atleast_2d(np.asarray(points, dtype=float))
        n_old = self.layout_order.size
        if points.shape[0] < n_old:
            raise InvalidParameterError(
                "extended() expects the old points plus appended rows"
            )
        new_ids = np.arange(n_old, points.shape[0])
        forest = BBForest(
            self.divergence,
            self.partitioning,
            leaf_capacity=self.leaf_capacity,
            rng=self.rng,
        )
        forest.seed_subspace = self.seed_subspace
        forest.trees = [
            tree.extended(points[np.ix_(new_ids, dims)], new_ids)
            for tree, dims in zip(self.trees, self.partitioning.subspaces)
        ]
        forest.layout_order = np.concatenate([self.layout_order, new_ids])
        return forest

    def shard_assignment(self, n_shards: int) -> np.ndarray:
        """Per-point shard ids: seed-tree leaves striped round-robin.

        Striping whole leaves (rather than raw layout positions) keeps
        each cluster's points on one disk -- a leaf fetch stays local to
        a single shard -- while spreading consecutive clusters across
        shards so a batch's candidate fan-out load-balances.  Returns an
        array indexed by logical point id.
        """
        self._require_built()
        if n_shards < 1:
            raise InvalidParameterError(f"n_shards must be >= 1, got {n_shards}")
        assignment = np.empty(self.layout_order.size, dtype=int)
        seed_tree = self.trees[self.seed_subspace]
        for i, leaf in enumerate(seed_tree.leaves()):
            assignment[leaf.point_ids] = i % n_shards
        return assignment

    def count_nodes(self) -> int:
        """Total nodes across all trees."""
        return sum(tree.count_nodes() for tree in self._require_built())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "built" if self.trees else "empty"
        return (
            f"BBForest(M={self.partitioning.n_partitions}, "
            f"leaf_capacity={self.leaf_capacity}, {state})"
        )


def _covers(batches: Sequence[RangeBatch], cover: np.ndarray) -> bool:
    """The covered-batch proof of :meth:`BBForest.range_union_batch`."""
    live = cover >= 0
    required = np.zeros(cover.max() + 1, dtype=bool)
    required[cover[live]] = True
    gap = _unproven(batches, cover, required)
    n_gap = int(np.count_nonzero(gap))
    if n_gap == 0:
        return True
    if n_gap > COVER_GAP * np.count_nonzero(required):
        return False
    # the targeted step: only the pairs above leaves holding an id on
    # an unproven page
    wanted = np.zeros(cover.size, dtype=bool)
    wanted[live] = gap[cover[live]]
    for batch in batches:
        batch.bisect(batch.flat.root_paths(wanted))
    return not _unproven(batches, cover, required).any()


def _unproven(
    batches: Sequence[RangeBatch], cover: np.ndarray, required: np.ndarray
) -> np.ndarray:
    """Required pages holding no id of a leaf some query is proven to keep."""
    proven = np.zeros(cover.size, dtype=bool)
    for batch in batches:
        proven[batch.flat.leaf_members(batch.kept().any(axis=1))] = True
    pages = cover[proven]
    have = np.zeros_like(required)
    have[pages[pages >= 0]] = True
    return required & ~have
