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
from typing import List, Sequence

import numpy as np

from ..divergences.base import DecomposableBregmanDivergence
from ..exceptions import InvalidParameterError, NotFittedError
from ..partitioning.scheme import Partitioning
from .tree import BatchRangeResult, BBTree, RangeResult

__all__ = ["BBForest", "ForestRangeStats"]


@dataclass
class ForestRangeStats:
    """Diagnostics for one multi-subspace range query."""

    per_subspace_candidates: List[int]
    union_candidates: int
    leaves_visited: int


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
    ) -> tuple[List[np.ndarray], List[ForestRangeStats]]:
        """Batched :meth:`range_union`: one batched range query per tree.

        ``query_submatrices[i]`` is the ``(B, d_i)`` stack of the batch's
        subvectors in subspace ``i`` and ``radii[:, i]`` their range
        radii.  Tree ``i`` answers all ``B`` queries in one
        :meth:`~repro.bbtree.tree.BBTree.range_query_batch` over its flat
        view.  Returns per-query candidate unions and per-query stats.
        """
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
        radii = np.asarray(radii, dtype=float)
        if radii.shape != (b, m):
            raise InvalidParameterError(
                f"radii must have shape (B, M) = ({b}, {m}), got {radii.shape}"
            )
        n = self.layout_order.size
        per_counts = np.zeros((b, m), dtype=int)
        leaves = np.zeros(b, dtype=int)
        chunks: List[List[np.ndarray]] = [[] for _ in range(b)]
        for i, (tree, sub_queries) in enumerate(zip(trees, subs)):
            result: BatchRangeResult = tree.range_query_batch(
                sub_queries, radii[:, i], point_filter=point_filter
            )
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
