"""The "BBT" baseline: a disk-resident full-dimensional BB-tree.

Cayton's BB-tree extended to disk exactly as the paper does for its
comparisons (Section 9.4): the tree is built over the full-dimensional
data, the vectors are laid out on the simulated disk in leaf order, and
the branch-and-bound kNN search fetches each visited leaf's points
through the I/O-charged datastore.
"""

from __future__ import annotations

import time

import numpy as np

from ..bbtree.tree import BBTree
from ..core.results import QueryStats, SearchResult
from ..divergences.base import DecomposableBregmanDivergence
from ..exceptions import InvalidParameterError, NotFittedError
from ..storage.datastore import DataStore
from ..storage.io_stats import DiskAccessTracker

__all__ = ["BBTreeIndex"]


class BBTreeIndex:
    """Exact kNN via a single full-dimensional disk-resident BB-tree."""

    def __init__(
        self,
        divergence: DecomposableBregmanDivergence,
        leaf_capacity: int | None = None,
        page_size_bytes: int = 65536,
        tracker: DiskAccessTracker | None = None,
        seed: int | None = None,
    ) -> None:
        self.divergence = divergence
        self.leaf_capacity = leaf_capacity
        self.page_size_bytes = int(page_size_bytes)
        self.tracker = tracker if tracker is not None else DiskAccessTracker()
        self.rng = np.random.default_rng(seed)
        self.tree: BBTree | None = None
        self.datastore: DataStore | None = None
        self.construction_seconds: float = 0.0

    def build(self, points: np.ndarray) -> "BBTreeIndex":
        """Build the tree and cluster the disk layout by its leaves."""
        start = time.perf_counter()
        points = np.atleast_2d(np.asarray(points, dtype=float))
        self.divergence.validate_domain(points, "dataset")
        d = points.shape[1]
        capacity = (
            self.leaf_capacity
            if self.leaf_capacity is not None
            else max(8, self.page_size_bytes // (8 * d))
        )
        self.tree = BBTree(
            self.divergence, leaf_capacity=capacity, rng=self.rng
        ).build(points)
        self.datastore = DataStore(
            points,
            layout_order=self.tree.leaf_order(),
            page_size_bytes=self.page_size_bytes,
            tracker=self.tracker,
        )
        self.construction_seconds = time.perf_counter() - start
        return self

    def search(self, query: np.ndarray, k: int) -> SearchResult:
        """Exact branch-and-bound kNN with disk-charged leaf fetches."""
        if self.tree is None or self.datastore is None:
            raise NotFittedError("BBTreeIndex.build() must be called first")
        query = np.asarray(query, dtype=float)
        n = self.datastore.n_points
        if not 1 <= k <= n:
            raise InvalidParameterError(f"k must be in [1, {n}], got {k}")

        scope = self.tracker.scope()
        start = time.perf_counter()
        ids, dists, knn_stats = self.tree.knn(
            query, k, fetcher=lambda ids: self.datastore.fetch(ids, scope=scope)
        )
        elapsed = time.perf_counter() - start
        snapshot = self.tracker.finish_scope(scope)
        stats = QueryStats(
            pages_read=snapshot.pages_read,
            cpu_seconds=elapsed,
            n_candidates=knn_stats.points_evaluated,
            leaves_visited=knn_stats.leaves_visited,
            points_evaluated=knn_stats.points_evaluated,
        )
        return SearchResult(ids=ids, divergences=dists, stats=stats)
