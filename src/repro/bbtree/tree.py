"""Bregman-Ball tree (Cayton, ICML 2008) with range queries (NIPS 2009).

The tree hierarchically decomposes a point set by recursive Bregman
two-means.  Every node covers its subtree's points with a Bregman ball
(center = Bregman centroid, radius = max divergence to center), so the
dual-geodesic projection of :mod:`repro.geometry.projection` yields a
certified lower bound on the divergence from any subtree point to a
query.  Two search modes:

* :meth:`BBTree.knn` -- exact branch-and-bound k-nearest-neighbour search
  (the paper's "BBT" baseline when run on the full-dimensional data with
  a disk-backed fetcher).
* :meth:`BBTree.range_query` -- all points within a divergence radius of
  the query, at cluster granularity (the filter step of BrePartition) or
  exact point granularity (``point_filter=True``).
  :meth:`BBTree.range_query_batch` answers many range queries at once
  over the tree's flat view (:mod:`repro.bbtree.flat`), through a
  :class:`RangeBatch` that also lets the forest act between its steps.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from ..clustering.bregman_kmeans import bregman_kmeans
from ..divergences.base import DecomposableBregmanDivergence
from ..exceptions import InvalidParameterError, NotFittedError
from ..geometry.ball import BregmanBall
from ..geometry.projection import (
    BatchRangeProber,
    ball_intersects_range,
    min_divergence_to_ball,
)
from .flat import FlatTree
from .node import BBTreeNode

__all__ = ["BBTree", "KnnStats", "RangeResult", "BatchRangeResult", "RangeBatch"]

#: tie-breaker for the best-first heap (nodes are not comparable).
_heap_counter = itertools.count()


@dataclass
class KnnStats:
    """Diagnostics for one kNN search."""

    nodes_examined: int = 0
    leaves_visited: int = 0
    points_evaluated: int = 0


@dataclass
class RangeResult:
    """Outcome of a range query."""

    point_ids: np.ndarray
    leaves_visited: int = 0
    nodes_examined: int = 0


@dataclass
class BatchRangeResult:
    """Outcome of a batched range query over ``B`` queries.

    ``point_ids[b]`` is query ``b``'s candidate set, in leaf order;
    ``leaves_visited[b]`` counts the leaves query ``b`` kept (the leaf
    and all its ancestors may intersect the query's range).
    """

    point_ids: List[np.ndarray]
    leaves_visited: np.ndarray


class RangeBatch:
    """A batch of range queries on one tree, decided in the steps of
    :mod:`repro.bbtree.flat`.

    Construction computes every (node, query) pair's center divergences
    ``D(q, c)`` and ``D(c, q)``, which need no radius
    (:meth:`~repro.geometry.projection.BatchRangeProber.center_divergences`:
    fixed-order values, or certified estimates from
    :data:`~repro.geometry.projection.BLAS_MIN_QUERIES` queries on);
    :meth:`nearest_leaves` orders the leaves by the fixed-order second,
    which is where Plan takes a single search's seed rows before it
    knows the radius.  :meth:`start` runs the dense fast pass at given
    radii; :meth:`bisect` decides open pairs (all of them, or those of a
    node set) and :meth:`result` finishes the rounds and collects each
    query's candidates.  Between the steps :meth:`kept` says which
    leaves each query is already proven to keep -- what the forest's
    covered-batch proof reads.  Queries with a negative radius are
    inactive and keep nothing.
    """

    def __init__(self, tree: "BBTree", queries: np.ndarray) -> None:
        self.tree = tree
        self.queries = queries
        self.flat = tree._flat_view()
        self.prober = BatchRangeProber(tree.divergence, queries, tree.lb_max_iter)
        self.divergences = self.prober.center_divergences(
            self.flat.balls, np.arange(queries.shape[0])
        )

    def nearest_leaves(self, q: int) -> np.ndarray:
        """Leaf numbers by ascending fixed-order ``D(center, query q)``,
        ties in leaf order."""
        leaves = self.flat.leaf_nodes
        values = self.prober.pair_values(
            self.flat.balls, self.divergences, leaves, np.full(leaves.size, q)
        )
        return np.argsort(values[1], kind="stable")

    def start(self, radii: np.ndarray) -> "RangeBatch":
        """Run the fast pass at one range radius per query."""
        self.radii = radii
        self.active = np.flatnonzero(radii >= 0.0)
        divergences = self.divergences
        if self.active.size < radii.size:
            divergences = divergences.columns(self.active)
        self.active_divergences = divergences
        self.cost = self.flat.fast_pass(self.prober, self.active, radii, divergences)
        return self

    def bisect(self, nodes: Optional[np.ndarray] = None) -> None:
        """Bisect the open pairs, or only those of ``nodes`` (an ``(N,)``
        mask closed under ancestors)."""
        if self.active.size:
            self.flat.bisect_rounds(
                self.prober,
                self.active,
                self.radii,
                self.cost,
                self.active_divergences,
                nodes,
            )

    def kept(self) -> np.ndarray:
        """``(L, len(active))`` mask of the leaves each active query is
        proven to keep so far (all it keeps once every pair is decided)."""
        return self.flat.path_yes(self.cost)

    def leaves_kept(self, kept: np.ndarray) -> np.ndarray:
        """``(B,)`` count of each query's leaves in a :meth:`kept` mask."""
        leaves = np.zeros(self.radii.size, dtype=int)
        leaves[self.active] = kept.sum(axis=0)
        return leaves

    def result(self, point_filter: bool = False) -> BatchRangeResult:
        """Decide every remaining pair and collect the candidates."""
        self.bisect()
        flat, tree = self.flat, self.tree
        kept = self.kept()
        point_ids = [np.empty(0, dtype=int) for _ in range(self.radii.size)]
        members = np.repeat(kept.T, flat.leaf_sizes, axis=1)
        for q, member in zip(self.active, members):
            ids = flat.leaf_ids[member]
            if point_filter and ids.size:
                # batch_divergence scores each row independently of the
                # others, so one call over all kept leaves selects what
                # per-leaf calls (and the scalar range_query) would.
                rows = flat.leaf_rows[member]
                dists = tree.divergence.batch_divergence(
                    tree._points[rows], self.queries[q]
                )
                ids = ids[dists <= self.radii[q]]
            point_ids[q] = ids
        return BatchRangeResult(
            point_ids=point_ids, leaves_visited=self.leaves_kept(kept)
        )


class BBTree:
    """A Bregman-Ball tree over a (sub)space of the dataset.

    Parameters
    ----------
    divergence:
        Decomposable divergence measuring (sub)vector dissimilarity.
    leaf_capacity:
        Maximum points per leaf (paper Section 5.1 treats n/C as roughly
        constant; benchmarks size this from the page geometry).
    rng:
        Randomness for the two-means splits.
    lb_max_iter, lb_tol:
        Bisection budget for node lower bounds; any budget still yields
        certified (if looser) bounds.
    """

    def __init__(
        self,
        divergence: DecomposableBregmanDivergence,
        leaf_capacity: int = 64,
        rng: np.random.Generator | None = None,
        lb_max_iter: int = 40,
        lb_tol: float = 1e-7,
    ) -> None:
        if leaf_capacity < 1:
            raise InvalidParameterError("leaf_capacity must be >= 1")
        self.divergence = divergence
        self.leaf_capacity = int(leaf_capacity)
        self.rng = rng if rng is not None else np.random.default_rng()
        self.lb_max_iter = int(lb_max_iter)
        self.lb_tol = float(lb_tol)
        self.root: Optional[BBTreeNode] = None
        self._points: Optional[np.ndarray] = None
        # Built by the first range_query_batch; the in-place mutators in
        # repro.bbtree.dynamic drop it.
        self._flat: Optional[FlatTree] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def build(self, points: np.ndarray, point_ids: np.ndarray | None = None) -> "BBTree":
        """Build the tree over ``points`` (ids default to row numbers)."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        n = points.shape[0]
        if n == 0:
            raise InvalidParameterError("cannot build a BB-tree over zero points")
        if point_ids is None:
            point_ids = np.arange(n)
        point_ids = np.asarray(point_ids, dtype=int)
        if point_ids.shape[0] != n:
            raise InvalidParameterError("point_ids must match the number of points")
        self._points = points
        self._ids = point_ids
        # Index points by storage row for leaf-level evaluation.
        self._row_of = {int(pid): row for row, pid in enumerate(point_ids)}
        # Storage rows freed by deletes, reusable by later inserts (see
        # repro.bbtree.dynamic).
        self._free_rows: List[int] = []
        self.root = self._build_node(np.arange(n), depth=0)
        self._flat = None
        return self

    def _build_node(self, rows: np.ndarray, depth: int) -> BBTreeNode:
        assert self._points is not None
        subset = self._points[rows]
        ball = BregmanBall.covering(self.divergence, subset)
        if rows.shape[0] <= self.leaf_capacity:
            return BBTreeNode(ball=ball, point_ids=self._ids[rows], depth=depth)

        result = bregman_kmeans(self.divergence, subset, k=2, rng=self.rng, max_iter=25)
        left_mask = result.labels == 0
        # Degenerate split (duplicates / collapsed clusters): halve arbitrarily
        # so construction always terminates.
        if left_mask.all() or not left_mask.any():
            half = rows.shape[0] // 2
            left_mask = np.zeros(rows.shape[0], dtype=bool)
            left_mask[:half] = True
        left = self._build_node(rows[left_mask], depth + 1)
        right = self._build_node(rows[~left_mask], depth + 1)
        return BBTreeNode(ball=ball, left=left, right=right, depth=depth)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def _require_built(self) -> BBTreeNode:
        if self.root is None:
            raise NotFittedError("BBTree.build() must be called before searching")
        return self.root

    def leaves(self) -> List[BBTreeNode]:
        """Leaf nodes in DFS order (defines the disk layout)."""
        root = self._require_built()
        out: List[BBTreeNode] = []
        stack = [root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                out.append(node)
            else:
                # Push right first so left is processed first (stable DFS).
                if node.right is not None:
                    stack.append(node.right)
                if node.left is not None:
                    stack.append(node.left)
        return out

    def leaf_order(self) -> np.ndarray:
        """Point ids concatenated in leaf DFS order (clustered layout)."""
        return np.concatenate([leaf.point_ids for leaf in self.leaves()])

    def collect_ids(self) -> np.ndarray:
        """Every live point id, ascending (enumerated from the leaves).

        After dynamic updates this must agree with ``_row_of`` -- each
        live id in exactly one leaf, deleted ids in none.
        """
        parts = [leaf.point_ids for leaf in self.leaves() if leaf.point_ids.size]
        if not parts:
            return np.empty(0, dtype=int)
        return np.sort(np.concatenate(parts))

    def _flat_view(self) -> FlatTree:
        """The tree's flat view, built on first use.

        Concurrent first callers may each build one; the views are
        equal, and either may be kept.
        """
        flat = self._flat
        if flat is None:
            flat = self._flat = FlatTree.of(self)
        return flat

    def count_nodes(self) -> int:
        """Total number of nodes."""
        return self._require_built().count_nodes()

    def height(self) -> int:
        """Tree height."""
        return self._require_built().height()

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------

    def _lower_bound(self, node: BBTreeNode, query: np.ndarray) -> float:
        return min_divergence_to_ball(
            self.divergence,
            node.ball.center,
            node.ball.radius,
            query,
            tol=self.lb_tol,
            max_iter=self.lb_max_iter,
        )

    def knn(
        self,
        query: np.ndarray,
        k: int,
        fetcher: Callable[[np.ndarray], np.ndarray] | None = None,
    ) -> tuple[np.ndarray, np.ndarray, KnnStats]:
        """Exact k-nearest neighbours by best-first branch and bound.

        Parameters
        ----------
        query:
            Query vector in this tree's (sub)space.
        k:
            Number of neighbours.
        fetcher:
            Optional ``ids -> vectors`` callable used to materialise leaf
            points; pass a :meth:`DataStore.fetch <repro.storage.datastore.DataStore.fetch>`
            bound method to charge simulated I/O (the disk-resident "BBT"
            baseline).  Defaults to the in-memory build-time points.

        Returns
        -------
        (ids, divergences, stats) sorted by increasing divergence.
        """
        root = self._require_built()
        query = np.asarray(query, dtype=float)
        if k < 1:
            raise InvalidParameterError("k must be >= 1")
        stats = KnnStats()

        # Max-heap of current best (negated divergence, id).
        best: list[tuple[float, int]] = []
        frontier: list[tuple[float, int, BBTreeNode]] = [
            (self._lower_bound(root, query), next(_heap_counter), root)
        ]
        while frontier:
            lb, _, node = heapq.heappop(frontier)
            stats.nodes_examined += 1
            if len(best) == k and lb >= -best[0][0]:
                break
            if node.is_leaf:
                stats.leaves_visited += 1
                ids = node.point_ids
                if fetcher is not None:
                    vectors = fetcher(ids)
                else:
                    rows = np.array([self._row_of[int(pid)] for pid in ids])
                    vectors = self._points[rows]
                dists = self.divergence.batch_divergence(vectors, query)
                stats.points_evaluated += len(ids)
                for dist, pid in zip(dists, ids):
                    entry = (-float(dist), int(pid))
                    if len(best) < k:
                        heapq.heappush(best, entry)
                    elif entry > best[0]:
                        heapq.heapreplace(best, entry)
            else:
                for child in (node.left, node.right):
                    if child is None:
                        continue
                    child_lb = self._lower_bound(child, query)
                    if len(best) < k or child_lb < -best[0][0]:
                        heapq.heappush(frontier, (child_lb, next(_heap_counter), child))

        ordered = sorted(((-neg, pid) for neg, pid in best))
        ids = np.array([pid for _, pid in ordered], dtype=int)
        dists = np.array([dist for dist, _ in ordered], dtype=float)
        return ids, dists, stats

    def range_query(
        self,
        query: np.ndarray,
        radius: float,
        point_filter: bool = False,
    ) -> RangeResult:
        """All candidate points with ``D(x, query) <= radius``.

        With ``point_filter=False`` (paper semantics) the result is every
        point in a leaf whose ball may intersect the range -- a superset,
        at cluster granularity, matching the candidate sets BrePartition
        fetches from disk.  With ``point_filter=True`` the in-memory
        subspace points are checked exactly (used by tests and the
        leaf-exact ablation).
        """
        root = self._require_built()
        query = np.asarray(query, dtype=float)
        if query.shape != (self._points.shape[1],):
            raise InvalidParameterError(
                f"query must have shape ({self._points.shape[1]},), got {query.shape}"
            )
        if radius < 0.0:
            return RangeResult(point_ids=np.empty(0, dtype=int))
        result_ids: list[np.ndarray] = []
        stats_nodes = 0
        stats_leaves = 0
        stack = [root]
        while stack:
            node = stack.pop()
            stats_nodes += 1
            # Early-exit intersection test (Cayton 2009): cheaper than the
            # full projection and still sound.
            if not ball_intersects_range(
                self.divergence,
                node.ball.center,
                node.ball.radius,
                query,
                radius,
                max_iter=self.lb_max_iter,
            ):
                continue
            if node.is_leaf:
                stats_leaves += 1
                ids = node.point_ids
                if point_filter:
                    rows = np.array([self._row_of[int(pid)] for pid in ids])
                    dists = self.divergence.batch_divergence(self._points[rows], query)
                    ids = ids[dists <= radius]
                if len(ids):
                    result_ids.append(ids)
            else:
                if node.left is not None:
                    stack.append(node.left)
                if node.right is not None:
                    stack.append(node.right)
        ids = (
            np.concatenate(result_ids)
            if result_ids
            else np.empty(0, dtype=int)
        )
        return RangeResult(point_ids=ids, leaves_visited=stats_leaves, nodes_examined=stats_nodes)

    def range_query_batch(
        self,
        queries: np.ndarray,
        radii: np.ndarray,
        point_filter: bool = False,
    ) -> BatchRangeResult:
        """Batched :meth:`range_query` over the tree's flat view.

        Every (node, query) pair is decided by the batched ball test
        (:class:`~repro.geometry.projection.BatchRangeProber`): one dense
        fast-path pass over all nodes, then bisection rounds over the
        pairs still open (:mod:`repro.bbtree.flat`).  A query keeps
        a leaf when the leaf and all its ancestors may intersect its
        range; a negative radius keeps nothing.  With ``point_filter``
        the kept leaves' points are then checked exactly, through the
        same ``batch_divergence`` the scalar :meth:`range_query` uses.
        """
        batch = self.range_batch(queries)
        radii = np.asarray(radii, dtype=float)
        if radii.shape != (batch.queries.shape[0],):
            raise InvalidParameterError("radii must supply one radius per query")
        return batch.start(radii).result(point_filter)

    def range_batch(self, queries: np.ndarray) -> "RangeBatch":
        """Validate a batch of range queries and compute its center
        divergences; :meth:`RangeBatch.start` runs it at given radii."""
        self._require_built()
        queries = np.atleast_2d(np.asarray(queries, dtype=float))
        d = self._points.shape[1]
        if queries.ndim != 2 or queries.shape[1] != d:
            raise InvalidParameterError(
                f"queries must have shape (B, {d}), got {queries.shape}"
            )
        return RangeBatch(self, queries)

    # ------------------------------------------------------------------
    # dynamic updates (paper future work; see repro.bbtree.dynamic)
    # ------------------------------------------------------------------

    def insert(self, point: np.ndarray, point_id: int) -> None:
        """Insert a new point into the built tree (covering invariant kept)."""
        from .dynamic import insert_point

        insert_point(self, point, point_id)

    def delete(self, point_id: int) -> None:
        """Remove a point id from the built tree."""
        from .dynamic import delete_point

        delete_point(self, point_id)

    def extended(self, points: np.ndarray, new_ids: np.ndarray) -> "BBTree":
        """A new tree with extra points inserted; the receiver is untouched.

        The extend-merge building block: see
        :func:`repro.bbtree.dynamic.extend_tree`.
        """
        from .dynamic import extend_tree

        return extend_tree(self, points, new_ids)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "built" if self.root is not None else "empty"
        return f"BBTree({self.divergence.name}, leaf_capacity={self.leaf_capacity}, {state})"
