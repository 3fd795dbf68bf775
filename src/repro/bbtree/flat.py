"""Flat, array-backed view of a built BB-tree for batched range queries.

:class:`FlatTree` lays a tree's nodes out in breadth-first order, so each
depth level is one contiguous block and every node's parent is an index.
The node-side ball terms (:class:`~repro.geometry.projection.BallTerms`)
are computed once for all nodes, and the leaves' point ids are
concatenated in leaf order.  A :class:`~repro.bbtree.tree.BBTree` builds
its view lazily, on the first batched range query, and drops it whenever
the tree is mutated in place.

A batch of range queries is decided in three steps, one method each
(:class:`~repro.bbtree.tree.RangeBatch` runs them for a tree):

1. :meth:`FlatTree.fast_pass`: one dense pass evaluates the two
   bisection-free YES tests for every (node, query) pair
   (:meth:`BatchRangeProber.fast_yes`);
2. :meth:`FlatTree.bisect_rounds`: the remaining pairs are bisected in
   rounds (:meth:`BatchRangeProber.bisect`).  A round takes every
   undecided pair that has no ancestor decided NO and at most
   :data:`LOOKAHEAD` undecided ancestors.  The rounds may be limited
   to a node set closed under ancestors (:meth:`FlatTree.root_paths`)
   and finished later; a decided pair is never bisected again;
3. :meth:`FlatTree.path_yes`: a query keeps a leaf when the leaf and
   every ancestor decided YES.

Each pair's decision depends only on that pair, so the rounds decide
exactly the pairs a top-down walk would reach, with the same arithmetic,
in whatever order they run.  Pairs bisected ahead of an ancestor that
then decides NO are wasted work, never a different answer.  Step 3 read
between steps 1 and 2 gives leaves each query is already proven to
keep, which is what the forest's covered-batch proof
(:meth:`~repro.bbtree.forest.BBForest.range_union_batch`) reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..geometry.projection import BallTerms, BatchRangeProber

__all__ = ["FlatTree", "LOOKAHEAD"]

#: Undecided ancestors a (node, query) pair may have and still be bisected
#: in the current round.  At 0 the rounds are the level-by-level walk: one
#: bisection call per tree level.  More lookahead means fewer rounds but
#: more pairs bisected under an ancestor that later decides NO.  Measured
#: as the forest range query time per perfbench ``mutate`` search (B=1)
#: / ``serve`` batch (B=32), seed-1 inputs, medians of 15 interleaved
#: passes on a 2-vCPU Xeon with NumPy 2.4: 7.7 / 52.2 ms at 0, 6.5 / 47.3
#: at 1, 5.4 / 50.4 at 2, 4.7 / 55.5 at 5 and 4.2 / 96.5 ms with every
#: undecided pair in one round.  Batches pay for the speculative pairs,
#: and 1 is where ``serve`` is fastest.
LOOKAHEAD = 1

# A pair's decision as its cost to the paths through it: a YES node is
# free, an undecided node uses one level of lookahead, and a NO node
# (cost ``LOOKAHEAD + 2``, see ``bisect_rounds``) blocks every path.
_YES, _OPEN = 0, 1


@dataclass(frozen=True)
class FlatTree:
    """A built tree's nodes as arrays, in breadth-first order."""

    #: (N,) index of each node's parent; -1 at the root.
    parent: np.ndarray
    #: (N,) depth of each node.
    depth: np.ndarray
    #: (H + 2,) index of the first node of each depth; the last entry is N.
    level_starts: np.ndarray
    #: ball centers, radii and node-side terms of every node.
    balls: BallTerms
    #: (L,) index of each leaf, ascending.
    leaf_nodes: np.ndarray
    #: (L,) number of point ids in each leaf.
    leaf_sizes: np.ndarray
    #: the leaves' point ids, concatenated in leaf order.
    leaf_ids: np.ndarray
    #: the tree's storage row of each entry of ``leaf_ids``.
    leaf_rows: np.ndarray

    @classmethod
    def of(cls, tree) -> "FlatTree":
        """The flat view of a built :class:`~repro.bbtree.tree.BBTree`."""
        nodes = [tree._require_built()]
        parent = [-1]
        level_starts = [0]
        start = 0
        while start < len(nodes):
            end = len(nodes)
            for i in range(start, end):
                for child in (nodes[i].left, nodes[i].right):
                    if child is not None:
                        nodes.append(child)
                        parent.append(i)
            level_starts.append(end)
            start = end
        starts = np.asarray(level_starts)
        leaves = [i for i, node in enumerate(nodes) if node.is_leaf]
        leaf_ids = np.concatenate([nodes[i].point_ids for i in leaves])
        # Live ids are unique in ``_ids``, so the first match is the row.
        order = np.argsort(tree._ids, kind="stable")
        leaf_rows = order[np.searchsorted(tree._ids[order], leaf_ids)]
        return cls(
            parent=np.asarray(parent),
            depth=np.repeat(np.arange(starts.size - 1), np.diff(starts)),
            level_starts=starts,
            balls=BallTerms.of(
                tree.divergence,
                np.stack([node.ball.center for node in nodes]),
                np.array([node.ball.radius for node in nodes]),
            ),
            leaf_nodes=np.asarray(leaves),
            leaf_sizes=np.array([nodes[i].point_ids.size for i in leaves]),
            leaf_ids=leaf_ids,
            leaf_rows=leaf_rows,
        )

    def fast_pass(self, prober: BatchRangeProber, active: np.ndarray) -> np.ndarray:
        """Step 1: ``(N, len(active))`` pair decisions, ``_YES`` where a
        fast path certifies the pair and ``_OPEN`` everywhere else.

        ``active`` indexes the prober's queries; their range radii must
        be non-negative.  :meth:`bisect_rounds` decides the open pairs
        in place and :meth:`path_yes` reads the kept leaves off the
        result.
        """
        return np.where(prober.fast_yes(self.balls, active), _YES, _OPEN).astype(np.int8)

    def bisect_rounds(
        self,
        prober: BatchRangeProber,
        active: np.ndarray,
        cost: np.ndarray,
        nodes: Optional[np.ndarray] = None,
    ) -> None:
        """Step 2: bisect ``cost``'s open pairs in rounds, in place.

        ``nodes``, an ``(N,)`` mask closed under ancestors (see
        :meth:`root_paths`), limits the rounds to the pairs of those
        nodes; a later call without it finishes the rest.  Pairs
        already decided are never bisected again.
        """
        balls, starts, parent = self.balls, self.level_starts, self.parent
        n_levels = starts.size - 1
        no, cap = LOOKAHEAD + 2, LOOKAHEAD + 1
        # above: the summed cost of a pair's strict ancestors, capped at
        # ``cap`` (too deep to bisect this round); down: the same with the
        # node's own cost.  Levels shallower than ``level`` keep current
        # values from one round to the next.
        above = np.empty_like(cost)
        down = np.empty_like(cost)
        level = 0
        while True:
            end = starts[-1]
            for lv in range(level, n_levels):
                lo, hi = starts[lv], starts[lv + 1]
                if lv == 0:
                    above[0] = _YES
                else:
                    above[lo:hi] = down[parent[lo:hi]]
                np.minimum(above[lo:hi] + cost[lo:hi], cap, out=down[lo:hi])
                if down[lo:hi].min() == cap:  # no deeper pair can be bisected
                    above[hi:] = cap
                    down[hi:] = cap
                    end = hi
                    break
            first = starts[level]
            open_pairs = (cost[first:end] == _OPEN) & (above[first:end] <= LOOKAHEAD)
            if nodes is not None:
                open_pairs &= nodes[first:end, None]
            node, col = np.nonzero(open_pairs)
            if node.size == 0:
                break
            node += first
            yes = prober.bisect(balls, node, active[col])
            cost[node, col] = np.where(yes, _YES, no)
            level = int(self.depth[node[0]])  # the shallowest level that changed

    def path_yes(self, cost: np.ndarray) -> np.ndarray:
        """Step 3: ``(L, A)`` mask of the leaves whose node and every
        ancestor ``cost`` decides YES.

        After :meth:`bisect_rounds` these are the leaves each query
        keeps; before, a subset of them (an open pair counts as no).
        """
        starts, parent = self.level_starts, self.parent
        yes = cost == _YES
        for lv in range(1, starts.size - 1):
            lo, hi = starts[lv], starts[lv + 1]
            yes[lo:hi] &= yes[parent[lo:hi]]
        return yes[self.leaf_nodes]

    def leaf_members(self, leaves: np.ndarray) -> np.ndarray:
        """Point ids of the leaves an ``(L,)`` mask selects, in leaf order."""
        return self.leaf_ids[np.repeat(leaves, self.leaf_sizes)]

    def root_paths(self, wanted: np.ndarray) -> np.ndarray:
        """``(N,)`` mask of the leaves holding an id the id-indexed mask
        ``wanted`` selects, and of every ancestor of those leaves."""
        leaf_of = np.repeat(np.arange(self.leaf_nodes.size), self.leaf_sizes)
        nodes = np.zeros(self.parent.size, dtype=bool)
        nodes[self.leaf_nodes[leaf_of[wanted[self.leaf_ids]]]] = True
        starts = self.level_starts
        for lv in range(starts.size - 2, 0, -1):
            lo, hi = starts[lv], starts[lv + 1]
            nodes[self.parent[lo:hi][nodes[lo:hi]]] = True
        return nodes
