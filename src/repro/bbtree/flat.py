"""Flat, array-backed view of a built BB-tree for batched range queries.

:class:`FlatTree` lays a tree's nodes out in breadth-first order, so each
depth level is one contiguous block and every node's parent is an index.
The node-side ball terms (:class:`~repro.geometry.projection.BallTerms`)
are computed once for all nodes, and the leaves' point ids are
concatenated in leaf order.  A :class:`~repro.bbtree.tree.BBTree` builds
its view lazily, on the first batched range query, and drops it whenever
the tree is mutated in place.

:meth:`FlatTree.kept_leaves` decides a batch of range queries in three
steps:

1. one dense pass evaluates the two bisection-free YES tests for every
   (node, query) pair (:meth:`BatchRangeProber.fast_yes`);
2. the remaining pairs are bisected in rounds
   (:meth:`BatchRangeProber.bisect`).  A round takes every undecided
   pair that has no ancestor decided NO and at most :data:`LOOKAHEAD`
   undecided ancestors;
3. a query keeps a leaf when the leaf and every ancestor decided YES.

Each pair's decision depends only on that pair, so the rounds decide
exactly the pairs a top-down walk would reach, with the same arithmetic.
Pairs bisected ahead of an ancestor that then decides NO are wasted
work, never a different answer.
"""

from __future__ import annotations

from dataclasses import dataclass

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
# (cost ``LOOKAHEAD + 2``, see ``kept_leaves``) blocks every path.
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

    def kept_leaves(self, prober: BatchRangeProber, active: np.ndarray) -> np.ndarray:
        """``(L, len(active))`` mask of the leaves each active query keeps.

        ``active`` indexes the prober's queries; their range radii must
        be non-negative.
        """
        balls, starts, parent = self.balls, self.level_starts, self.parent
        n_levels = starts.size - 1
        no, cap = LOOKAHEAD + 2, LOOKAHEAD + 1
        cost = np.where(prober.fast_yes(balls, active), _YES, _OPEN).astype(np.int8)
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
            node, col = np.nonzero(
                (cost[first:end] == _OPEN) & (above[first:end] <= LOOKAHEAD)
            )
            if node.size == 0:
                break
            node += first
            yes = prober.bisect(balls, node, active[col])
            cost[node, col] = np.where(yes, _YES, no)
            level = int(self.depth[node[0]])  # the shallowest level that changed
        leaves = self.leaf_nodes
        return (above[leaves] == _YES) & (cost[leaves] == _YES)
