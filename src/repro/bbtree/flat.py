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
   (:meth:`BatchRangeProber.fast_yes`), over the pairs' center
   divergences, which the batch computes before any radius (from
   :data:`~repro.geometry.projection.BLAS_MIN_QUERIES` queries on as
   certified BLAS estimates, with fixed-order values only inside the
   bound's margin);
2. :meth:`FlatTree.bisect_rounds`: the remaining pairs are bisected in
   rounds (:meth:`BatchRangeProber.bisect`).  A round takes every
   undecided pair that has no ancestor decided NO and at most
   :data:`LOOKAHEAD` undecided ancestors, and hands the prober each
   pair's fixed-order center divergences, which place its first probe
   (:meth:`BatchRangeProber.pair_values`: read off the dense matrices,
   or recomputed over the round's gathered pairs where those hold
   estimates).  The rounds may be limited
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
from typing import Optional, Tuple

import numpy as np

from ..geometry.projection import BallTerms, BatchRangeProber, CenterDivergences

__all__ = ["FlatTree", "LOOKAHEAD"]

#: Undecided ancestors a (node, query) pair may have and still be bisected
#: in the current round.  At 0 the rounds are the level-by-level walk: one
#: bisection call per tree level.  More lookahead means fewer rounds but
#: more pairs bisected under an ancestor that later decides NO.  Measured
#: as the forest range decisions per call (center divergences, fast pass,
#: rounds and candidate collection; ms, best of 5 interleaved passes) on
#: perfbench's shapes at seed 11, on a 2-vCPU x86-64 host with Python
#: 3.11 and NumPy 2.4, at lookahead 1 / 2 / 3 / 4 / 6 / every undecided
#: pair in one round: a B=1 ``mutate`` search under its seed radius 0.85
#: / 0.75 / 0.70 / 0.68 / 0.70 / 0.78 and under Theorem-1 radii 1.29 /
#: 1.09 / 1.00 / 0.95 / 0.87 / 0.77; an uncovered B=8 ``serve`` batch
#: 4.00 / 3.52 / 3.33 / 3.09 / 3.09 / 3.33 and B=32 10.89 / 10.30 / 10.57
#: / 11.09 / 12.83 / 17.65; a ``batch`` call (B=64, M=16) 96.8 / 87.2 /
#: 85.0 / 85.5 / 89.9 / 98.0.  The decisions do not depend on the
#: schedule, so candidates and pages are the same at every setting.  The
#: guided probes (:meth:`~repro.geometry.projection.BatchRangeProber.bisect`)
#: decide most pairs at their first probe, so a pair bisected in vain
#: costs one evaluation and a round costs a few passes: 4 is fastest or
#: within 1% on the gated single search, uncovered B=8 batches and the
#: ``batch`` call, and 8% behind on uncovered B=32 batches, which
#: ``serve``'s covered proof rarely leaves.
LOOKAHEAD = 4

# A pair's decision as its cost to the paths through it: a YES node is
# free, an undecided node uses one level of lookahead, and a NO node
# (cost ``LOOKAHEAD + 2``, see ``bisect_rounds``) blocks every path.
_YES, _OPEN = 0, 1


@dataclass(frozen=True)
class FlatTree:
    """A built tree's nodes as arrays, in breadth-first order."""

    #: (N,) index of each node's parent; -1 at the root.
    parent: np.ndarray
    #: the ``2^k``-th ancestor of each node, for ``k = 0, 1, ...`` until
    #: ``2^k`` spans the height: ``(N + 1,)`` arrays whose last entry, and
    #: the entry of a node with no such ancestor, is the sentinel ``N``.
    jumps: Tuple[np.ndarray, ...]
    #: (H + 2,) index of the first node of each depth; the last entry is N.
    level_starts: np.ndarray
    #: ball centers, radii and node-side terms of every node.
    balls: BallTerms
    #: (L,) index of each leaf, ascending.
    leaf_nodes: np.ndarray
    #: (L,) number of point ids in each leaf.
    leaf_sizes: np.ndarray
    #: (L + 1,) offset of each leaf's ids in ``leaf_ids``; the last is
    #: their count.
    leaf_starts: np.ndarray
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
        parents = np.asarray(parent)
        jumps = [np.append(np.where(parents < 0, parents.size, parents), parents.size)]
        while 2 ** len(jumps) < starts.size - 1:
            jumps.append(jumps[-1][jumps[-1]])
        leaves = [i for i, node in enumerate(nodes) if node.is_leaf]
        leaf_ids = np.concatenate([nodes[i].point_ids for i in leaves])
        leaf_sizes = np.array([nodes[i].point_ids.size for i in leaves])
        # Live ids are unique in ``_ids``, so the first match is the row.
        order = np.argsort(tree._ids, kind="stable")
        leaf_rows = order[np.searchsorted(tree._ids[order], leaf_ids)]
        return cls(
            parent=parents,
            jumps=tuple(jumps),
            level_starts=starts,
            balls=BallTerms.of(
                tree.divergence,
                np.stack([node.ball.center for node in nodes]),
                np.array([node.ball.radius for node in nodes]),
            ),
            leaf_nodes=np.asarray(leaves),
            leaf_sizes=leaf_sizes,
            leaf_starts=np.concatenate([[0], np.cumsum(leaf_sizes)]),
            leaf_ids=leaf_ids,
            leaf_rows=leaf_rows,
        )

    def fast_pass(
        self,
        prober: BatchRangeProber,
        active: np.ndarray,
        radii: np.ndarray,
        divergences: CenterDivergences,
    ) -> np.ndarray:
        """Step 1: ``(N, len(active))`` pair decisions, ``_YES`` where a
        fast path certifies the pair and ``_OPEN`` everywhere else.

        ``active`` indexes the prober's queries and ``radii`` (one range
        radius per query), which must be non-negative there.
        ``divergences`` are the pairs'
        :meth:`~BatchRangeProber.center_divergences` over this tree's
        balls for ``active``.  :meth:`bisect_rounds` decides the open
        pairs in place and :meth:`path_yes` reads the kept leaves off
        the result.
        """
        yes = prober.fast_yes(self.balls, active, radii, divergences)
        return np.where(yes, _YES, _OPEN).astype(np.int8)

    def bisect_rounds(
        self,
        prober: BatchRangeProber,
        active: np.ndarray,
        radii: np.ndarray,
        cost: np.ndarray,
        divergences: CenterDivergences,
        nodes: Optional[np.ndarray] = None,
    ) -> None:
        """Step 2: bisect ``cost``'s open pairs in rounds, in place.

        ``divergences`` are the ones :meth:`fast_pass` took; each
        bisected pair's two fixed-order values
        (:meth:`~BatchRangeProber.pair_values`) place its first probe.
        ``nodes``,
        an ``(N,)`` mask closed under ancestors (see :meth:`root_paths`),
        limits the rounds to the pairs of those nodes; a later call
        without it finishes the rest.  Pairs already decided are never
        bisected again.
        """
        no, cap = LOOKAHEAD + 2, LOOKAHEAD + 1
        up = self.jumps[0][:-1]
        sentinel = np.zeros((1, cost.shape[1]), dtype=cost.dtype)
        while True:
            # each pair's cost summed over its node and every ancestor,
            # capped at ``cap`` (too deep to bisect this round), by
            # doubling: after step k a row holds the sum over its 2^(k+1)
            # nearest nodes; the sentinel row adds nothing
            path = np.concatenate([cost, sentinel])
            for jump in self.jumps:
                path = np.minimum(path + path[jump], cap)
            open_pairs = (cost == _OPEN) & (path[up] <= LOOKAHEAD)
            if nodes is not None:
                open_pairs &= nodes[:, None]
            node, col = np.nonzero(open_pairs)
            if node.size == 0:
                break
            pairs = prober.pair_values(self.balls, divergences, node, col)
            yes = prober.bisect(self.balls, node, active[col], radii, pairs)
            cost[node, col] = np.where(yes, _YES, no)

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

    def leaf_points(self, leaf: int) -> np.ndarray:
        """Point ids of leaf number ``leaf``."""
        return self.leaf_ids[self.leaf_starts[leaf] : self.leaf_starts[leaf + 1]]

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
