"""Dynamic updates for BB-trees (the paper's future-work extension).

The paper closes by noting BB-forest "support[ing] inserting or deleting
large-scale data more efficiently" as future work.  This module provides
the tree-level building blocks:

* :func:`insert_point` -- descend to the child whose center is nearest
  (by the tree's divergence), inflating every ball on the path so the
  covering invariant holds, append to the reached leaf, and re-split the
  leaf by two-means when it exceeds capacity.
* :func:`delete_point` -- remove a point id from its leaf and tombstone
  its storage row (``_ids[row]`` becomes ``-1`` and the row joins the
  free list for reuse by a later insert).  Ball radii are left untouched
  (they remain valid covers, merely conservative); a periodic rebuild
  restores tightness.
* :func:`extend_tree` -- a *new* tree equal to the receiver plus extra
  points, sharing the immutable per-node balls and id arrays of the
  original on the unchanged subtrees.  This is the extend-merge path of
  the index-level update subsystem.

Concurrency contract (snapshot semantics): a built tree mutated through
:func:`insert_point` / :func:`delete_point` is **not** safe to search
concurrently -- these calls reallocate ``_points`` / ``_ids`` and edit
leaves in place.  The index level therefore never mutates a published
tree: :class:`~repro.core.index.BrePartitionIndex` routes updates
through its delta buffer, searches run against the immutable
``(frozen base, delta version)`` pair captured by
:meth:`~repro.core.index.BrePartitionIndex.snapshot`, and merges build
*new* trees (via :func:`extend_tree` or a rebuild) before atomically
swapping the published base.  Direct mutation stays available for
single-threaded tree-level use and for the merge machinery itself.

Invariants preserved by every operation here: each node's ball covers
all points in its subtree, each live point id appears in exactly one
leaf, and ``_ids`` / ``_row_of`` / the leaves agree on exactly which
ids are live.  :func:`insert_point` and :func:`delete_point` end by
dropping the tree's flat view (:mod:`repro.bbtree.flat`), which the
next batched range query rebuilds; clones from :func:`extend_tree`
start without one.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..clustering.bregman_kmeans import bregman_kmeans
from ..exceptions import InvalidParameterError, StorageError
from ..geometry.ball import BregmanBall
from .node import BBTreeNode
from .tree import BBTree

__all__ = ["insert_point", "delete_point", "extend_tree"]


def insert_point(tree: BBTree, point: np.ndarray, point_id: int) -> None:
    """Insert ``point`` with id ``point_id`` into a built tree.

    The point is registered in the tree's in-memory storage (reusing a
    tombstoned row when one is free) so subsequent leaf-level
    evaluations and rebuild-splits see it.
    """
    root = tree._require_built()
    point = np.asarray(point, dtype=float)
    if point.shape[0] != tree._points.shape[1]:
        raise InvalidParameterError("point dimensionality mismatch")
    pid = int(point_id)
    if pid < 0:
        raise InvalidParameterError("point ids must be non-negative")
    if pid in tree._row_of:
        raise InvalidParameterError(f"point id {point_id} already present")

    # Register the new point in the tree's storage, reusing a row freed
    # by an earlier delete when available.
    free = _free_rows(tree)
    if free:
        row = free.pop()
        tree._points[row] = point
        tree._ids[row] = pid
    else:
        row = tree._points.shape[0]
        tree._points = np.vstack([tree._points, point[None, :]])
        tree._ids = np.concatenate([tree._ids, [pid]])
    tree._row_of[pid] = row

    _descend_insert(tree, root, point, pid)
    tree._flat = None  # the flat view no longer matches the tree


def delete_point(tree: BBTree, point_id: int) -> None:
    """Remove ``point_id`` from the tree.

    The storage row is tombstoned (``_ids[row] = -1``) and queued for
    reuse, so leaf enumeration and ``_ids`` always agree on the live id
    set; balls keep their radii, staying valid covers.
    """
    root = tree._require_built()
    pid = int(point_id)
    if pid not in tree._row_of:
        raise StorageError(f"point id {point_id} not in tree")

    target_row = tree._row_of[pid]
    point = tree._points[target_row]
    # Walk down guided by ball membership; fall back to exhaustive leaf
    # scan if the geometric walk misses (possible after many updates).
    leaf = _find_leaf(tree, root, point, pid)
    if leaf is None:
        leaf = _scan_for_leaf(root, pid)
    if leaf is None:  # pragma: no cover - defended by _row_of check
        raise StorageError(f"point id {point_id} not found in any leaf")
    leaf.point_ids = leaf.point_ids[leaf.point_ids != pid]
    del tree._row_of[pid]
    tree._ids[target_row] = -1
    _free_rows(tree).append(target_row)
    tree._flat = None  # the flat view no longer matches the tree


def extend_tree(tree: BBTree, points: np.ndarray, new_ids: np.ndarray) -> BBTree:
    """A new tree equal to ``tree`` plus ``points`` (ids ``new_ids``).

    The receiver is never mutated -- searches pinned to it keep reading
    a consistent structure.  The clone shares the original's per-node
    :class:`~repro.geometry.ball.BregmanBall` and ``point_ids`` objects
    on untouched subtrees (both are *replaced*, never edited, by the
    insert path), so cloning is O(nodes), not O(points).
    """
    tree._require_built()
    points = np.atleast_2d(np.asarray(points, dtype=float))
    new_ids = np.asarray(new_ids, dtype=int)
    if points.shape[0] != new_ids.shape[0]:
        raise InvalidParameterError("points and new_ids must align")
    if points.shape[0] and points.shape[1] != tree._points.shape[1]:
        raise InvalidParameterError("point dimensionality mismatch")

    clone = BBTree(
        tree.divergence,
        leaf_capacity=tree.leaf_capacity,
        # independent stream: the original's rng state must not advance
        rng=np.random.default_rng(int(tree.rng.integers(2**63))),
        lb_max_iter=tree.lb_max_iter,
        lb_tol=tree.lb_tol,
    )
    clone.root = _copy_node(tree.root)
    clone._points = tree._points.copy()
    clone._ids = tree._ids.copy()
    clone._row_of = dict(tree._row_of)
    clone._free_rows = list(_free_rows(tree))
    for point, pid in zip(points, new_ids):
        insert_point(clone, point, int(pid))
    return clone


def _copy_node(node: BBTreeNode) -> BBTreeNode:
    """Structural copy sharing the (immutable-by-convention) ball and
    point_ids objects; inserts into the copy replace them, never edit."""
    return BBTreeNode(
        ball=node.ball,
        point_ids=node.point_ids,
        left=_copy_node(node.left) if node.left is not None else None,
        right=_copy_node(node.right) if node.right is not None else None,
        depth=node.depth,
    )


def _free_rows(tree: BBTree) -> List[int]:
    """The tree's free-row list (created lazily for pre-existing trees)."""
    free = getattr(tree, "_free_rows", None)
    if free is None:
        free = tree._free_rows = []
    return free


def _descend_insert(
    tree: BBTree, root: BBTreeNode, point: np.ndarray, point_id: int
) -> None:
    """Walk a registered point down to a leaf, inflating balls en route."""
    node = root
    while True:
        _inflate(tree, node, point)
        if node.is_leaf:
            node.point_ids = np.concatenate([node.point_ids, [point_id]])
            if node.point_ids.shape[0] > tree.leaf_capacity:
                _split_leaf(tree, node)
            return
        # Descend to the child with the nearer center (divergence to
        # center, matching the construction's assignment rule).
        left, right = node.left, node.right
        d_left = tree.divergence.divergence(point, left.ball.center)
        d_right = tree.divergence.divergence(point, right.ball.center)
        node = left if d_left <= d_right else right


def _inflate(tree: BBTree, node: BBTreeNode, point: np.ndarray) -> None:
    """Grow the node's ball (if needed) to cover ``point``."""
    dist = tree.divergence.divergence(point, node.ball.center)
    if dist > node.ball.radius:
        node.ball = BregmanBall(center=node.ball.center, radius=dist)


def _split_leaf(tree: BBTree, leaf: BBTreeNode) -> None:
    """Split an overfull leaf into two children by Bregman two-means."""
    rows = np.array([tree._row_of[int(pid)] for pid in leaf.point_ids])
    subset = tree._points[rows]
    result = bregman_kmeans(tree.divergence, subset, k=2, rng=tree.rng, max_iter=25)
    left_mask = result.labels == 0
    if left_mask.all() or not left_mask.any():
        half = rows.shape[0] // 2
        left_mask = np.zeros(rows.shape[0], dtype=bool)
        left_mask[:half] = True

    def _make_child(mask: np.ndarray) -> BBTreeNode:
        ids = leaf.point_ids[mask]
        ball = BregmanBall.covering(tree.divergence, subset[mask])
        return BBTreeNode(ball=ball, point_ids=ids, depth=leaf.depth + 1)

    leaf.left = _make_child(left_mask)
    leaf.right = _make_child(~left_mask)
    leaf.point_ids = None  # becomes internal


def _find_leaf(tree: BBTree, node: BBTreeNode, point: np.ndarray, point_id: int):
    """Geometric walk to the leaf holding ``point_id`` (None if missed)."""
    if node.is_leaf:
        return node if point_id in node.point_ids else None
    for child in (node.left, node.right):
        if child is None:
            continue
        if child.ball.contains(tree.divergence, point):
            found = _find_leaf(tree, child, point, point_id)
            if found is not None:
                return found
    return None


def _scan_for_leaf(node: BBTreeNode, point_id: int):
    """Exhaustive leaf scan fallback."""
    stack = [node]
    while stack:
        current = stack.pop()
        if current.is_leaf:
            if point_id in current.point_ids:
                return current
        else:
            if current.left is not None:
                stack.append(current.left)
            if current.right is not None:
                stack.append(current.right)
    return None
