"""Clustered, page-addressed storage of the original data points.

The paper stores the full high-dimensional vectors on disk, clustered in
the leaf order of a seed BB-tree, and every BB-tree leaf keeps only the
*addresses* (disk number + offset) of its points.  :class:`DataStore`
reproduces this: points are laid out in a caller-supplied order across
fixed-size pages, fetches go through a :class:`DiskAccessTracker`, and an
optional :class:`BufferPool` can absorb repeat reads across queries.

Page geometry follows the paper's Table 4: a page of ``page_size_bytes``
holds ``page_size_bytes // (8 * d)`` float64 vectors.
"""

from __future__ import annotations

import copy
from typing import Iterable, Optional, Sequence

import numpy as np

from ..exceptions import InvalidParameterError, StorageError
from .buffer_pool import BufferPool
from .io_stats import DiskAccessTracker, QueryScope

__all__ = ["Address", "DataStore"]

_next_fileno = 0


def _allocate_fileno() -> int:
    """Hand out unique simulated file numbers (distinct "disks")."""
    global _next_fileno
    _next_fileno += 1
    return _next_fileno


class Address:
    """Physical location of a point: ``(page, slot)`` within a store."""

    __slots__ = ("page", "slot")

    def __init__(self, page: int, slot: int) -> None:
        self.page = page
        self.slot = slot

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Address(page={self.page}, slot={self.slot})"


class DataStore:
    """Simulated disk-resident array of ``n`` points of dimension ``d``.

    Parameters
    ----------
    points:
        The full-dimensional dataset, shape ``(n, d)``.
    layout_order:
        Permutation of ``range(n)``; position in this order determines
        the physical page.  BB-forest passes its seed tree's leaf order
        so that similar points share pages (paper Section 6).
    page_size_bytes:
        Simulated page size (paper Table 4 uses 32KB-128KB).
    tracker:
        I/O accounting sink; every distinct page fetch per query costs
        one page read.
    buffer_pool:
        Optional cross-query LRU cache; hits are not charged.
    """

    def __init__(
        self,
        points: np.ndarray,
        layout_order: Sequence[int] | None = None,
        page_size_bytes: int = 65536,
        tracker: DiskAccessTracker | None = None,
        buffer_pool: BufferPool | None = None,
    ) -> None:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        n, d = points.shape
        if page_size_bytes < 8 * d:
            raise InvalidParameterError(
                f"page of {page_size_bytes}B cannot hold one {d}-dim float64 vector"
            )
        if layout_order is None:
            layout_order = np.arange(n)
        layout_order = np.asarray(layout_order, dtype=int)
        if sorted(layout_order.tolist()) != list(range(n)):
            raise InvalidParameterError("layout_order must be a permutation of range(n)")

        self.fileno = _allocate_fileno()
        self.page_size_bytes = int(page_size_bytes)
        self.points_per_page = max(1, page_size_bytes // (8 * d))
        self.n_points = n
        self.dimensionality = d
        self.tracker = tracker if tracker is not None else DiskAccessTracker()
        self.buffer_pool = buffer_pool
        #: optional :class:`~repro.storage.faults.FaultInjector` and the
        #: shard id its plans key on (0 for an unsharded store).
        self.fault = None
        self.shard_id = 0

        # Physical image: row i of _storage is the i-th point on disk.
        self._storage = points[layout_order]
        # Logical -> physical position.
        position = np.empty(n, dtype=int)
        position[layout_order] = np.arange(n)
        self._position = position
        self._pages = position // self.points_per_page
        self._slots = position % self.points_per_page

    # ------------------------------------------------------------------
    # addressing
    # ------------------------------------------------------------------

    @property
    def n_pages(self) -> int:
        """Number of pages the dataset occupies."""
        return int(self._pages.max()) + 1 if self.n_points else 0

    def address(self, point_id: int) -> Address:
        """Physical address of a point (what BB-tree leaves store)."""
        if not 0 <= point_id < self.n_points:
            raise StorageError(f"point id {point_id} out of range")
        return Address(int(self._pages[point_id]), int(self._slots[point_id]))

    def pages_of(self, point_ids: Iterable[int]) -> np.ndarray:
        """Distinct pages holding the given points (sorted)."""
        if isinstance(point_ids, (np.ndarray, list, tuple)):
            ids = np.asarray(point_ids, dtype=int)
        else:
            ids = np.fromiter(point_ids, dtype=int)
        if ids.size == 0:
            return np.empty(0, dtype=int)
        return np.unique(self._pages[ids])

    # ------------------------------------------------------------------
    # I/O-charged access
    # ------------------------------------------------------------------

    def fetch(
        self, point_ids: Sequence[int], scope: Optional[QueryScope] = None
    ) -> np.ndarray:
        """Read points from disk, charging one I/O per distinct page.

        Returns the vectors in the order of ``point_ids``.  ``scope``
        is the query scope the charges dedup against (``None`` dedups
        within this call only).
        """
        ids = np.asarray(point_ids, dtype=int)
        if self.fault is not None:
            self.fault.before_access(self.shard_id)
        for page in self.pages_of(ids):
            self._charge(int(page), scope)
        return self._storage[self._position[ids]]

    def count_pages_of(self, point_ids: Sequence[int]) -> int:
        """Number of distinct pages holding the given points."""
        return int(self.pages_of(point_ids).size)

    def charge_pages_for(
        self,
        id_groups: Sequence[Sequence[int]],
        scope: Optional[QueryScope] = None,
    ) -> int:
        """Charge the distinct pages covering all groups exactly once.

        The coalescing primitive of the batch engine: a query batch
        charges the union of its candidates' pages here, then reads the
        vectors I/O-free via :meth:`peek`.  Returns the distinct page
        count, pool-oblivious: pages the buffer pool absorbs or
        ``scope`` already holds count here but are not charged again.
        """
        if self.fault is not None:
            self.fault.before_access(self.shard_id)
        touched = np.zeros(self.n_pages, dtype=bool)
        for ids in id_groups:
            touched[self._pages[np.asarray(ids, dtype=int)]] = True
        pages = np.flatnonzero(touched)
        for page in pages:
            self._charge(int(page), scope)
        return int(pages.size)

    def scan(self, scope: Optional[QueryScope] = None) -> np.ndarray:
        """Sequentially read the whole file (used by linear scan).

        Charges every page once and returns points in *logical* id order.
        """
        if self.fault is not None:
            self.fault.before_access(self.shard_id)
        for page in range(self.n_pages):
            self._charge(page, scope)
        return self._storage[self._position]

    def peek(self, point_ids: Sequence[int]) -> np.ndarray:
        """Read points *without* charging I/O.

        For callers that have already paid for the pages (the batch
        refinement after :meth:`charge_pages_for`) or that model free
        access (index construction).
        """
        ids = np.asarray(point_ids, dtype=int)
        return self._storage[self._position[ids]]

    def extended(self, new_points: np.ndarray) -> "DataStore":
        """A new store with ``new_points`` appended after the existing file.

        The extend-mode merge path: the original ``n`` points keep their
        logical ids, physical positions, pages and slots *and* the same
        simulated fileno, tracker, buffer pool and fault wiring, so
        buffer-pool entries and per-page accounting for the old file
        remain valid; the appended points fill fresh pages after the old
        last page.  The receiver is left untouched (snapshots pinned to
        it keep reading it).
        """
        new_points = np.atleast_2d(np.asarray(new_points, dtype=float))
        if new_points.shape[1] != self.dimensionality:
            raise InvalidParameterError(
                f"new points must have dimension {self.dimensionality}, "
                f"got {new_points.shape[1]}"
            )
        n, m = self.n_points, new_points.shape[0]
        store = copy.copy(self)
        store.n_points = n + m
        store._storage = np.concatenate([self._storage, new_points])
        store._position = np.concatenate([self._position, n + np.arange(m)])
        store._pages = store._position // self.points_per_page
        store._slots = store._position % self.points_per_page
        return store

    def attach_faults(self, injector, shard_id: int = 0) -> None:
        """Install a :class:`~repro.storage.faults.FaultInjector` whose
        plans for ``shard_id`` govern this store's simulated disk."""
        self.fault = injector
        self.shard_id = int(shard_id)

    def _charge(self, page: int, scope: Optional[QueryScope] = None) -> None:
        """Charge one page unless the buffer pool or the scope holds it."""
        if self.fault is not None and self.fault.may_fault_pages(self.shard_id):
            # transient faults model the physical read: only pages the
            # scope has not already charged can fail (a page the scope
            # holds is served from cache), which is also what lets the
            # retry loop converge -- every attempt's surviving prefix
            # shrinks the remaining fault surface
            if scope is None or not scope.has_read(self.fileno, page):
                self.fault.before_page(self.shard_id)
        if self.buffer_pool is not None and self.buffer_pool.access(
            self.fileno, page, scope=scope
        ):
            return
        self.tracker.read_page(self.fileno, page, scope=scope)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DataStore(n={self.n_points}, d={self.dimensionality}, "
            f"pages={self.n_pages}, page_size={self.page_size_bytes}B)"
        )
