"""Sharded storage: the point file partitioned across simulated disks.

Every :class:`~repro.core.index.BrePartitionIndex` keeps its points in
a :class:`ShardedDataStore`, which splits the dataset over ``S`` shard
:class:`~repro.storage.datastore.DataStore` files (each with its own
fileno, page space and :class:`DiskAccessTracker`) and owns the
global-id -> ``(shard, local row)`` mapping.  With ``S = 1`` (the
default) the one shard is the paper's file (Section 6): the full
vectors clustered in the seed BB-tree's leaf order, page for page.
The Fetch stage works one shard at a time:
:meth:`ShardedDataStore.shard_split` routes the batch's candidate union
to shards, and :meth:`ShardedDataStore.charge_shard_replica` charges
one shard's slice.  :attr:`ShardedDataStore.page_of` numbers
every page of every shard once; page counts and Plan's covered-batch
proof read it.

Accounting semantics:

* every charged page is counted on its shard's own tracker *and*
  mirrored into the shared aggregate tracker (the one whose
  :class:`~repro.storage.io_stats.QueryScope` objects the search
  drivers open per query/batch);
* the aggregate tracker's query-scope deduplication decides whether a
  page is charged at all -- a page deduplicated (or absorbed by the
  shared buffer pool) is charged on *neither* tracker, keeping the sum
  of shard totals equal to the aggregate total;
* :meth:`ShardedDataStore.charge_shard_replica` returns the slice's
  pool-oblivious distinct page count, from which the Fetch stage builds
  the batch's coalesced total and per-shard split.

Shard placement defaults to striping *pages* of the global layout order
round-robin, but callers (the BB-forest) can pass an explicit per-point
``shard_of`` assignment -- e.g. striping whole leaves so that each
shard keeps leaf-level locality.

Replication (``replication_factor = R``): every shard's pages exist as
R identical copies placed on R *distinct* simulated disks by rotation
-- replica ``r`` of shard ``s`` lives on disk ``(s + r) % n_shards``
(so disk ``d`` hosts the primary of shard ``d`` plus replicas of its
``R - 1`` predecessors, and killing one disk costs every shard at most
one replica).  All replicas of a shard share the primary's ``fileno``:
a page's identity is logical, so whichever replica serves it, the
querying scope admits it exactly once and failover re-charges never
double-count.  Each replica has its own :class:`ShardTracker` mirror,
so per-replica lifetime totals still sum to the aggregate total.
"""

from __future__ import annotations

import copy
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import InvalidParameterError
from .buffer_pool import BufferPool
from .datastore import DataStore
from .io_stats import DiskAccessTracker, QueryScope

__all__ = ["ShardTracker", "ShardedDataStore"]


class ShardTracker(DiskAccessTracker):
    """Per-shard tracker that mirrors every charge into an aggregate.

    The aggregate tracker is consulted first: if it declines the charge
    (query-scope deduplication), the shard does not count it either, so
    per-shard totals always sum to the aggregate total.
    """

    def __init__(self, aggregate: DiskAccessTracker) -> None:
        super().__init__()
        self.aggregate = aggregate

    def read_page(
        self, fileno: int, page: int, scope: Optional[QueryScope] = None
    ) -> bool:
        if not self.aggregate.read_page(fileno, page, scope=scope):
            return False
        # the shard's own lifetime count: no scope here -- the dedup
        # decision already happened (once) on the aggregate
        return super().read_page(fileno, page)

    def write_page(
        self, fileno: int, page: int, scope: Optional[QueryScope] = None
    ) -> None:
        self.aggregate.write_page(fileno, page, scope=scope)
        super().write_page(fileno, page)


class ShardedDataStore:
    """``S`` shard files presenting one global point-id address space.

    Parameters
    ----------
    points:
        The full-dimensional dataset, shape ``(n, d)``.
    n_shards:
        Number of simulated disks.
    layout_order:
        Global clustering permutation (the BB-forest's seed-leaf order);
        points assigned to the same shard keep this relative order, so
        leaf-local pages survive sharding.
    shard_of:
        Optional per-*logical-id* shard assignment.  Defaults to
        striping the pages of the global layout round-robin.
    page_size_bytes:
        Per-shard simulated page size.
    tracker:
        Aggregate I/O accounting (what the index scopes per query).
    buffer_pool:
        Optional cross-query page cache shared by all shards (shard
        filenos keep the keys distinct).
    replication_factor:
        Copies of every shard's pages, each on a distinct simulated
        disk (rotating placement).  ``1`` (default) keeps the
        unreplicated layout; must not exceed ``n_shards``.
    """

    def __init__(
        self,
        points: np.ndarray,
        n_shards: int,
        layout_order: Sequence[int] | None = None,
        shard_of: Sequence[int] | None = None,
        page_size_bytes: int = 65536,
        tracker: DiskAccessTracker | None = None,
        buffer_pool: BufferPool | None = None,
        replication_factor: int = 1,
    ) -> None:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        n, d = points.shape
        if n_shards < 1:
            raise InvalidParameterError(f"n_shards must be >= 1, got {n_shards}")
        if not 1 <= replication_factor <= n_shards:
            raise InvalidParameterError(
                f"replication_factor must be in [1, n_shards={n_shards}], "
                f"got {replication_factor}"
            )
        if layout_order is None:
            layout_order = np.arange(n)
        layout_order = np.asarray(layout_order, dtype=int)
        if sorted(layout_order.tolist()) != list(range(n)):
            raise InvalidParameterError("layout_order must be a permutation of range(n)")

        self.n_shards = int(n_shards)
        self.replication_factor = int(replication_factor)
        self.n_points = n
        self.dimensionality = d
        self.page_size_bytes = int(page_size_bytes)
        self.points_per_page = max(1, page_size_bytes // (8 * d))
        self.tracker = tracker if tracker is not None else DiskAccessTracker()
        self.buffer_pool = buffer_pool

        # Global layout rank of every logical id (position in the
        # clustering order); shards preserve this relative order.
        rank = np.empty(n, dtype=int)
        rank[layout_order] = np.arange(n)

        if shard_of is None:
            shard_of = (rank // self.points_per_page) % self.n_shards
        shard_of = np.asarray(shard_of, dtype=int)
        if shard_of.shape != (n,):
            raise InvalidParameterError(
                f"shard_of must have shape ({n},), got {shard_of.shape}"
            )
        if n and (shard_of.min() < 0 or shard_of.max() >= self.n_shards):
            raise InvalidParameterError(
                f"shard_of values must be in [0, {self.n_shards})"
            )
        self.shard_of = shard_of

        self.shard_trackers: List[ShardTracker] = [
            ShardTracker(self.tracker) for _ in range(self.n_shards)
        ]
        #: ``replica_trackers[s][r]``: the mirror counting replica ``r``
        #: of shard ``s`` (``[s][0] is shard_trackers[s]``); every
        #: admitted charge lands on exactly one mirror, so the sum over
        #: all replicas still equals the aggregate total.
        self.replica_trackers: List[List[ShardTracker]] = []
        #: ``replicas[s][r]``: identical copies of shard ``s``'s store,
        #: replica ``r`` hosted on disk :meth:`replica_disk` ``(s, r)``.
        #: All share replica 0's fileno (logical page identity).
        self.replicas: List[List[DataStore]] = []
        self.shards: List[DataStore] = []
        #: global id -> row within its shard's store.
        self._local = np.empty(n, dtype=int)
        for s in range(self.n_shards):
            ids = np.flatnonzero(shard_of == s)
            ids = ids[np.argsort(rank[ids], kind="stable")]
            self._local[ids] = np.arange(ids.size)
            shard_points = points[ids].reshape(ids.size, d)
            copies: List[DataStore] = []
            mirrors: List[ShardTracker] = []
            for r in range(self.replication_factor):
                mirror = (
                    self.shard_trackers[s] if r == 0 else ShardTracker(self.tracker)
                )
                replica = DataStore(
                    shard_points,
                    layout_order=np.arange(ids.size),
                    page_size_bytes=self.page_size_bytes,
                    tracker=mirror,
                    buffer_pool=buffer_pool,
                )
                if r > 0:
                    # same logical file: a page charged on any replica
                    # dedups (scope) and caches (pool) as one page
                    replica.fileno = copies[0].fileno
                copies.append(replica)
                mirrors.append(mirror)
            self.replicas.append(copies)
            self.replica_trackers.append(mirrors)
            self.shards.append(copies[0])

        self.fault = None
        self._page_of: Optional[np.ndarray] = None

    def replica_disk(self, shard: int, replica: int) -> int:
        """Disk hosting replica ``r`` of shard ``s`` (rotating placement).

        Replica 0 (the primary) stays on disk ``s``, so unreplicated
        stores keep the shard -> disk identity.
        """
        return (int(shard) + int(replica)) % self.n_shards

    def attach_faults(self, injector) -> None:
        """Install a :class:`~repro.storage.faults.FaultInjector`: every
        replica store faults according to the injector's plan for the
        *disk* hosting it -- breaking disk ``d`` takes down the primary
        of shard ``d`` and one replica of each of its ``R - 1``
        predecessors, exactly like losing one physical device."""
        self.fault = injector
        for s in range(self.n_shards):
            for r, store in enumerate(self.replicas[s]):
                store.attach_faults(injector, shard_id=self.replica_disk(s, r))

    # ------------------------------------------------------------------
    # addressing
    # ------------------------------------------------------------------

    def shard_split(
        self, point_ids: Sequence[int]
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Split global ids by shard: ``(positions, local_rows)`` per shard.

        ``positions`` are indices into ``point_ids`` (ascending) of the
        ids living on that shard and ``local_rows`` their row indices in
        the shard's store -- the one place the global-id -> (shard,
        local row) mapping is applied: a fan-out task charges its
        ``local_rows``, and :meth:`peek` scatters each shard's slab to
        its ``positions``.
        """
        ids = np.asarray(point_ids, dtype=int)
        shard_of = self.shard_of[ids]
        splits = []
        for s in range(self.n_shards):
            positions = np.flatnonzero(shard_of == s)
            splits.append((positions, self._local[ids[positions]]))
        return splits

    @property
    def n_pages(self) -> int:
        """Total pages across all shards."""
        return sum(store.n_pages for store in self.shards)

    @property
    def page_of(self) -> np.ndarray:
        """Each global id's page in one numbering of all shards' pages.

        Shard ``s``'s pages are numbered after shard ``s - 1``'s, in
        their own order, on the primaries (replicas share their pages).
        Computed on first use and kept: a store never changes its
        layout, and :meth:`extended` returns a new store.  Concurrent
        first callers may each compute it; the arrays are equal.
        """
        pages = self._page_of
        if pages is None:
            pages = np.empty(self.n_points, dtype=int)
            offset = 0
            for s, store in enumerate(self.shards):
                ids = np.flatnonzero(self.shard_of == s)
                pages[ids] = offset + store._pages[self._local[ids]]
                offset += store.n_pages
            self._page_of = pages
        return pages

    def count_pages_of(self, point_ids: Sequence[int]) -> int:
        """Distinct pages holding the given points, summed over shards."""
        # every page holds a point, so page numbers stay below n_points
        touched = np.zeros(self.n_points, dtype=bool)
        touched[self.page_of[np.asarray(point_ids, dtype=int)]] = True
        return int(np.count_nonzero(touched))

    # ------------------------------------------------------------------
    # I/O-charged access
    # ------------------------------------------------------------------

    def charge_shard_replica(
        self,
        shard: int,
        replica: int,
        local_groups: Sequence[Sequence[int]],
        scope: Optional[QueryScope] = None,
    ) -> int:
        """Charge one shard's slice against one specific replica.

        The failover/hedging unit: replicas share the primary's fileno,
        so a slice partially charged on one replica and re-charged on
        another lands in the same scope dedup set -- ``pages_read``
        stays exactly what a fault-free run charges, whichever replicas
        end up serving.  The count lands on the serving replica's own
        :class:`ShardTracker` mirror.  Returns the slice's distinct
        page count and touches no shared store state, so any number of
        batches may fan out over the same store concurrently.
        """
        return self.replicas[shard][replica].charge_pages_for(
            local_groups, scope=scope
        )

    def peek(self, point_ids: Sequence[int]) -> np.ndarray:
        """Read points *without* charging I/O (pages already paid for)."""
        ids = np.asarray(point_ids, dtype=int)
        out = np.empty((ids.size, self.dimensionality), dtype=float)
        for s, (positions, local) in enumerate(self.shard_split(ids)):
            if local.size:
                out[positions] = self.shards[s].peek(local)
        return out

    def extended(self, new_points: np.ndarray) -> "ShardedDataStore":
        """A new sharded store with ``new_points`` appended.

        The extend-mode merge: the appended points are striped
        round-robin over the shards, and every replica appends its
        shard's share through :meth:`DataStore.extended`.  Existing
        points keep their logical ids, shards and pages, and every
        replica keeps its fileno, lifetime :class:`ShardTracker` mirror
        and fault wiring, so buffer-pool entries and per-shard
        accounting carry over.  The receiver is left untouched
        (snapshots pinned to it keep reading it).
        """
        new_points = np.atleast_2d(np.asarray(new_points, dtype=float))
        if new_points.shape[1] != self.dimensionality:
            raise InvalidParameterError(
                f"new points must have dimension {self.dimensionality}, "
                f"got {new_points.shape[1]}"
            )
        n, m = self.n_points, new_points.shape[0]
        shard_of_new = np.arange(m) % self.n_shards
        store = copy.copy(self)
        store.n_points = n + m
        store.shard_of = np.concatenate([self.shard_of, shard_of_new])
        store._local = np.concatenate([self._local, np.empty(m, dtype=int)])
        store.replicas = []
        for s, copies in enumerate(self.replicas):
            mine = np.flatnonzero(shard_of_new == s)
            store._local[n + mine] = copies[0].n_points + np.arange(mine.size)
            store.replicas.append(
                [replica.extended(new_points[mine]) for replica in copies]
            )
        store.shards = [copies[0] for copies in store.replicas]
        store._page_of = None
        return store

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------

    @property
    def shard_pages_read(self) -> List[int]:
        """Lifetime pages read per shard, summed over the shard's
        replicas (sums to the aggregate total)."""
        return [
            sum(tracker.total_pages_read for tracker in mirrors)
            for mirrors in self.replica_trackers
        ]

    @property
    def replica_pages_read(self) -> List[List[int]]:
        """Lifetime pages read per ``[shard][replica]`` mirror; the
        grand total equals the aggregate tracker's total."""
        return [
            [tracker.total_pages_read for tracker in mirrors]
            for mirrors in self.replica_trackers
        ]

    @property
    def shard_sizes(self) -> List[int]:
        """Points per shard."""
        return [store.n_points for store in self.shards]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardedDataStore(n={self.n_points}, d={self.dimensionality}, "
            f"shards={self.n_shards}, replication={self.replication_factor}, "
            f"pages={self.n_pages}, page_size={self.page_size_bytes}B)"
        )
