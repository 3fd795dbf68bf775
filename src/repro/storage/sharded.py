"""Sharded storage: the point file partitioned across simulated disks.

ROADMAP "Sharding": the per-query candidate unions of the batch engine
are independent, so candidate fetches can fan out across disks.
:class:`ShardedDataStore` splits the dataset over ``S`` shard
:class:`~repro.storage.datastore.DataStore` files (each with its own
fileno, page space and :class:`DiskAccessTracker`) while presenting the
same I/O-charged interface as a single store -- ``fetch`` / ``peek`` /
``charge_pages_for`` / ``count_pages_of`` / ``scan`` all accept global
point ids and route per shard internally.

Accounting semantics:

* every charged page is counted on its shard's own tracker *and*
  mirrored into the shared aggregate tracker (the one whose
  :class:`~repro.storage.io_stats.QueryScope` objects the search
  drivers open per query/batch), so existing per-query and batch
  statistics keep working unchanged;
* the aggregate tracker's query-scope deduplication decides whether a
  page is charged at all -- a page deduplicated (or absorbed by the
  shared buffer pool) is charged on *neither* tracker, keeping the sum
  of shard totals equal to the aggregate total;
* :meth:`ShardedDataStore.charge_pages_for` returns the pool-oblivious
  distinct page count (exactly like the unsharded store) and records
  the per-shard split in :attr:`ShardedDataStore.last_charge_per_shard`
  for batch statistics.

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

from typing import Iterable, List, Optional, Sequence

import numpy as np

from ..exceptions import InvalidParameterError, StorageError
from .buffer_pool import BufferPool
from .datastore import Address, DataStore
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

        # Global layout rank of every logical id (position on the
        # unsharded disk image); shards preserve this relative order.
        rank = np.empty(n, dtype=int)
        rank[layout_order] = np.arange(n)
        self._layout_rank = rank

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
        #: per-shard page counts charged by the most recent
        #: :meth:`charge_pages_for` call (the batch fan-out record).
        self.last_charge_per_shard: List[int] = [0] * self.n_shards
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
                copy = DataStore(
                    shard_points,
                    layout_order=np.arange(ids.size),
                    page_size_bytes=self.page_size_bytes,
                    tracker=mirror,
                    buffer_pool=buffer_pool,
                )
                if r > 0:
                    # same logical file: a page charged on any replica
                    # dedups (scope) and caches (pool) as one page
                    copy.fileno = copies[0].fileno
                copies.append(copy)
                mirrors.append(mirror)
            self.replicas.append(copies)
            self.replica_trackers.append(mirrors)
            self.shards.append(copies[0])

        self.fault = None

    def replica_disk(self, shard: int, replica: int) -> int:
        """Disk hosting replica ``r`` of shard ``s`` (rotating placement).

        Replica 0 (the primary) stays on disk ``s``, so unreplicated
        stores keep the legacy shard -> disk identity.
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

    def _route(self, ids: np.ndarray):
        """Route global ids per shard: yields (s, store, mask, local).

        ``mask`` selects the rows of ``ids`` living on shard ``s`` and
        ``local`` holds their row indices within that shard's store --
        the one place the global-id -> (shard, local row) mapping lives.
        """
        shard_of = self.shard_of[ids]
        for s, store in enumerate(self.shards):
            mask = shard_of == s
            yield s, store, mask, self._local[ids[mask]]

    @property
    def n_pages(self) -> int:
        """Total pages across all shards."""
        return sum(store.n_pages for store in self.shards)

    def shard_of_point(self, point_id: int) -> int:
        """Shard holding a logical point id."""
        if not 0 <= point_id < self.n_points:
            raise StorageError(f"point id {point_id} out of range")
        return int(self.shard_of[point_id])

    def address(self, point_id: int) -> Address:
        """Global address: page encoded as ``shard + n_shards * local_page``."""
        shard = self.shard_of_point(point_id)
        local = self.shards[shard].address(int(self._local[point_id]))
        return Address(shard + self.n_shards * local.page, local.slot)

    def pages_of(self, point_ids: Iterable[int]) -> np.ndarray:
        """Distinct global-encoded pages holding the given points (sorted)."""
        if isinstance(point_ids, (np.ndarray, list, tuple)):
            ids = np.asarray(point_ids, dtype=int)
        else:
            ids = np.fromiter(point_ids, dtype=int)
        if ids.size == 0:
            return np.empty(0, dtype=int)
        pages = []
        for s, store, _, local in self._route(ids):
            if local.size:
                pages.append(s + self.n_shards * store.pages_of(local))
        return np.sort(np.concatenate(pages)) if pages else np.empty(0, dtype=int)

    def count_pages_of(self, point_ids: Sequence[int]) -> int:
        """Distinct pages holding the given points, summed over shards."""
        ids = np.asarray(point_ids, dtype=int)
        return sum(
            store.count_pages_of(local) for _, store, _, local in self._route(ids)
        )

    # ------------------------------------------------------------------
    # I/O-charged access
    # ------------------------------------------------------------------

    def fetch(
        self, point_ids: Sequence[int], scope: Optional[QueryScope] = None
    ) -> np.ndarray:
        """Read points, charging each shard for its distinct pages."""
        ids = np.asarray(point_ids, dtype=int)
        for _, store, _, local in self._route(ids):
            if local.size:
                store.charge_pages_for([local], scope=scope)
        return self.peek(ids)

    def shard_charge_plan(
        self, id_groups: Sequence[Sequence[int]]
    ) -> List[List[np.ndarray]]:
        """Route a batch's candidate groups into per-shard local groups.

        Entry ``s`` holds the shard-local row groups that
        :meth:`charge_shard` would charge on shard ``s`` -- the unit of
        work the :class:`~repro.exec.ShardExecutor` fans out, one task
        per shard.
        """
        local_groups: List[List[np.ndarray]] = [[] for _ in range(self.n_shards)]
        for ids in id_groups:
            for s, _, _, local in self._route(np.asarray(ids, dtype=int)):
                local_groups[s].append(local)
        return local_groups

    def charge_shard(
        self,
        shard: int,
        local_groups: Sequence[Sequence[int]],
        scope: Optional[QueryScope] = None,
    ) -> int:
        """Charge one shard's slice of the batch's page union.

        ``scope`` is the charging batch's query scope (dedup and
        per-batch counters live there, so concurrent batches stay
        exact).  Records the count in :attr:`last_charge_per_shard`
        (callers fanning out reset the list first via
        :meth:`begin_charge`) -- a convenience for single-batch callers
        only; the concurrent engine goes through
        :meth:`charge_shard_replica`, which leaves the shared list
        alone.  Thread-safe with respect to other shards: each shard
        writes its own list slot, and the underlying trackers lock
        internally.
        """
        distinct = self.shards[shard].charge_pages_for(local_groups, scope=scope)
        self.last_charge_per_shard[shard] = distinct
        return distinct

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

    def begin_charge(self) -> None:
        """Reset the per-shard fan-out record before a set of
        :meth:`charge_shard` calls (one batch's worth)."""
        self.last_charge_per_shard = [0] * self.n_shards

    def shard_split(self, point_ids: Sequence[int]):
        """Split global ids by shard: ``(positions, local_rows)`` per shard.

        ``positions`` are indices into ``point_ids`` (ascending) of the
        ids living on that shard and ``local_rows`` their row indices in
        the shard's store -- what a fan-out task needs to ``peek`` its
        slab and scatter results back into union-ordered arrays.
        """
        ids = np.asarray(point_ids, dtype=int)
        shard_of = self.shard_of[ids]
        splits = []
        for s in range(self.n_shards):
            positions = np.flatnonzero(shard_of == s)
            splits.append((positions, self._local[ids[positions]]))
        return splits

    def charge_pages_for(
        self,
        id_groups: Sequence[Sequence[int]],
        scope: Optional[QueryScope] = None,
    ) -> int:
        """Fan the batch's page-union charge out across the shards.

        Each shard charges the distinct pages covering its slice of all
        groups exactly once; the per-shard split is recorded in
        :attr:`last_charge_per_shard`.  Returns the total distinct page
        count (pool-oblivious, like the unsharded store).
        """
        plan = self.shard_charge_plan(id_groups)
        self.begin_charge()
        return sum(
            self.charge_shard(s, plan[s], scope=scope) for s in range(self.n_shards)
        )

    def scan(self, scope: Optional[QueryScope] = None) -> np.ndarray:
        """Read every shard file fully; returns points in logical order."""
        for store in self.shards:
            # charge all the shard's pages without materialising its
            # points (the gather below reads everything once, globally)
            store.charge_pages_for([np.arange(store.n_points)], scope=scope)
        return self.peek(np.arange(self.n_points))

    def peek(self, point_ids: Sequence[int]) -> np.ndarray:
        """Read points *without* charging I/O (pages already paid for)."""
        ids = np.asarray(point_ids, dtype=int)
        out = np.empty((ids.size, self.dimensionality), dtype=float)
        for _, store, mask, local in self._route(ids):
            if local.size:
                out[mask] = store.peek(local)
        return out

    def extended(
        self,
        new_points: np.ndarray,
        shard_of_new: Sequence[int] | None = None,
    ) -> "ShardedDataStore":
        """A new sharded store with ``new_points`` appended.

        Extend-mode merge counterpart of :meth:`DataStore.extended`:
        existing points keep their logical ids, shard placement and
        shard-local positions (new points get layout ranks *after* every
        existing rank, so per-shard relative order -- and therefore old
        local pages -- is preserved), and each shard keeps its fileno
        and lifetime :class:`ShardTracker`, so buffer-pool entries and
        per-shard accounting carry over.  ``shard_of_new`` defaults to
        round-robin placement of the appended points.
        """
        new_points = np.atleast_2d(np.asarray(new_points, dtype=float))
        if new_points.shape[1] != self.dimensionality:
            raise InvalidParameterError(
                f"new points must have dimension {self.dimensionality}, "
                f"got {new_points.shape[1]}"
            )
        n, m = self.n_points, new_points.shape[0]
        if shard_of_new is None:
            shard_of_new = np.arange(m) % self.n_shards
        shard_of_new = np.asarray(shard_of_new, dtype=int)
        # physical rank -> logical id for the existing global layout
        old_layout = np.empty(n, dtype=int)
        old_layout[self._layout_rank] = np.arange(n)
        store = ShardedDataStore(
            np.vstack([self.peek(np.arange(n)), new_points]),
            self.n_shards,
            layout_order=np.concatenate([old_layout, n + np.arange(m)]),
            shard_of=np.concatenate([self.shard_of, shard_of_new]),
            page_size_bytes=self.page_size_bytes,
            tracker=self.tracker,
            buffer_pool=self.buffer_pool,
            replication_factor=self.replication_factor,
        )
        # keep shard identities: same filenos (pool keys stay valid) and
        # the same lifetime per-replica trackers
        store.shard_trackers = self.shard_trackers
        store.replica_trackers = self.replica_trackers
        for s in range(self.n_shards):
            for r in range(self.replication_factor):
                store.replicas[s][r].fileno = self.replicas[s][r].fileno
                store.replicas[s][r].tracker = self.replica_trackers[s][r]
        if self.fault is not None:
            store.attach_faults(self.fault)
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
