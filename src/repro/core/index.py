"""BrePartition: the paper's exact kNN index (Algorithms 5 and 6).

Build pipeline (:meth:`BrePartitionIndex.build`, Algorithm 5):

1. decide the number of partitions ``M`` (Theorem 4, unless fixed);
2. partition the dimensions (PCCP by default);
3. build the BB-forest and lay the full vectors out on the simulated
   disk in the seed tree's leaf order;
4. precompute the per-subspace point tuples ``P(x) = (alpha, gamma)``.

Search pipeline (Algorithm 6): one staged run in :mod:`repro.pipeline`
-- Plan (bounds, radii, forest traversal), Fetch (page-union charging,
shard fan-out), Refine (BLAS expansion estimates, each with a
certified error bound) and Rerank (the certificate, then
direct-kernel top-k) each transform one shared
:class:`~repro.pipeline.QueryBatchContext`.  :meth:`BrePartitionIndex.search`
is that run at ``B = 1`` and :meth:`BrePartitionIndex.search_batch` at
any ``B``; both drivers validate inputs, snapshot the index, scope the
I/O tracker and run the stages through one private helper, then fold
the finished context into result records (per-stage wall time lands in
``stats.stage_seconds``).
"""

from __future__ import annotations

import dataclasses
import threading
import time
from typing import Optional

import numpy as np

from ..bbtree.forest import BBForest
from ..divergences.base import DecomposableBregmanDivergence, RowTerms
from ..exceptions import (
    InvalidParameterError,
    NotDecomposableError,
    NotFittedError,
    WALError,
)
from ..exec.executor import FanoutPool, ShardExecutor, ShardHealthRegistry
from ..partitioning.optimizer import (
    CostModelParams,
    calibrate_cost_model,
    optimal_partitions,
)
from ..pipeline import QueryBatchContext, SearchPipeline
from ..pipeline.refine import refinement_block
from ..pipeline.rerank import top_k_stable as _top_k_stable  # noqa: F401 - re-export
from ..storage.buffer_pool import BufferPool
from ..storage.io_stats import DiskAccessTracker
from ..storage.sharded import ShardedDataStore
from ..storage.wal import OP_COMMIT, OP_INSERT, Checkpoint, WriteAheadLog
from .config import BrePartitionConfig
from .results import BatchQueryStats, BatchSearchResult, QueryStats, SearchResult
from .snapshot import (
    BaseState,
    DeltaBuffer,
    IndexSnapshot,
    MergeStats,
    RecoveryStats,
)
from .transforms import SubspaceTransforms

__all__ = ["BrePartitionIndex"]


class BrePartitionIndex:
    """Exact high-dimensional kNN under a decomposable Bregman divergence.

    Parameters
    ----------
    divergence:
        A :class:`~repro.divergences.base.DecomposableBregmanDivergence`;
        non-decomposable divergences (simplex KL, full-matrix
        Mahalanobis) are rejected (paper Section 3.1).
    config:
        See :class:`~repro.core.config.BrePartitionConfig`.
    tracker:
        Shared I/O accounting; defaults to a private tracker.
    buffer_pool:
        Optional cross-query page cache.
    """

    def __init__(
        self,
        divergence: DecomposableBregmanDivergence,
        config: BrePartitionConfig | None = None,
        tracker: DiskAccessTracker | None = None,
        buffer_pool: BufferPool | None = None,
    ) -> None:
        if not getattr(divergence, "supports_partitioning", False):
            raise NotDecomposableError(
                f"divergence {divergence.name!r} is not decomposable; "
                "BrePartition requires a cumulative (separable) divergence"
            )
        self.divergence = divergence
        self.config = config if config is not None else BrePartitionConfig()
        self.tracker = tracker if tracker is not None else DiskAccessTracker()
        self.buffer_pool = buffer_pool
        self.rng = np.random.default_rng(self.config.seed)

        self.partitioning = None
        self.forest: Optional[BBForest] = None
        self.datastore: Optional[ShardedDataStore] = None
        self.transforms: Optional[SubspaceTransforms] = None
        self.cost_params: Optional[CostModelParams] = None
        self.n_partitions: Optional[int] = None
        self.construction_seconds: float = 0.0
        self._points: Optional[np.ndarray] = None
        self._refine_conditioner = None
        #: the published frozen base (epoch'd, immutable) and the delta
        #: buffer of unmerged updates; together they are the index state
        #: a search snapshots.  Guarded by ``_mutate_lock``.
        self._base: Optional[BaseState] = None
        self._delta: Optional[DeltaBuffer] = None
        self._next_id = 0
        #: total mutations (inserts + deletes) successfully applied --
        #: the monotone version linearizability tests bracket against.
        self.updates_applied = 0
        #: serialises mutations and the publish step of merges/reshards
        #: against snapshot capture (searches hold it only momentarily).
        self._mutate_lock = threading.Lock()
        #: serialises whole merges/reshards against each other.
        self._merge_lock = threading.Lock()
        #: write-ahead log (``config.wal_path``); ``None`` keeps the
        #: delta buffer memory-only.
        self._wal: Optional[WriteAheadLog] = None
        #: populated by :meth:`recover` on the index it returns.
        self.recovery_stats: Optional[RecoveryStats] = None
        #: optional fault injector every datastore this index builds
        #: (including merge/reshard rebuilds) is wired to.
        self._fault_injector = None
        #: per-disk health and circuit breakers, shared by every
        #: per-call fetch executor so breaker state persists across
        #: searches (and across merge/reshard datastore rebuilds).
        self.shard_health = ShardHealthRegistry(
            failure_threshold=self.config.breaker_threshold,
            reset_seconds=self.config.breaker_reset_s,
        )
        #: Fetch's shard fan-out threads, started by the first call
        #: that needs them and kept across calls until :meth:`close`.
        self._fanout = FanoutPool()
        #: the staged Plan -> Fetch -> Refine -> Rerank engine both
        #: search drivers (and the serving layer) run.
        self.pipeline = SearchPipeline(self)

    # ------------------------------------------------------------------
    # construction (Algorithm 5)
    # ------------------------------------------------------------------

    def build(self, points: np.ndarray) -> "BrePartitionIndex":
        """Precompute everything: partitioning, BB-forest, tuples, layout."""
        start = time.perf_counter()
        points = np.atleast_2d(np.asarray(points, dtype=float))
        n, d = points.shape
        if n < 2:
            raise InvalidParameterError("need at least two points to index")
        self.divergence.validate_domain(points, "dataset")

        strategy = self.config.make_strategy(self.rng)
        if self.config.n_partitions is not None:
            m = min(self.config.n_partitions, d)
        else:
            self.cost_params = calibrate_cost_model(
                self.divergence,
                points,
                n_samples=self.config.calibration_samples,
                strategy=strategy,
                rng=self.rng,
            )
            m = optimal_partitions(n, d, self.cost_params)
        self.n_partitions = int(m)

        partitioning = strategy.partition(points, self.n_partitions)
        leaf_capacity = self.config.leaf_capacity_for(d)
        forest = BBForest(
            self.divergence,
            partitioning,
            leaf_capacity=leaf_capacity,
            rng=self.rng,
        ).build(points)
        datastore = self._make_datastore(points, forest)
        transforms = SubspaceTransforms(self.divergence, partitioning, points)
        # Conditioner for the expansion-form refinement kernels: maps
        # candidates and queries into the kernels' well-conditioned
        # regime via the divergence's exact invariance (centring for
        # SED/Mahalanobis, scaling for ISD/KL), which keeps the
        # certified error bounds tight.
        conditioner = self.divergence.refinement_conditioner(points)
        with self._mutate_lock:
            self._publish(
                BaseState(
                    epoch=0,
                    partitioning=partitioning,
                    n_partitions=self.n_partitions,
                    forest=forest,
                    datastore=datastore,
                    transforms=transforms,
                    points=points,
                    refine_conditioner=conditioner,
                    row_terms=self._row_terms(points, conditioner),
                )
            )
            self._delta = DeltaBuffer(d)
            self._next_id = n
            self.updates_applied = 0
        if self.config.wal_path is not None:
            # fresh log plus an immediate covers-0 checkpoint: recovery
            # is self-contained from the first acknowledged op on
            self.attach_wal(self.config.wal_path, fresh=True)
            self._wal_checkpoint(0, self._base)
        self.construction_seconds = time.perf_counter() - start
        return self

    def _publish(self, base: BaseState) -> None:
        """Install ``base`` as the published frozen state (callers hold
        ``_mutate_lock``) and refresh the legacy component mirrors.

        The mirrors (``self.forest`` etc.) exist for introspection and
        single-threaded callers; the search path reads components only
        through the snapshot it captured.
        """
        self._base = base
        self.partitioning = base.partitioning
        self.forest = base.forest
        self.datastore = base.datastore
        self.transforms = base.transforms
        self._points = base.points
        self._refine_conditioner = base.refine_conditioner

    def _row_terms(self, points: np.ndarray, conditioner) -> RowTerms:
        """The query-independent terms each published base caches for
        ``points`` (conditioned first): the refinement kernel's and the
        certified bound's, so Refine pays only per-query and per-pair
        work (the paper's Algorithm 5 rule for the per-point tuples,
        applied to refinement).  Row blocks keep the conditioned copy
        small; the terms are row reductions, so blocking changes no
        value."""
        block = refinement_block(1, points.shape[1])
        blocks = []
        for lo in range(0, points.shape[0], block):
            rows = points[lo : lo + block]
            if conditioner is not None:
                rows = conditioner.transform(rows)
            blocks.append(self.divergence.row_terms(rows))
        return RowTerms.concatenate(blocks)

    def _make_datastore(self, points: np.ndarray, forest: BBForest) -> ShardedDataStore:
        """Lay the point file out in the seed tree's leaf order across
        ``config.n_shards`` simulated disks (leaves striped round-robin;
        one shard is the paper's single clustered file)."""
        store = ShardedDataStore(
            points,
            self.config.n_shards,
            layout_order=forest.layout_order,
            shard_of=forest.shard_assignment(self.config.n_shards),
            page_size_bytes=self.config.page_size_bytes,
            tracker=self.tracker,
            buffer_pool=self.buffer_pool,
            replication_factor=self.config.replication_factor,
        )
        if self._fault_injector is not None:
            store.attach_faults(self._fault_injector)
        return store

    def attach_fault_injector(self, injector) -> None:
        """Wire a :class:`~repro.storage.faults.FaultInjector` into the
        index's storage, now and across every future merge/reshard.

        Attached at the index (not the datastore) so the injector
        survives the datastore rebuilds merges and reshards publish.
        """
        self._fault_injector = injector
        if self.datastore is not None:
            self.datastore.attach_faults(injector)

    def reshard(
        self, n_shards: int, replication_factor: Optional[int] = None
    ) -> "BrePartitionIndex":
        """Re-lay the point file across ``n_shards`` simulated disks.

        Only the datastore is rebuilt -- the forest, transforms and leaf
        layout are reused -- so this is cheap relative to :meth:`build`.
        Search results are unaffected (sharding changes where pages
        live, not what the index returns); ``config.n_shards`` is
        updated so later rebuilds keep the setting.  Publishes a new
        epoch: searches in flight keep reading the datastore they
        pinned, new searches see the new layout.  ``replication_factor``
        additionally re-lays each shard's pages onto that many distinct
        disks (``None`` keeps the configured value).
        """
        self._require_built()
        if n_shards < 1:
            raise InvalidParameterError(f"n_shards must be >= 1, got {n_shards}")
        if replication_factor is not None and not 1 <= replication_factor <= n_shards:
            raise InvalidParameterError(
                f"replication_factor must be in [1, n_shards={n_shards}], "
                f"got {replication_factor}"
            )
        with self._merge_lock:
            self.config.n_shards = int(n_shards)
            if replication_factor is not None:
                self.config.replication_factor = int(replication_factor)
            base = self._base
            datastore = self._make_datastore(base.points, base.forest)
            with self._mutate_lock:
                self._publish(
                    base.replaced(epoch=base.epoch + 1, datastore=datastore)
                )
        return self

    def _require_built(self) -> None:
        if self.forest is None or self.datastore is None or self.transforms is None:
            raise NotFittedError("BrePartitionIndex.build() must be called first")

    # ------------------------------------------------------------------
    # mutations (delta buffer + epoch/snapshot publication)
    # ------------------------------------------------------------------

    def snapshot(self) -> IndexSnapshot:
        """Atomically capture the ``(frozen base, delta version)`` pair.

        The snapshot is immutable: concurrent inserts/deletes/merges
        publish new state instead of editing what a snapshot references,
        so a search that runs entirely against one snapshot can never
        observe a torn array.  Pin it (via
        :meth:`QueryScope.pin <repro.storage.io_stats.QueryScope.pin>`)
        to let background merges wait for its readers to drain.
        """
        self._require_built()
        with self._mutate_lock:
            return IndexSnapshot(self._base, self._delta.view())

    def insert(self, point: np.ndarray, point_id: Optional[int] = None) -> int:
        """Insert one point; visible to every search opened afterwards.

        The point lands in the in-memory delta buffer (searched
        brute-force alongside the frozen index and merged during
        Rerank); the frozen structures are untouched until
        :meth:`merge`.  Returns the point's id (auto-assigned when
        ``point_id`` is ``None``).
        """
        self._require_built()
        point = np.asarray(point, dtype=float)
        if point.ndim != 1 or point.shape[0] != self.partitioning.dimensionality:
            raise InvalidParameterError(
                f"point must have shape ({self.partitioning.dimensionality},), "
                f"got {point.shape}"
            )
        self.divergence.validate_domain(point, "inserted point")
        with self._mutate_lock:
            if point_id is None:
                pid = self._next_id
            else:
                pid = int(point_id)
                if pid < 0:
                    raise InvalidParameterError("point ids must be non-negative")
            if self._is_live_locked(pid):
                raise InvalidParameterError(f"point id {pid} already present")
            # write-ahead: the record must be on the log before the op
            # becomes visible; if the append fails the op never applied
            # and the caller never got an acknowledgement to rely on
            if self._wal is not None:
                self._wal.append_insert(pid, point, self.updates_applied + 1)
            self._delta.insert(point, pid)
            self._next_id = max(self._next_id, pid + 1)
            self.updates_applied += 1
        return pid

    def delete(self, point_id: int) -> None:
        """Delete a live point; absent from every search opened afterwards.

        Frozen points are tombstoned (filtered before top-k; physically
        removed by the next :meth:`merge`), unmerged delta inserts are
        dropped outright.
        """
        self._require_built()
        pid = int(point_id)
        with self._mutate_lock:
            if not self._is_live_locked(pid):
                raise InvalidParameterError(f"point id {pid} is not a live point")
            if self._wal is not None:
                self._wal.append_delete(pid, self.updates_applied + 1)
            self._delta.delete(pid)
            self.updates_applied += 1

    def _is_live_locked(self, pid: int) -> bool:
        """Liveness of an id under ``_mutate_lock``: delta state first
        (newest op wins), then the frozen base."""
        if self._delta.is_alive(pid):
            return True
        if self._delta.is_tombstoned(pid):
            return False
        return self._base.row_of_id(pid) is not None

    @property
    def delta_ops(self) -> int:
        """Unmerged delta ops (what serving layers threshold merges on)."""
        return self._delta.version if self._delta is not None else 0

    def merge(
        self, mode: str = "rebuild", drain_timeout: Optional[float] = 30.0
    ) -> MergeStats:
        """Fold the delta buffer into a new frozen base and publish it.

        ``mode="rebuild"`` re-partitions from scratch over the live
        points (compacting tombstones away -- the quality-restoring
        path); ``mode="extend"`` appends the delta inserts to the
        existing forest/datastore/transforms without touching old rows
        (cheap, keeps old pages and pool entries valid, carries
        tombstones forward as permanently dead rows).

        The swap is atomic: a cut of the delta is taken under the
        mutation lock, the new base is built off-line, then published
        (with the delta rebased past the cut) under the lock again.
        In-flight searches keep their pinned snapshot throughout;
        ``drain_timeout`` only bounds how long this call waits for them
        to finish before returning (``MergeStats.drained``).
        """
        self._require_built()
        if mode not in ("rebuild", "extend"):
            raise InvalidParameterError(
                f"merge mode must be 'rebuild' or 'extend', got {mode!r}"
            )
        with self._merge_lock:
            start = time.perf_counter()
            with self._mutate_lock:
                old_base = self._base
                cut = self._delta.view()
                # global op number of the cut -- what the WAL commit
                # record and checkpoint cover (captured under the same
                # lock as the cut, so they name the same prefix)
                cut_global = self.updates_applied
            if cut.version == 0:
                return MergeStats(
                    epoch=old_base.epoch,
                    mode=mode,
                    merged_inserts=0,
                    resolved_tombstones=0,
                    n_frozen=old_base.n_frozen,
                    drained=True,
                    seconds=0.0,
                )
            # Resolve the cut's tombstones against the old base exactly
            # like a search snapshot would.
            dead_mask = IndexSnapshot(old_base, cut).dead_mask
            if mode == "rebuild":
                new_base = self._merge_rebuild(old_base, cut, dead_mask)
            else:
                new_base = self._merge_extend(old_base, cut, dead_mask)
            with self._mutate_lock:
                self._delta = self._delta.rebase(cut.version)
                self._publish(new_base)
            wal_truncated = 0
            if self._wal is not None:
                wal_truncated = self._wal_commit(cut_global, new_base)
            seconds = time.perf_counter() - start
            drained = old_base.wait_drained(drain_timeout)
            return MergeStats(
                epoch=new_base.epoch,
                mode=mode,
                merged_inserts=cut.n_inserts,
                resolved_tombstones=len(cut.tombstones),
                n_frozen=new_base.n_frozen,
                drained=drained,
                seconds=seconds,
                wal_records_truncated=wal_truncated,
            )

    def _merge_rebuild(self, base: BaseState, cut, dead_mask) -> BaseState:
        """Re-partition from scratch over the live points (compaction)."""
        live = np.ones(base.n_frozen, dtype=bool)
        if dead_mask is not None:
            live &= ~dead_mask
        gids = np.concatenate([base.global_ids[live], cut.ids])
        points = np.vstack([base.points[live], cut.points])
        if gids.size < 2:
            raise InvalidParameterError(
                "merge would leave fewer than two live points; "
                "insert more points before merging"
            )
        # Keep the rebuilt file sorted by external id so row order (and
        # therefore tie-breaking by row) matches ascending external id.
        order = np.argsort(gids, kind="stable")
        gids = gids[order]
        points = np.ascontiguousarray(points[order])
        strategy = self.config.make_strategy(self.rng)
        partitioning = strategy.partition(points, base.n_partitions)
        forest = BBForest(
            self.divergence,
            partitioning,
            leaf_capacity=self.config.leaf_capacity_for(points.shape[1]),
            rng=self.rng,
        ).build(points)
        conditioner = self.divergence.refinement_conditioner(points)
        return BaseState(
            epoch=base.epoch + 1,
            partitioning=partitioning,
            n_partitions=base.n_partitions,
            forest=forest,
            datastore=self._make_datastore(points, forest),
            transforms=SubspaceTransforms(self.divergence, partitioning, points),
            points=points,
            refine_conditioner=conditioner,
            row_terms=self._row_terms(points, conditioner),
            global_ids=gids,
        )

    def _merge_extend(self, base: BaseState, cut, dead_mask) -> BaseState:
        """Append the delta inserts to the existing frozen structures.

        Old rows keep their positions, pages and bounds bitwise; the
        cut's tombstones become permanently dead rows whose global id is
        retired to the ``-1`` sentinel (so the same external id may
        reappear as an appended row).  The refinement conditioner and
        the old rows' cached terms are kept too, unless an appended
        row's terms would not be finite under it
        (:meth:`~repro.divergences.base.DecomposableBregmanDivergence.cacheable`):
        then the conditioner is re-derived over every row and every
        row's terms recomputed.
        """
        conditioner = base.refine_conditioner
        if cut.n_inserts:
            points = np.vstack([base.points, cut.points])
            forest = base.forest.extended(points)
            datastore = base.datastore.extended(cut.points)
            transforms = base.transforms.extended(cut.points)
            appended = cut.points
            if conditioner is not None:
                appended = conditioner.transform(appended)
            if self.divergence.cacheable(appended).all():
                # exact invariance: the conditioner only shifts/scales
                # both sides of the expansion identically, so the old
                # one keeps old *and* new rows exact.  Row terms of the
                # appended rows only: row reductions, so they equal the
                # terms of the stacked file's last rows
                row_terms = RowTerms.concatenate(
                    [base.row_terms, self._row_terms(cut.points, conditioner)]
                )
            else:
                # an appended row's terms would overflow under the old
                # conditioner: re-derive it over every row, as build and
                # rebuild do
                conditioner = self.divergence.refinement_conditioner(points)
                row_terms = self._row_terms(points, conditioner)
        else:
            points = base.points
            forest = base.forest
            datastore = base.datastore
            transforms = base.transforms
            row_terms = base.row_terms
        gids = np.concatenate([base.global_ids, cut.ids])
        dead = None
        if dead_mask is not None and dead_mask.any():
            dead = np.zeros(gids.size, dtype=bool)
            dead[: base.n_frozen] = dead_mask
            gids = gids.copy()
            gids[np.flatnonzero(dead)] = -1
        return BaseState(
            epoch=base.epoch + 1,
            partitioning=base.partitioning,
            n_partitions=base.n_partitions,
            forest=forest,
            datastore=datastore,
            transforms=transforms,
            points=points,
            refine_conditioner=conditioner,
            row_terms=row_terms,
            global_ids=gids,
            dead_rows=dead,
        )

    # ------------------------------------------------------------------
    # durability (write-ahead log + crash recovery)
    # ------------------------------------------------------------------

    def attach_wal(self, path: str, fresh: bool) -> WriteAheadLog:
        """Open the write-ahead log every later mutation appends to,
        closing the one it replaces."""
        if self._wal is not None:
            self._wal.close()
        self._wal = WriteAheadLog(
            path,
            fresh=fresh,
            fsync=self.config.wal_fsync,
            group_commit_ms=self.config.wal_group_commit_ms,
        )
        return self._wal

    def _wal_commit(self, covers: int, base: BaseState) -> int:
        """Merge epilogue on the log: commit record, checkpoint, compact.

        Each step is individually crash-safe, in this order: a commit
        record without its checkpoint is ignored at replay (the old
        checkpoint still covers the right prefix), and a checkpoint
        without compaction just skips the covered records by version.
        Returns the number of records compaction dropped.
        """
        self._wal.append_commit(covers)
        self._wal_checkpoint(covers, base)
        return self._wal.compact(covers)

    def _wal_checkpoint(self, covers: int, base: BaseState) -> None:
        """Atomically checkpoint ``base``'s live rows, id-ascending."""
        if base.dead_rows is not None:
            live = np.flatnonzero(~base.dead_rows)
        else:
            live = np.arange(base.n_frozen)
        gids = base.global_ids[live]
        order = np.argsort(gids, kind="stable")
        Checkpoint.save(
            self._wal.path,
            points=base.points[live][order],
            global_ids=gids[order],
            covers_version=covers,
            epoch=base.epoch,
            next_id=self._next_id,
            fsync=self._wal.fsync,
        )

    def _replay_insert(self, pid: int, point: np.ndarray) -> None:
        """Apply a replayed insert (no WAL append, no re-validation --
        the record was validated when it was first acknowledged)."""
        with self._mutate_lock:
            if self._is_live_locked(pid):
                raise WALError(f"WAL replays insert of live point id {pid}")
            self._delta.insert(point, pid)
            self._next_id = max(self._next_id, pid + 1)
            self.updates_applied += 1

    def _replay_delete(self, pid: int) -> None:
        """Apply a replayed delete (no WAL append)."""
        with self._mutate_lock:
            if not self._is_live_locked(pid):
                raise WALError(f"WAL replays delete of dead point id {pid}")
            self._delta.delete(pid)
            self.updates_applied += 1

    @classmethod
    def recover(
        cls,
        wal_path: str,
        divergence: DecomposableBregmanDivergence,
        config: BrePartitionConfig | None = None,
        points: Optional[np.ndarray] = None,
        tracker: DiskAccessTracker | None = None,
        buffer_pool: BufferPool | None = None,
    ) -> "BrePartitionIndex":
        """Reopen a crashed WAL-enabled index to its acknowledged state.

        The frozen base is rebuilt from the newest checkpoint sidecar
        (``<wal_path>.ckpt``); every log record *newer* than the
        checkpoint's coverage is replayed into the delta buffer, and a
        torn tail -- the half-written record of a crash mid-append -- is
        truncated (its op was never acknowledged).  The recovered index
        then serves search results bitwise equal to an uninterrupted run
        over the acknowledged prefix, and keeps appending to the same
        log.  ``points`` is the original build input, needed only when
        the log predates its first checkpoint (normally ``build`` writes
        one immediately).  ``config`` must match the crashed index's
        (it is not persisted); the recovery outcome lands in
        :attr:`recovery_stats`.
        """
        scan = WriteAheadLog.scan(wal_path)
        ckpt = Checkpoint.load(wal_path)
        if ckpt is not None:
            covers = ckpt["covers_version"]
            base_points = ckpt["points"]
            base_gids = ckpt["global_ids"]
            base_epoch = ckpt["epoch"]
            next_id = ckpt["next_id"]
        else:
            if points is None:
                raise WALError(
                    f"{wal_path!r} has no checkpoint sidecar; pass the "
                    "original build points to recover"
                )
            covers = 0
            base_points = np.atleast_2d(np.asarray(points, dtype=float))
            base_gids = np.arange(base_points.shape[0])
            base_epoch = 0
            next_id = base_points.shape[0]

        if config is None:
            config = BrePartitionConfig(wal_path=wal_path)
        # build with the WAL detached -- build(wal_path=...) would
        # truncate the very log we are recovering from
        index = cls(
            divergence,
            dataclasses.replace(config, wal_path=None),
            tracker=tracker,
            buffer_pool=buffer_pool,
        )
        index.build(base_points)
        with index._mutate_lock:
            base = index._base
            if base_epoch != base.epoch or not np.array_equal(
                base_gids, base.global_ids
            ):
                index._publish(
                    base.replaced(epoch=base_epoch, global_ids=base_gids)
                )
            index._next_id = max(index._next_id, next_id)
            index.updates_applied = covers

        replayed_inserts = replayed_deletes = skipped = 0
        for record in scan.records:
            if record.op == OP_COMMIT or record.version <= covers:
                skipped += int(record.op != OP_COMMIT)
                continue
            if record.op == OP_INSERT:
                index._replay_insert(record.pid, record.point)
                replayed_inserts += 1
            else:
                index._replay_delete(record.pid)
                replayed_deletes += 1

        # attach (not fresh): physically truncates the torn tail and
        # resumes appending after the last acknowledged record
        index.attach_wal(wal_path, fresh=False)
        index.config.wal_path = wal_path
        index.recovery_stats = RecoveryStats(
            wal_path=wal_path,
            used_checkpoint=ckpt is not None,
            checkpoint_version=covers,
            replayed_inserts=replayed_inserts,
            replayed_deletes=replayed_deletes,
            skipped_ops=skipped,
            torn_bytes_dropped=scan.torn_bytes,
            final_version=index.updates_applied,
        )
        return index

    # ------------------------------------------------------------------
    # search drivers (Algorithm 6 over the staged pipeline)
    # ------------------------------------------------------------------

    def _run_pipeline(self, queries, k: int, single: bool):
        """Validate, snapshot, and run the pipeline in one pinned I/O scope.

        The shared body of both drivers.  ``single`` marks a
        :meth:`search` call: ``queries`` must then be one ``(d,)`` row,
        run as a batch of one; otherwise it is ``(B, d)`` (a 1-D row is
        promoted to ``B = 1``).  Returns ``(ctx, io, seconds, snap)``: the
        finished context, the scope's I/O snapshot, the wall-clock time
        of the run and the index snapshot it read.

        The scope is explicit (not tracker-global state), which makes
        the drivers re-entrant: concurrent in-flight calls each dedup
        and count against their own scope, so ``pages_read`` stays
        exact.  Pinning the snapshot to it lets merges wait for the
        call to drain.
        """
        self._require_built()
        queries = np.asarray(queries, dtype=float)
        snap = self.snapshot()
        d = snap.partitioning.dimensionality
        if single:
            if queries.shape != (d,):
                raise InvalidParameterError(
                    f"query must have shape ({d},), got {queries.shape}"
                )
            self.divergence.validate_domain(queries, "query")
            queries = queries[None, :]
        else:
            queries = np.atleast_2d(queries)
            if queries.ndim != 2 or queries.shape[1] != d:
                raise InvalidParameterError(
                    f"queries must have shape (B, {d}), got {queries.shape}"
                )
            self.divergence.validate_domain(queries, "query batch")
        if not 1 <= k <= snap.n_live:
            raise InvalidParameterError(
                f"k must be in [1, {snap.n_live}], got {k}"
            )

        scope = self.tracker.scope()
        scope.pin(snap)
        start = time.perf_counter()
        try:
            ctx = QueryBatchContext(
                queries=queries, k=k, single=single, scope=scope, snapshot=snap
            )
            self.pipeline.run(ctx)
        finally:
            elapsed = time.perf_counter() - start
            io = self.tracker.finish_scope(scope)
        return ctx, io, elapsed, snap

    def search(self, query: np.ndarray, k: int) -> SearchResult:
        """Exact kNN of ``query`` (ids and divergences, ascending).

        One batch-pipeline run at ``B = 1`` against one atomic
        :meth:`snapshot`, pinned to the query's I/O scope: concurrent
        inserts/deletes/merges never tear the arrays this search reads,
        and the result equals a search against the exact update prefix
        the snapshot captured.  ``stats.pages_read`` is what the scope
        actually charged (buffer-pool hits are free).  A shard that stays
        down raises :class:`~repro.exceptions.ShardUnavailableError`
        instead of returning a partial result: under
        ``shard_failure="raise"`` any dead shard does, under
        ``"partial"`` one that holds a candidate of this query.
        """
        ctx, io, elapsed, snap = self._run_pipeline(query, k, single=True)
        if ctx.query_errors:
            raise ctx.query_errors[0]
        candidates = ctx.candidates[0]
        top_ids, exact = ctx.refined[0]
        stats = QueryStats(
            pages_read=io.pages_read,
            cpu_seconds=elapsed,
            n_candidates=int(candidates.size),
            search_bound=float(ctx.bound_totals[0]),
            per_subspace_candidates=ctx.forest_stats[0].per_subspace_candidates,
            leaves_visited=ctx.forest_stats[0].leaves_visited,
            points_evaluated=int(candidates.size),
            stage_seconds=dict(ctx.stage_seconds),
            delta_candidates=ctx.delta_candidates[0],
            epoch=snap.epoch,
        )
        return SearchResult(ids=top_ids, divergences=exact, stats=stats)

    def search_batch(self, queries: np.ndarray, k: int) -> BatchSearchResult:
        """Exact kNN for a batch of queries in one vectorized pass.

        Semantically equivalent to calling :meth:`search` per row of
        ``queries`` (same ids and divergences), but the whole pipeline is
        amortized across the batch:

        * the Theorem-1 bound tensor is one broadcasted NumPy
          expression over the rows that can hold a query's ``k``
          smallest bounds (at ``M = 1`` the base's k-skyband in
          ``(alpha, gamma)``, a few percent of ``n``; every row at
          ``M > 1``), and all per-query radii come from a single
          ``np.argpartition`` over its ``(B, rows)`` totals (Plan);
        * each BB-tree is traversed once for the whole batch, testing a
          node's ball against every active query in one vectorized
          bisection (Plan);
        * candidate pages are charged with reads coalesced across
          queries -- fanned out one task per shard -- so overlapping
          candidate pages are charged once (Fetch);
        * every (union row, query) pair is estimated with one BLAS
          product per row block, each estimate with a proved error
          bound (Refine);
        * per query, only the rows the bound cannot rule out are scored
          with the direct kernel, whose top-k is the oracle's (Rerank).

        Returns a :class:`BatchSearchResult`; ``result[b]`` is query
        ``b``'s :class:`SearchResult`.  Per-query ``pages_read`` reports
        what that query would have paid alone, while the batch-level
        stats report the coalesced total actually charged, with the
        per-stage wall-time split in ``stats.stage_seconds``.
        """
        ctx, io, elapsed, snap = self._run_pipeline(queries, k, single=False)
        n_queries = ctx.n_queries

        failures = dict(ctx.query_errors)
        results: list[Optional[SearchResult]] = []
        # a covered batch hands every query one array: count it once
        counted = solo_pages = None
        unshared_pages = 0
        total_candidates = 0
        total_delta = 0
        per_query_seconds = elapsed / n_queries if n_queries else 0.0
        for q in range(n_queries):
            if q in failures:
                # doomed by a permanently failed shard (partial mode):
                # the slot stays aligned, the error rides in failures
                results.append(None)
                continue
            ids = ctx.candidates[q]
            top_ids, top_divergences = ctx.refined[q]
            if ids is not counted:
                counted, solo_pages = ids, snap.datastore.count_pages_of(ids)
            unshared_pages += solo_pages
            total_candidates += int(ids.size)
            delta_candidates = ctx.delta_candidates[q]
            total_delta += delta_candidates
            stats = QueryStats(
                pages_read=solo_pages,
                cpu_seconds=per_query_seconds,
                n_candidates=int(ids.size),
                search_bound=float(ctx.bound_totals[q]),
                per_subspace_candidates=ctx.forest_stats[q].per_subspace_candidates,
                leaves_visited=ctx.forest_stats[q].leaves_visited,
                points_evaluated=int(ids.size),
                delta_candidates=delta_candidates,
                epoch=snap.epoch,
            )
            results.append(
                SearchResult(ids=top_ids, divergences=top_divergences, stats=stats)
            )

        batch_stats = BatchQueryStats(
            pages_read=io.pages_read,
            pages_read_unshared=unshared_pages,
            pages_coalesced=ctx.pages_coalesced,
            pages_read_per_shard=ctx.pages_per_shard,
            cpu_seconds=elapsed,
            n_queries=n_queries,
            n_candidates=total_candidates,
            shard_workers=min(self.config.shard_workers, snap.datastore.n_shards),
            shard_seconds=ctx.shard_seconds,
            stage_seconds=dict(ctx.stage_seconds),
            cross_batch_hits=ctx.cross_batch_hits,
            delta_candidates=total_delta,
            io_retries=ctx.io_retries,
            n_failed_queries=len(failures),
            n_failovers=ctx.n_failovers,
            n_hedged=ctx.n_hedged,
            covered=ctx.covered,
        )
        return BatchSearchResult(
            results=results, stats=batch_stats, failures=failures
        )

    # ------------------------------------------------------------------
    # resources and stage hooks
    # ------------------------------------------------------------------

    def _make_executor(self) -> ShardExecutor:
        """Fan-out executor from the config (workers, retries, routing)."""
        hedge = self.config.hedge_after_ms
        return ShardExecutor(
            self.config.shard_workers,
            max_retries=self.config.io_max_retries,
            backoff_seconds=self.config.io_backoff_ms / 1000.0,
            backoff_cap_seconds=self.config.io_backoff_cap_ms / 1000.0,
            health=self.shard_health,
            hedge_after_seconds=hedge / 1000.0 if hedge is not None else None,
            pool=self._fanout,
        )

    def close(self) -> None:
        """Release the write-ahead log's file handle, if any, and join
        the shard fan-out threads.

        Searches keep working (one that needs fan-out threads starts
        them again).  On a WAL-backed index every later insert or
        delete raises :class:`~repro.exceptions.WALError`, because it
        can no longer be logged before it is acknowledged.  Safe to
        call repeatedly.
        """
        self._fanout.close()
        if self._wal is not None:
            self._wal.close()

    def _adjust_radii_batch(self, search_bounds, triples, transforms) -> np.ndarray:
        """Plan-stage hook for the approximate extension, which shrinks
        the ``(B, M)`` radii using ``transforms`` (the pinned snapshot's,
        which the anchor rows index); exact search returns them as-is."""
        return search_bounds.radii

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def n_points(self) -> int:
        """Number of live points (frozen survivors plus unmerged inserts)."""
        self._require_built()
        return self.snapshot().n_live

    @property
    def epoch(self) -> int:
        """Epoch of the currently published frozen base."""
        self._require_built()
        return self._base.epoch

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = (
            f"M={self.n_partitions}, n={self.transforms.n_points}"
            if self.transforms is not None
            else "unbuilt"
        )
        return f"{type(self).__name__}({self.divergence.name}, {state})"
