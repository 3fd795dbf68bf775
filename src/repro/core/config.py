"""Configuration for :class:`~repro.core.index.BrePartitionIndex`."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from ..exceptions import InvalidParameterError
from ..partitioning.contiguous import ContiguousPartitioner
from ..partitioning.pccp import PCCPPartitioner
from ..partitioning.scheme import PartitionStrategy

__all__ = ["BrePartitionConfig"]


@dataclass(slots=True)
class BrePartitionConfig:
    """Tunables of the partition-filter-refinement pipeline.

    The class has slots, so assigning a name that is not a field (a
    misspelt or retired knob) raises :class:`AttributeError` instead of
    creating an attribute nothing reads.

    Parameters
    ----------
    n_partitions:
        The paper's ``M``.  ``None`` (default) calibrates the cost model
        on the data and applies Theorem 4.
    strategy:
        ``"pccp"`` (default, the paper's recommended strategy),
        ``"contiguous"`` (the ablation baseline), or any
        :class:`~repro.partitioning.scheme.PartitionStrategy` instance.
    page_size_bytes:
        Simulated disk page size (paper Table 4: 32KB-128KB).
    leaf_capacity:
        Points per BB-tree leaf; ``None`` derives it from the page
        geometry so one leaf fetch is roughly one page.
    point_filter:
        When ``True``, subspace range queries filter candidates exactly
        at the leaves instead of returning whole clusters (an ablation;
        the paper uses cluster granularity).
    calibration_samples:
        Sample size for fitting ``A``, ``alpha``, ``beta``.
    seed:
        Seeds every random choice (two-means, PCCP draws, seed-subspace
        selection) for reproducible builds.
    n_shards:
        Number of simulated disks the point file is partitioned across
        (a :class:`~repro.storage.sharded.ShardedDataStore`, with the
        BB-forest's leaves striped round-robin across shards).  ``1``
        (default) is one clustered file on one disk.
    shard_workers:
        Threads fanning the Fetch stage's per-shard page charges out
        across the shards (one task per shard; see :mod:`repro.exec`).
        ``1`` (default) runs the fan-out sequentially inline; the pool
        is never wider than ``n_shards``.  Results are bitwise identical
        for any value.
    io_max_retries:
        Extra attempts a storage charge gets after a
        :class:`~repro.exceptions.TransientIOError` (fault injection),
        with capped exponential backoff (``io_backoff_ms`` doubling up
        to ``io_backoff_cap_ms``).  ``0`` (default) fails fast.  Retried
        charges never double-count: the query scope's dedup set admits
        each page once however many attempts it takes.
    shard_failure:
        What ``search_batch`` does when a shard stays down after
        retries: ``"raise"`` (default) propagates the
        :class:`~repro.exceptions.ShardUnavailableError`; ``"partial"``
        fails only the queries whose candidate pages live on the dead
        shard (their slot in ``BatchSearchResult.results`` is ``None``
        and the error rides in ``BatchSearchResult.failures``) while
        the rest of the batch still returns exact results.  ``search``
        is a batch of one, so under ``"partial"`` it raises only when
        its own candidates live on the dead shard.
    wal_path:
        When set, :meth:`BrePartitionIndex.build` opens a write-ahead
        log at this path and every insert/delete appends a checksummed
        record *before* acknowledging; ``BrePartitionIndex.recover``
        replays it after a crash.  ``None`` (default) keeps the delta
        buffer memory-only.
    wal_fsync:
        ``True`` fsyncs every WAL append (real-device durability);
        ``False`` (default) flushes to the OS only, which the simulated
        crash tests exercise without paying device latency.
    wal_group_commit_ms:
        When set, WAL appends within this window share one flush/fsync
        (group commit): the first appender leads the group, waits out
        the window, then makes every gathered record durable with a
        single flush before any of them acknowledges.  Amortises the
        fsync cost under concurrent mutators at the price of up to one
        window of acknowledge latency.  ``None`` (default) flushes
        every append individually.
    replication_factor:
        Copies of every shard's pages, each on a distinct simulated
        disk (rotating placement; see
        :class:`~repro.storage.sharded.ShardedDataStore`).  With ``R >
        1`` the fetch fan-out fails over to a live replica when a disk
        is broken or its circuit breaker is open, so serving stays
        bitwise exact with any ``R - 1`` replicas of each shard dead.
        ``1`` (default) keeps the unreplicated layout; must not exceed
        ``n_shards``.
    breaker_threshold:
        Consecutive permanent failures that open a disk's circuit
        breaker (:class:`~repro.exec.ShardHealthRegistry`).  An open
        breaker is skipped by failover routing instead of re-attempted
        -- fail fast onto a live replica.
    breaker_reset_s:
        Seconds an open breaker waits before reporting half-open, at
        which point the next attempt is the probe that closes it
        (success) or re-opens it (failure).
    hedge_after_ms:
        When set (and ``replication_factor > 1``), a replica fetch
        still outstanding after this many milliseconds is raced against
        the shard's next live replica and the first result wins (the
        tail-tolerant hedged read).  Results are bitwise identical
        either way; ``None`` (default) never hedges.
    """

    n_partitions: Optional[int] = None
    strategy: Union[str, PartitionStrategy] = "pccp"
    page_size_bytes: int = 65536
    leaf_capacity: Optional[int] = None
    point_filter: bool = False
    calibration_samples: int = 50
    seed: Optional[int] = None
    n_shards: int = 1
    shard_workers: int = 1
    io_max_retries: int = 0
    io_backoff_ms: float = 1.0
    io_backoff_cap_ms: float = 50.0
    shard_failure: str = "raise"
    wal_path: Optional[str] = None
    wal_fsync: bool = False
    wal_group_commit_ms: Optional[float] = None
    replication_factor: int = 1
    breaker_threshold: int = 5
    breaker_reset_s: float = 0.25
    hedge_after_ms: Optional[float] = None

    def __post_init__(self) -> None:
        if self.n_partitions is not None and self.n_partitions < 1:
            raise InvalidParameterError("n_partitions must be >= 1 (or None for auto)")
        if self.page_size_bytes < 64:
            raise InvalidParameterError("page_size_bytes unreasonably small")
        if self.leaf_capacity is not None and self.leaf_capacity < 1:
            raise InvalidParameterError("leaf_capacity must be >= 1 (or None for auto)")
        if self.calibration_samples < 2:
            raise InvalidParameterError("calibration_samples must be >= 2")
        if self.n_shards < 1:
            raise InvalidParameterError("n_shards must be >= 1")
        if self.shard_workers < 1:
            raise InvalidParameterError("shard_workers must be >= 1")
        if self.io_max_retries < 0:
            raise InvalidParameterError("io_max_retries must be >= 0")
        if self.io_backoff_ms < 0 or self.io_backoff_cap_ms < 0:
            raise InvalidParameterError("io backoff milliseconds must be >= 0")
        if self.shard_failure not in ("raise", "partial"):
            raise InvalidParameterError(
                f"shard_failure must be 'raise' or 'partial', "
                f"got {self.shard_failure!r}"
            )
        if self.wal_group_commit_ms is not None and self.wal_group_commit_ms < 0:
            raise InvalidParameterError(
                "wal_group_commit_ms must be >= 0 (or None to disable)"
            )
        if not 1 <= self.replication_factor <= self.n_shards:
            raise InvalidParameterError(
                f"replication_factor must be in [1, n_shards="
                f"{self.n_shards}], got {self.replication_factor}"
            )
        if self.breaker_threshold < 1:
            raise InvalidParameterError("breaker_threshold must be >= 1")
        if self.breaker_reset_s < 0:
            raise InvalidParameterError("breaker_reset_s must be >= 0")
        if self.hedge_after_ms is not None and self.hedge_after_ms <= 0:
            raise InvalidParameterError(
                "hedge_after_ms must be positive (or None to disable)"
            )

    def make_strategy(self, rng) -> PartitionStrategy:
        """Resolve the strategy field to an instance."""
        if isinstance(self.strategy, PartitionStrategy):
            return self.strategy
        name = str(self.strategy).lower()
        if name == "pccp":
            return PCCPPartitioner(rng=rng)
        if name == "contiguous":
            return ContiguousPartitioner()
        raise InvalidParameterError(
            f"unknown strategy {self.strategy!r}; use 'pccp', 'contiguous' or an instance"
        )

    def leaf_capacity_for(self, dimensionality: int) -> int:
        """Leaf capacity: explicit, or one disk page's worth of points."""
        if self.leaf_capacity is not None:
            return self.leaf_capacity
        return max(8, self.page_size_bytes // (8 * dimensionality))
