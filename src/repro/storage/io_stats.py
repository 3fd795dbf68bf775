"""I/O accounting for the simulated disk.

The paper evaluates on a physical SSD and reports *I/O cost* as the
number of disk pages touched per query.  We reproduce that metric with a
:class:`DiskAccessTracker`: every page fetch is charged exactly once per
query (re-touching a page already read during the same query is free --
this is precisely the data-reuse effect PCCP and the BB-forest layout are
designed to exploit), and global counters accumulate across queries.

Query scoping is *explicit*: :meth:`DiskAccessTracker.scope` hands out a
:class:`QueryScope` carrying its own dedup set and counters, and every
charge call accepts the scope it should dedup against.  Two queries (or
two serving micro-batches) can therefore be in flight on the same
tracker at once without corrupting each other's pages-per-query numbers
-- the property the concurrent serving layer (:mod:`repro.serve`) rests
on.  There is no ambient scope: a charge without one is never deduped.
Lifetime totals stay lock-protected and exact.

An optional :class:`IOCostModel` converts page counts into estimated
seconds using a configurable IOPS figure, mirroring the paper's
discussion of SSD IOPS in Section 5.1.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Iterable, Optional, Set

__all__ = ["DiskAccessTracker", "IOCostModel", "QueryIOSnapshot", "QueryScope"]


@dataclass(frozen=True)
class QueryIOSnapshot:
    """Immutable record of a single query's I/O activity."""

    pages_read: int
    pages_written: int


class QueryScope:
    """One query's (or one batch's) private I/O accounting scope.

    Owns the per-query dedup set and counters that used to live on the
    tracker itself: reads of the same ``(fileno, page)`` within one
    scope are charged once (simulating the OS page cache over a single
    working set), and the counts here never mix with a concurrently
    open scope's.  A scope's internal lock makes it safe to share
    across the shard fan-out threads of *its own* query; distinct
    in-flight queries each hold their own scope.

    ``pool_epoch`` / ``cross_batch_hits`` are the buffer-pool epoch
    bookkeeping: the Fetch stage stamps the scope with the pool epoch it
    opened, and the pool counts hits on pages a *different* epoch cached
    into ``cross_batch_hits`` (see :class:`~repro.storage.buffer_pool.BufferPool`).
    """

    __slots__ = (
        "tracker",
        "reads",
        "writes",
        "pool_epoch",
        "cross_batch_hits",
        "io_retries",
        "pinned",
        "_pages",
        "_lock",
        "_finished",
    )

    def __init__(self, tracker: "DiskAccessTracker") -> None:
        self.tracker = tracker
        self.reads = 0
        self.writes = 0
        #: buffer-pool epoch this scope's fetches run under (stamped by
        #: the Fetch stage when a pool is attached; ``None`` otherwise).
        self.pool_epoch: Optional[int] = None
        #: pool hits on pages an earlier (or concurrent other) scope
        #: paid for -- incremented by the pool under its own lock.
        self.cross_batch_hits = 0
        #: transient-fault retries this scope's charges absorbed (see
        #: :meth:`count_retry`).  Retried charges never re-enter
        #: ``reads``: the dedup set admits each ``(fileno, page)`` once,
        #: however many attempts it took -- the accounting-under-faults
        #: exactness contract.
        self.io_retries = 0
        #: index snapshot pinned for this scope's lifetime (see
        #: :meth:`pin`); released exactly once by :meth:`finish`.
        self.pinned = None
        self._pages: Set[tuple[int, int]] = set()
        self._lock = threading.Lock()
        self._finished = False

    def admit_read(self, fileno: int, page: int) -> bool:
        """Dedup decision: ``True`` charges the page, ``False`` is free.

        The check-and-insert runs under the scope's lock, so the shard
        workers of one fan-out never double-charge a shared page.
        """
        with self._lock:
            key = (fileno, page)
            if key in self._pages:
                return False
            self._pages.add(key)
            self.reads += 1
            return True

    def has_read(self, fileno: int, page: int) -> bool:
        """Has this scope already charged a page?  (Read-only peek at
        the dedup set; the fault injector skips pages the scope holds
        -- the OS cache serves them, so a flaky disk cannot fail them.)"""
        with self._lock:
            return (fileno, page) in self._pages

    def count_retry(self, n: int = 1) -> None:
        """Record ``n`` transient-fault retries against this scope."""
        with self._lock:
            self.io_retries += n

    def pin(self, snapshot) -> None:
        """Pin an index snapshot (anything with ``pin``/``unpin``) to
        this scope's lifetime.

        The search drivers pin the :class:`~repro.core.snapshot.IndexSnapshot`
        they opened with, so a background merge knows when every scope
        still reading the old frozen base has drained.  :meth:`finish`
        releases the pin exactly once.
        """
        snapshot.pin()
        with self._lock:
            if self.pinned is not None:
                self.pinned.unpin()
            self.pinned = snapshot

    def admit_write(self) -> None:
        """Count a write within this scope (writes never dedup)."""
        with self._lock:
            self.writes += 1

    def snapshot(self) -> QueryIOSnapshot:
        """This scope's I/O activity so far."""
        with self._lock:
            return QueryIOSnapshot(pages_read=self.reads, pages_written=self.writes)

    def finish(self) -> QueryIOSnapshot:
        """Close the scope: bump the tracker's query count once, release
        any pinned snapshot, and return the final snapshot.  Idempotent."""
        with self._lock:
            if not self._finished:
                self._finished = True
                first = True
            else:
                first = False
            pinned, self.pinned = self.pinned, None
            snap = QueryIOSnapshot(pages_read=self.reads, pages_written=self.writes)
        if first:
            self.tracker._count_query()
        if pinned is not None:
            pinned.unpin()
        return snap

    def __enter__(self) -> "QueryScope":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.finish()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"QueryScope(reads={self.reads}, writes={self.writes})"


class DiskAccessTracker:
    """Counts simulated page reads/writes with per-scope deduplication.

    Scoped usage (safe under concurrent in-flight queries)::

        with tracker.scope() as scope:
            tracker.read_page(fileno, page, scope=scope)
        snapshot = scope.snapshot()

    Lifetime totals (``total_pages_read`` / ``total_pages_written`` /
    ``queries``) are serialised by the tracker's lock, so concurrent
    scopes -- and the parallel shard fan-out mirroring charges into a
    shared aggregate tracker -- always sum exactly.
    """

    def __init__(self) -> None:
        self.total_pages_read = 0
        self.total_pages_written = 0
        self.queries = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # query lifecycle
    # ------------------------------------------------------------------

    def scope(self) -> QueryScope:
        """Open a fresh, private query scope (not installed anywhere).

        Charge calls must pass it explicitly; any number of scopes may
        be in flight on one tracker at once.
        """
        return QueryScope(self)

    def finish_scope(self, scope: QueryScope) -> QueryIOSnapshot:
        """Close ``scope`` (counting one completed query) and return its
        snapshot."""
        return scope.finish()

    def _count_query(self) -> None:
        with self._lock:
            self.queries += 1

    # ------------------------------------------------------------------
    # charging
    # ------------------------------------------------------------------

    def read_page(
        self, fileno: int, page: int, scope: Optional[QueryScope] = None
    ) -> bool:
        """Charge a page read; returns ``True`` when actually charged.

        Within ``scope``, re-reads of the same ``(fileno, page)`` are
        free; without one every call is charged.  The dedup decision
        runs under the scope's lock and the lifetime total under the
        tracker's, so concurrent shard workers charging disjoint pages
        never lose an increment and the dedup stays exact.
        """
        if scope is not None and not scope.admit_read(fileno, page):
            return False
        with self._lock:
            self.total_pages_read += 1
        return True

    def read_pages(
        self, fileno: int, pages: Iterable[int], scope: Optional[QueryScope] = None
    ) -> int:
        """Charge several pages; returns how many were actually charged."""
        return sum(1 for page in pages if self.read_page(fileno, page, scope=scope))

    def write_page(
        self, fileno: int, page: int, scope: Optional[QueryScope] = None
    ) -> None:
        """Charge a page write (used by index construction)."""
        if scope is not None:
            scope.admit_write()
        with self._lock:
            self.total_pages_written += 1

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------

    @property
    def mean_pages_per_query(self) -> float:
        """Average pages read per completed query (0.0 before any query)."""
        if self.queries == 0:
            return 0.0
        return self.total_pages_read / self.queries

    def reset(self) -> None:
        """Zero all counters (between experiment runs).

        Runs under the existing lock -- the lock object itself is never
        replaced, so shard workers mid-charge on other threads serialise
        against the reset instead of racing a half-reinitialised
        tracker.  Open scopes are not touched (their charges after the
        reset count toward the fresh totals).
        """
        with self._lock:
            self.total_pages_read = 0
            self.total_pages_written = 0
            self.queries = 0


@dataclass(frozen=True)
class IOCostModel:
    """Translate page counts into seconds via an IOPS model.

    The paper (Section 5.1) argues SSD IOPS are high enough that I/O time
    is negligible next to CPU time for the optimised partition count; this
    model lets benchmarks quantify that claim for arbitrary devices.
    """

    page_size_bytes: int = 65536
    iops: float = 50_000.0

    def seconds_for(self, pages: int) -> float:
        """Estimated seconds to read ``pages`` random pages."""
        return pages / self.iops
