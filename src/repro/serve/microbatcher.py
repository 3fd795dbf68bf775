"""Asyncio micro-batching front-end over the staged search pipeline.

ROADMAP "Async serving": concurrent single-query requests are coalesced
into micro-batches so the whole staged pipeline -- one bound tensor, one
forest traversal, one coalesced page-union charge -- is amortized across
the requests that happen to arrive together.  The knob is the classic
latency/throughput trade: a batch is dispatched as soon as
``max_batch_size`` requests are pending, or ``max_wait_ms`` after its
first request arrived, whichever comes first.

The event loop only queues requests and resolves futures; batches run
``search_batch`` on a worker pool of ``max_concurrent_batches`` threads.
Overlapping in-flight batches are safe because the index drivers open a
private :class:`~repro.storage.io_stats.QueryScope` per call -- each
batch dedups and counts pages against its own scope, so per-batch
``pages_read`` stays exact and per-shard totals still sum to the
aggregate (``1``, the default, serializes batches exactly as before).
Inside each call the sharded Fetch stage still fans out across its own
:class:`~repro.exec.ShardExecutor` pool.  Storage is compute-only, so
overlapping batches gains only what the GIL-releasing NumPy work lets
threads share.

Overload is bounded: at most ``max_queue_depth`` requests may wait for
dispatch.  Arrivals beyond that either await admission (``overflow
= "wait"``, backpressure onto the client) or fail fast with
:class:`~repro.exceptions.ServerOverloadedError` (``overflow =
"reject"``, load shedding), so a persistent server degrades gracefully
instead of queueing without bound.

Responses are the exact per-query
:class:`~repro.core.results.SearchResult` records, bitwise identical to
a direct ``index.search`` call (the same pipeline at ``B = 1``) -- the
pipeline's row parity across batch sizes is what makes transparent
micro-batching sound.

Mutations ride the same front-end: :meth:`MicroBatcher.insert` /
:meth:`MicroBatcher.delete` apply through the index's delta buffer
(O(delta), no event-loop blocking), every search batch serves from the
epoch/snapshot it pinned at dispatch, and ``merge_threshold`` folds the
delta back into the frozen index on a background worker while serving
continues uninterrupted.
"""

from __future__ import annotations

import asyncio
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Deque, Dict, Optional

import numpy as np

from ..core.results import BatchQueryStats, SearchResult
from ..exceptions import (
    DeadlineExceededError,
    InvalidParameterError,
    ServerOverloadedError,
    ShardUnavailableError,
)

__all__ = ["MicroBatchConfig", "MicroBatcher", "ServeStats"]

_OVERFLOW_MODES = ("wait", "reject")


@dataclass
class MicroBatchConfig:
    """Tunables of the micro-batching serving layer.

    Parameters
    ----------
    max_batch_size:
        Dispatch a batch as soon as this many requests are pending.
        ``1`` degenerates to per-request serving (the benchmark
        baseline).
    max_wait_ms:
        Dispatch at most this many milliseconds after a batch's first
        request arrived, full or not.  ``0`` dispatches on the next
        event-loop tick, trading all coalescing opportunity for minimum
        queueing latency.
    max_concurrent_batches:
        Worker threads dispatching batches.  ``1`` (default) serializes
        batches; higher values overlap in-flight batches -- exact
        per-batch accounting is preserved by the per-call query scopes.
    max_queue_depth:
        Most requests allowed to wait for dispatch at once; ``None``
        (default) is unbounded.  What happens at the bound is
        ``overflow``'s call.
    overflow:
        ``"wait"`` (default) parks over-limit requests until queue space
        frees (backpressure); ``"reject"`` fails them immediately with
        :class:`~repro.exceptions.ServerOverloadedError` (load
        shedding).
    merge_threshold:
        Schedule a background :meth:`BrePartitionIndex.merge` once this
        many unmerged delta ops have accumulated; ``None`` (default)
        never merges automatically.  The merge runs on its own worker
        thread -- in-flight and new searches keep serving from their
        pinned snapshots throughout.
    merge_max_retries:
        Times a failed background merge is retried (with exponential
        ``merge_backoff_ms`` backoff) before its error is surfaced.
        ``0`` (default) keeps the historical fail-once behaviour.  Once
        retries are exhausted the error is raised on the *next*
        :meth:`MicroBatcher.insert` / ``delete`` call (and by
        :meth:`MicroBatcher.close` if no mutation ever surfaced it) --
        a failed merge loses no data, the delta just stays unmerged.
    merge_backoff_ms:
        Base delay before a merge retry, doubling per attempt.
    admission_timeout_ms:
        Bounds how long an ``overflow="wait"`` request may wait at the
        admission door before failing with
        :class:`~repro.exceptions.ServerOverloadedError`.  ``None``
        (default) waits indefinitely (pure backpressure).
    request_timeout_ms:
        Per-request deadline from submission: a request that has not
        resolved in time fails with
        :class:`~repro.exceptions.DeadlineExceededError` (and, if still
        queued, frees its queue slot).  ``None`` (default) disables
        deadlines.
    """

    max_batch_size: int = 32
    max_wait_ms: float = 2.0
    max_concurrent_batches: int = 1
    max_queue_depth: Optional[int] = None
    overflow: str = "wait"
    merge_threshold: Optional[int] = None
    merge_max_retries: int = 0
    merge_backoff_ms: float = 50.0
    admission_timeout_ms: Optional[float] = None
    request_timeout_ms: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise InvalidParameterError(
                f"max_batch_size must be >= 1, got {self.max_batch_size}"
            )
        if self.max_wait_ms < 0.0:
            raise InvalidParameterError(
                f"max_wait_ms must be >= 0, got {self.max_wait_ms}"
            )
        if self.max_concurrent_batches < 1:
            raise InvalidParameterError(
                f"max_concurrent_batches must be >= 1, "
                f"got {self.max_concurrent_batches}"
            )
        if self.max_queue_depth is not None and self.max_queue_depth < 1:
            raise InvalidParameterError(
                f"max_queue_depth must be >= 1 or None, got {self.max_queue_depth}"
            )
        if self.overflow not in _OVERFLOW_MODES:
            raise InvalidParameterError(
                f"overflow must be one of {_OVERFLOW_MODES}, got {self.overflow!r}"
            )
        if self.merge_threshold is not None and self.merge_threshold < 1:
            raise InvalidParameterError(
                f"merge_threshold must be >= 1 or None, got {self.merge_threshold}"
            )
        if self.merge_max_retries < 0:
            raise InvalidParameterError(
                f"merge_max_retries must be >= 0, got {self.merge_max_retries}"
            )
        if self.merge_backoff_ms < 0:
            raise InvalidParameterError(
                f"merge_backoff_ms must be >= 0, got {self.merge_backoff_ms}"
            )
        if self.admission_timeout_ms is not None and self.admission_timeout_ms < 0:
            raise InvalidParameterError(
                f"admission_timeout_ms must be >= 0 or None, "
                f"got {self.admission_timeout_ms}"
            )
        if self.request_timeout_ms is not None and self.request_timeout_ms <= 0:
            raise InvalidParameterError(
                f"request_timeout_ms must be > 0 or None, "
                f"got {self.request_timeout_ms}"
            )


#: dispatch-order history windows kept by :class:`ServeStats`.  Bounded
#: so a long-running server's stats stay O(1); the aggregate counters
#: (`n_requests` / `n_batches` / `total_pages_read`) remain exact
#: forever.  Far above anything the tests or benchmarks dispatch.
_BATCH_SIZE_HISTORY = 4096
_BATCH_STATS_HISTORY = 256


@dataclass
class ServeStats:
    """Serving-side accounting of one :class:`MicroBatcher`'s lifetime.

    Counters are exact over the whole lifetime; the per-batch history
    windows (``batch_sizes``, ``batch_stats``) keep only the most
    recent dispatches so a persistent server cannot grow them without
    bound.  ``n_requests`` counts *dispatched* requests -- including
    those whose client later cancelled or whose batch failed -- so
    ``mean_batch_size`` always agrees with the dispatched
    ``batch_sizes``; the outcome split rides in ``n_cancelled`` /
    ``n_failed``.
    """

    #: requests dispatched in batches (counted at dispatch, whatever
    #: their eventual outcome -- resolved, cancelled or failed; always
    #: the sum of every entry ever appended to ``batch_sizes``).
    n_requests: int = 0
    #: batches dispatched (including the rare batch whose dispatch
    #: itself fails -- its requests land in ``n_failed``).
    n_batches: int = 0
    #: dispatched requests whose client cancelled or abandoned the
    #: future before the batch resolved.
    n_cancelled: int = 0
    #: dispatched requests failed by a batch (or dispatch) error.
    n_failed: int = 0
    #: requests refused at admission (``overflow="reject"`` queue-full
    #: fast fails; never dispatched, never in ``n_requests``).
    n_rejected: int = 0
    #: simulated pages charged across all served batches.
    total_pages_read: int = 0
    #: points inserted through :meth:`MicroBatcher.insert`.
    n_inserts: int = 0
    #: points deleted through :meth:`MicroBatcher.delete`.
    n_deletes: int = 0
    #: background merges completed successfully.
    n_merges: int = 0
    #: failed background merges retried (``merge_max_retries``).
    n_merge_retries: int = 0
    #: background merges that failed permanently (retries exhausted).
    n_merge_failures: int = 0
    #: requests failed by their per-request deadline
    #: (``request_timeout_ms``).
    n_deadline_expired: int = 0
    #: waiting requests failed at the admission door by
    #: ``admission_timeout_ms`` (distinct from ``n_rejected``, the
    #: ``overflow="reject"`` fast fails).
    n_admission_timeouts: int = 0
    #: replica fetches failed over to another replica across all served
    #: batches (``replication_factor > 1``; failovers never inflate
    #: ``total_pages_read``).
    n_failovers: int = 0
    #: hedged replica reads launched across all served batches
    #: (``hedge_after_ms``).
    n_hedged: int = 0
    #: circuit-breaker open transitions on the index's shard health
    #: registry over its lifetime (a re-open after a failed half-open
    #: probe counts again).
    n_breaker_opens: int = 0
    #: latest per-disk breaker snapshot (disk -> state dict) from the
    #: index's :class:`~repro.exec.ShardHealthRegistry`; ``None`` until
    #: a batch resolves on an index that has one.
    shard_health: Optional[Dict[int, Dict[str, object]]] = None
    #: effective sizes of the most recent dispatches, in dispatch order.
    batch_sizes: Deque[int] = field(
        default_factory=lambda: deque(maxlen=_BATCH_SIZE_HISTORY)
    )
    #: engine-side stats of the most recent dispatches, in dispatch order.
    batch_stats: Deque[BatchQueryStats] = field(
        default_factory=lambda: deque(maxlen=_BATCH_STATS_HISTORY)
    )

    @property
    def mean_batch_size(self) -> float:
        """Lifetime mean effective batch size (0.0 before any batch)."""
        if self.n_batches == 0:
            return 0.0
        return self.n_requests / self.n_batches


class MicroBatcher:
    """Coalesce concurrent async queries into ``search_batch`` calls.

    Usage::

        async with MicroBatcher(index, k=10, config=MicroBatchConfig()) as b:
            results = await asyncio.gather(*(b.search(q) for q in queries))

    Parameters
    ----------
    index:
        Any index exposing ``search_batch(queries, k)`` (the
        BrePartition pipeline drivers).
    k:
        Neighbours returned per request.
    config:
        The :class:`MicroBatchConfig` deadlines and limits; keyword
        overrides (``max_batch_size`` / ``max_wait_ms`` /
        ``max_concurrent_batches`` / ``max_queue_depth`` / ``overflow``)
        apply on top of it.

    All coordination state is owned by the event loop thread (submit,
    admission, flush and resolve all run there), so no locks are needed;
    only the pipeline itself runs on the worker pool, where the index's
    per-call query scopes keep overlapping batches exact.  One batcher
    serves one event loop at a time.
    """

    def __init__(
        self,
        index,
        k: int,
        config: Optional[MicroBatchConfig] = None,
        max_batch_size: Optional[int] = None,
        max_wait_ms: Optional[float] = None,
        max_concurrent_batches: Optional[int] = None,
        max_queue_depth: Optional[int] = None,
        overflow: Optional[str] = None,
        merge_threshold: Optional[int] = None,
        merge_max_retries: Optional[int] = None,
        merge_backoff_ms: Optional[float] = None,
        admission_timeout_ms: Optional[float] = None,
        request_timeout_ms: Optional[float] = None,
    ) -> None:
        config = config if config is not None else MicroBatchConfig()
        overrides = {}
        if merge_threshold is not None:
            overrides["merge_threshold"] = merge_threshold
        if merge_max_retries is not None:
            overrides["merge_max_retries"] = merge_max_retries
        if merge_backoff_ms is not None:
            overrides["merge_backoff_ms"] = merge_backoff_ms
        if admission_timeout_ms is not None:
            overrides["admission_timeout_ms"] = admission_timeout_ms
        if request_timeout_ms is not None:
            overrides["request_timeout_ms"] = request_timeout_ms
        if max_batch_size is not None:
            overrides["max_batch_size"] = max_batch_size
        if max_wait_ms is not None:
            overrides["max_wait_ms"] = max_wait_ms
        if max_concurrent_batches is not None:
            overrides["max_concurrent_batches"] = max_concurrent_batches
        if max_queue_depth is not None:
            overrides["max_queue_depth"] = max_queue_depth
        if overflow is not None:
            overrides["overflow"] = overflow
        if overrides:
            config = replace(config, **overrides)
        if k < 1:
            raise InvalidParameterError(f"k must be >= 1, got {k}")
        self.index = index
        self.k = int(k)
        self.config = config
        self.stats = ServeStats()
        self._pending: list[tuple[np.ndarray, asyncio.Future]] = []
        self._timer: Optional[asyncio.TimerHandle] = None
        self._inflight: set = set()
        self._admission_waiters: Deque[asyncio.Future] = deque()
        #: queue slots granted to woken waiters that have not appended
        #: yet -- counted against ``max_queue_depth`` so the handoff is
        #: exact (see :meth:`_admit`).
        self._reserved = 0
        self._closed = False
        # the batch worker pool: max_concurrent_batches=1 serializes
        # batches (the pre-scoped-tracker behaviour); wider pools
        # overlap in-flight batches, each searching under its own
        # tracker QueryScope so accounting never interleaves
        self._executor = ThreadPoolExecutor(
            max_workers=config.max_concurrent_batches,
            thread_name_prefix="repro-serve",
        )
        # background-merge plumbing (lazy: never built when the index
        # has no merge support or merge_threshold stays None)
        self._merge_executor: Optional[ThreadPoolExecutor] = None
        self._merge_task = None
        #: pending retry of a failed merge (config.merge_max_retries).
        self._merge_retry_handle: Optional[asyncio.TimerHandle] = None
        self._merge_attempts = 0
        self._last_merge_error: Optional[BaseException] = None
        #: terminal error of a permanently failed background merge;
        #: raised on the next mutation (then cleared) or, if never
        #: surfaced that way, re-raised by :meth:`close` so a silent
        #: merge failure cannot be lost.
        self.merge_error: Optional[BaseException] = None

    # ------------------------------------------------------------------
    # request side (event loop thread)
    # ------------------------------------------------------------------

    async def search(self, query: np.ndarray) -> SearchResult:
        """Queue one query and await its :class:`SearchResult`.

        Malformed queries (wrong shape or domain violations) are raised
        eagerly to this caller instead of poisoning the batch the query
        would have joined.  When the admission queue is full, either
        waits for space (``overflow="wait"``) or raises
        :class:`~repro.exceptions.ServerOverloadedError`
        (``overflow="reject"``) before the query is queued at all.
        """
        if self._closed:
            raise InvalidParameterError("MicroBatcher is closed")
        query = np.asarray(query, dtype=float)
        self._check_dimension(query)
        self.index.divergence.validate_domain(query, "query")
        loop = asyncio.get_running_loop()
        await self._admit(loop)
        if self._dimensionality() is None:
            # re-check after waiting at the door: with no index-declared
            # dimensionality, the queue may have drained and refilled
            # around a de-facto dimension this query no longer matches
            try:
                self._check_dimension(query)
            except BaseException:
                # this request held a queue slot it will never fill
                self._wake_admission_waiters()
                raise
        future: asyncio.Future = loop.create_future()
        self._pending.append((query, future))
        if len(self._pending) >= self.config.max_batch_size:
            self._flush()
        elif self._timer is None:
            self._timer = loop.call_later(
                self.config.max_wait_ms / 1000.0, self._flush
            )
        deadline: Optional[asyncio.TimerHandle] = None
        if self.config.request_timeout_ms is not None:
            deadline = loop.call_later(
                self.config.request_timeout_ms / 1000.0, self._expire, future
            )
        try:
            return await future
        finally:
            if deadline is not None:
                deadline.cancel()

    def _expire(self, future: asyncio.Future) -> None:
        """Fail a request that missed its ``request_timeout_ms`` deadline.

        A still-queued request is pulled out of the batch (freeing its
        admission slot); one already dispatched just has its future
        failed -- the batch result for it is discarded on arrival.
        """
        if future.done():
            return
        for i, (_, pending) in enumerate(self._pending):
            if pending is future:
                del self._pending[i]
                self._wake_admission_waiters()
                break
        self.stats.n_deadline_expired += 1
        future.set_exception(
            DeadlineExceededError(
                f"request missed its {self.config.request_timeout_ms}ms deadline"
            )
        )

    def _check_dimension(self, query: np.ndarray) -> None:
        """Reject a query whose shape cannot join the current batch.

        The expected dimension is the index's, or -- when the index
        exposes none -- the batch's first pending request's, so a
        mismatched query fails here, alone, instead of blowing up
        ``np.stack`` in ``_flush`` and poisoning every future already
        in the batch.
        """
        expected = self._dimensionality()
        if expected is None and self._pending:
            expected = int(self._pending[0][0].size)
        if query.ndim != 1 or (expected is not None and query.size != expected):
            raise InvalidParameterError(
                f"query must be a 1-D vector"
                + (f" of {expected} dimensions" if expected is not None else "")
                + f", got shape {query.shape}"
            )

    async def _admit(self, loop) -> None:
        """Hold the request at the door until the queue has room.

        Admission is FIFO: a freed queue slot is *handed* to the oldest
        parked waiter (reserved via ``_reserved`` until that waiter
        appends), and new arrivals park behind existing waiters instead
        of stealing slots from them -- no starvation under sustained
        load.
        """
        depth = self.config.max_queue_depth
        if depth is None:
            return
        if not self._admission_waiters and len(self._pending) + self._reserved < depth:
            return
        if self.config.overflow == "reject":
            self.stats.n_rejected += 1
            raise ServerOverloadedError(
                f"admission queue full ({depth} requests waiting); "
                f"request rejected (overflow='reject')"
            )
        waiter: asyncio.Future = loop.create_future()
        self._admission_waiters.append(waiter)
        timed_out = False
        timeout_handle: Optional[asyncio.TimerHandle] = None
        if self.config.admission_timeout_ms is not None:

            def _timeout() -> None:
                nonlocal timed_out
                if not waiter.done():
                    timed_out = True
                    waiter.cancel()

            timeout_handle = loop.call_later(
                self.config.admission_timeout_ms / 1000.0, _timeout
            )
        try:
            await waiter
        except BaseException:
            if waiter.done() and not waiter.cancelled():
                # granted between wake and resume, but this request will
                # never append: release the slot to the next waiter
                self._reserved -= 1
                self._wake_admission_waiters()
            else:
                waiter.cancel()
                try:
                    self._admission_waiters.remove(waiter)
                except ValueError:
                    pass
            if timed_out:
                self.stats.n_admission_timeouts += 1
                raise ServerOverloadedError(
                    f"request waited {self.config.admission_timeout_ms}ms at "
                    f"the admission door without a queue slot freeing"
                ) from None
            raise
        finally:
            if timeout_handle is not None:
                timeout_handle.cancel()
        # granted: the slot is reserved for us until the caller appends
        # (which happens synchronously after _admit returns)
        self._reserved -= 1
        if self._closed:
            self._wake_admission_waiters()
            raise InvalidParameterError("MicroBatcher is closed")

    def _wake_admission_waiters(self) -> None:
        """Hand freed queue slots to the oldest parked requests.

        Each grant reserves one slot (``_reserved``) so neither newer
        waiters nor brand-new arrivals can take it before the granted
        request resumes and appends.  On shutdown every waiter is woken
        so it can observe ``_closed`` and fail fast.
        """
        depth = self.config.max_queue_depth
        while self._admission_waiters:
            if (
                not self._closed
                and depth is not None
                and len(self._pending) + self._reserved >= depth
            ):
                break
            waiter = self._admission_waiters.popleft()
            if waiter.done():
                continue
            self._reserved += 1
            waiter.set_result(None)

    # ------------------------------------------------------------------
    # mutation side (event loop thread; index mutations are O(delta))
    # ------------------------------------------------------------------

    async def insert(self, point: np.ndarray, point_id: Optional[int] = None) -> int:
        """Insert one point through the index's delta buffer.

        Returns the point's external id (assigned by the index when
        ``point_id`` is ``None``).  The insert is visible to every
        search snapshotted after it returns; searches already in flight
        serve their pinned pre-insert snapshot.  May schedule a
        background merge (``config.merge_threshold``).
        """
        if self._closed:
            raise InvalidParameterError("MicroBatcher is closed")
        self._raise_pending_merge_error()
        pid = self.index.insert(point, point_id)
        self.stats.n_inserts += 1
        self._maybe_merge(asyncio.get_running_loop())
        return pid

    async def delete(self, point_id: int) -> None:
        """Delete one live point (tombstoned until the next merge)."""
        if self._closed:
            raise InvalidParameterError("MicroBatcher is closed")
        self._raise_pending_merge_error()
        self.index.delete(point_id)
        self.stats.n_deletes += 1
        self._maybe_merge(asyncio.get_running_loop())

    def _raise_pending_merge_error(self) -> None:
        """Surface a permanently failed background merge to the caller.

        Raised once, on the first mutation after exhaustion, then
        cleared -- the failure has been delivered, so :meth:`close`
        will not raise it a second time.  A failed merge loses nothing:
        the delta ops stay pending (and WAL-logged when one is
        attached); the next threshold crossing tries again.
        """
        if self.merge_error is not None:
            error, self.merge_error = self.merge_error, None
            raise error

    def _maybe_merge(self, loop) -> None:
        """Kick a background merge when the delta has grown enough.

        At most one merge is in flight; the merge worker never blocks
        the event loop or the search pool, and the index's snapshot
        publication keeps concurrent searches consistent throughout.
        """
        threshold = self.config.merge_threshold
        if (
            threshold is None
            or self._merge_task is not None
            or self._merge_retry_handle is not None
        ):
            return
        delta_ops = getattr(self.index, "delta_ops", 0)
        if delta_ops < threshold:
            return
        self._merge_attempts = 0
        self._spawn_merge(loop)

    def _spawn_merge(self, loop) -> None:
        """Run one merge attempt on the (lazily built) merge worker."""
        if self._merge_executor is None:
            self._merge_executor = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-merge"
            )
        task = loop.run_in_executor(self._merge_executor, self.index.merge)
        self._merge_task = task
        task.add_done_callback(self._merge_done)

    def _merge_done(self, task) -> None:
        """Record the background merge's outcome and clear the slot.

        A failure within the retry budget schedules another attempt
        after exponential backoff (``merge_backoff_ms * 2**attempt``);
        exhaustion parks the error in :attr:`merge_error` for the next
        mutation (or :meth:`close`) to surface.  Runs on the event-loop
        thread (done callbacks of ``run_in_executor`` futures do), so
        the timer scheduling below is race-free.
        """
        self._merge_task = None
        error = task.exception() if not task.cancelled() else None
        if error is None:
            self._merge_attempts = 0
            self._last_merge_error = None
            self.stats.n_merges += 1
            return
        self._last_merge_error = error
        if not self._closed and self._merge_attempts < self.config.merge_max_retries:
            delay = (self.config.merge_backoff_ms / 1000.0) * (
                2.0 ** self._merge_attempts
            )
            self._merge_attempts += 1
            self.stats.n_merge_retries += 1
            loop = asyncio.get_running_loop()
            self._merge_retry_handle = loop.call_later(delay, self._retry_merge)
            return
        self.stats.n_merge_failures += 1
        self._merge_attempts = 0
        self.merge_error = error

    def _retry_merge(self) -> None:
        """Timer callback: launch the next merge attempt."""
        self._merge_retry_handle = None
        if self._closed:
            return
        self._spawn_merge(asyncio.get_running_loop())

    async def close(self) -> None:
        """Flush the queue, await in-flight batches, stop the workers."""
        self._closed = True
        while self._pending:
            self._flush()
        self._wake_admission_waiters()
        if self._inflight:
            await asyncio.gather(*list(self._inflight), return_exceptions=True)
        merge_task = self._merge_task
        if merge_task is not None:
            await asyncio.gather(merge_task, return_exceptions=True)
        if self._merge_retry_handle is not None:
            # a retry was still scheduled: the merge never succeeded, so
            # its last error must not vanish with the abandoned retry
            self._merge_retry_handle.cancel()
            self._merge_retry_handle = None
            if self.merge_error is None:
                self.merge_error = self._last_merge_error
        self._executor.shutdown(wait=True)
        if self._merge_executor is not None:
            self._merge_executor.shutdown(wait=True)
        if self.merge_error is not None:
            raise self.merge_error

    async def __aenter__(self) -> "MicroBatcher":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # dispatch side (still the event loop thread)
    # ------------------------------------------------------------------

    def _flush(self) -> None:
        """Dispatch up to ``max_batch_size`` pending requests as one batch."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if not self._pending:
            return
        batch = self._pending[: self.config.max_batch_size]
        del self._pending[: self.config.max_batch_size]
        self._wake_admission_waiters()
        loop = asyncio.get_running_loop()
        if self._pending:
            # overflow requests start a fresh deadline immediately
            self._timer = loop.call_later(
                self.config.max_wait_ms / 1000.0, self._flush
            )
        futures = [future for _, future in batch]
        # dispatched: the batch counts now, whatever each request's
        # eventual outcome -- keeps mean_batch_size consistent with the
        # batch_sizes history, and keeps the n_cancelled / n_failed
        # outcome split a true partition of n_requests even when the
        # dispatch itself fails below
        self.stats.n_batches += 1
        self.stats.n_requests += len(batch)
        self.stats.batch_sizes.append(len(batch))
        try:
            queries = np.stack([query for query, _ in batch])
            task = loop.run_in_executor(
                self._executor, self.index.search_batch, queries, self.k
            )
        except Exception as error:  # noqa: BLE001 - a failed dispatch must
            # fail its requests, never strand their futures unresolved
            for future in futures:
                if not future.done():
                    future.set_exception(error)
                    self.stats.n_failed += 1
                else:
                    self.stats.n_cancelled += 1
            return
        self._inflight.add(task)
        task.add_done_callback(lambda done: self._resolve(done, futures))

    def _resolve(self, task, futures: list) -> None:
        """Fan a finished batch back out into its per-request futures."""
        self._inflight.discard(task)
        error = task.exception()
        if error is not None:
            for future in futures:
                if not future.done():
                    future.set_exception(error)
                    self.stats.n_failed += 1
                else:
                    self.stats.n_cancelled += 1
            return
        batch = task.result()
        self.stats.batch_stats.append(batch.stats)
        self.stats.total_pages_read += batch.stats.pages_read
        self.stats.n_failovers += getattr(batch.stats, "n_failovers", 0)
        self.stats.n_hedged += getattr(batch.stats, "n_hedged", 0)
        health = getattr(self.index, "shard_health", None)
        if health is not None:
            self.stats.n_breaker_opens = health.n_breaker_opens
            self.stats.shard_health = health.snapshot()
        failures = getattr(batch, "failures", None) or {}
        for i, (future, result) in enumerate(zip(futures, batch.results)):
            if future.done():
                # the client cancelled (or abandoned) while the batch
                # was in flight; the work was still dispatched and done
                self.stats.n_cancelled += 1
            elif result is None:
                # shard_failure="partial": only the queries whose
                # candidate pages live on the dead shard fail; the rest
                # of the batch resolves normally below
                future.set_exception(
                    failures.get(i)
                    or ShardUnavailableError("query lost to a failed shard")
                )
                self.stats.n_failed += 1
            else:
                future.set_result(result)

    def _dimensionality(self) -> Optional[int]:
        """Expected query dimensionality, when the index exposes one."""
        for probe in (
            getattr(self.index, "partitioning", None),
            getattr(self.index, "datastore", None),
        ):
            dim = getattr(probe, "dimensionality", None)
            if dim is not None:
                return int(dim)
        return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MicroBatcher(k={self.k}, max_batch_size="
            f"{self.config.max_batch_size}, max_wait_ms={self.config.max_wait_ms}, "
            f"max_concurrent_batches={self.config.max_concurrent_batches})"
        )
