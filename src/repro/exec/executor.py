"""Thread-pool fan-out over shard-local tasks with per-task timing.

See the package docstring (:mod:`repro.exec`) for the pipeline this
executor powers.  The executor itself is deliberately small: it knows
nothing about shards or kernels -- it runs a list of callables, either
inline (``n_workers == 1``, the sequential-fan-out baseline) or on a
:class:`FanoutPool`, and records each task's wall-clock seconds.  The
index owns one pool and keeps its threads across calls, so a batch
pays no thread start or join; an executor built without a pool starts
a private one per call and joins it before returning.

Replication-aware routing lives here too.  A
:class:`ShardHealthRegistry` (owned by the index, shared across the
per-call executors) keeps one circuit breaker per simulated
disk: ``failure_threshold`` consecutive permanent failures open the
breaker, an open breaker is skipped outright (fail-fast, no retries
against a disk known dead), and after ``reset_seconds`` it reports
``half_open`` -- the next attempt is the probe that either closes it or
re-opens it.  :meth:`ShardExecutor.call_with_failover` walks a shard's
replicas in health order (closed breakers first, open ones skipped),
retries transients within a replica, fails over between replicas, and
optionally *hedges*: when a replica's fetch has not returned within
``hedge_after_seconds`` it races the next live replica and takes
whichever finishes first (Dean & Barroso's tail-tolerant hedged
request; results are bitwise identical because replicas hold identical
bytes, and accounting is exact because both land in the same scope).
"""

from __future__ import annotations

import functools
import queue
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor, wait
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..exceptions import (
    InvalidParameterError,
    ShardUnavailableError,
    TransientIOError,
)

__all__ = ["FanoutPool", "ShardExecutor", "ShardHealthRegistry"]

#: circuit-breaker states reported by :meth:`ShardHealthRegistry.state`.
BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half_open"


class _DiskHealth:
    """Mutable per-disk record inside the registry (lock held by owner)."""

    __slots__ = (
        "consecutive_failures",
        "n_failures",
        "n_successes",
        "n_breaker_opens",
        "is_open",
        "opened_at",
    )

    def __init__(self) -> None:
        self.consecutive_failures = 0
        self.n_failures = 0
        self.n_successes = 0
        self.n_breaker_opens = 0
        self.is_open = False
        self.opened_at = 0.0


class ShardHealthRegistry:
    """Per-disk health counters and circuit breakers.

    One registry outlives the per-call :class:`ShardExecutor` instances
    (the index owns it), so breaker state accumulates across searches.
    Transitions: ``closed -> open`` after ``failure_threshold``
    *consecutive* permanent failures; ``open`` reports ``half_open``
    once ``reset_seconds`` have elapsed (attempts allowed again -- the
    probe); a probe success closes the breaker, a probe failure re-opens
    it with a fresh timer.  Every transition into ``open`` counts in
    :attr:`n_breaker_opens`.

    All methods are thread-safe; a disk never attempted reports
    ``closed`` with zero counters.
    """

    def __init__(
        self, failure_threshold: int = 5, reset_seconds: float = 1.0
    ) -> None:
        if failure_threshold < 1:
            raise InvalidParameterError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if reset_seconds < 0:
            raise InvalidParameterError(
                f"reset_seconds must be >= 0, got {reset_seconds}"
            )
        self.failure_threshold = int(failure_threshold)
        self.reset_seconds = float(reset_seconds)
        self._lock = threading.Lock()
        self._disks: Dict[int, _DiskHealth] = {}
        #: lifetime transitions into ``open``, all disks.
        self.n_breaker_opens = 0

    def _entry(self, disk: int) -> _DiskHealth:
        return self._disks.setdefault(int(disk), _DiskHealth())

    def _state_locked(self, entry: _DiskHealth) -> str:
        if not entry.is_open:
            return BREAKER_CLOSED
        if time.monotonic() - entry.opened_at >= self.reset_seconds:
            return BREAKER_HALF_OPEN
        return BREAKER_OPEN

    def state(self, disk: int) -> str:
        """Breaker state of one disk (non-mutating)."""
        with self._lock:
            return self._state_locked(self._entry(disk))

    def allow(self, disk: int) -> bool:
        """Whether an attempt against the disk is admitted: ``True``
        for a closed breaker and for the half-open probe."""
        return self.state(disk) != BREAKER_OPEN

    def record_success(self, disk: int) -> None:
        """An attempt served: reset the failure streak; a half-open
        probe's success closes the breaker."""
        with self._lock:
            entry = self._entry(disk)
            entry.n_successes += 1
            entry.consecutive_failures = 0
            entry.is_open = False

    def record_failure(self, disk: int) -> None:
        """A permanent failure: extend the streak; open the breaker at
        the threshold, and re-open it on a failed half-open probe."""
        with self._lock:
            entry = self._entry(disk)
            entry.n_failures += 1
            entry.consecutive_failures += 1
            state = self._state_locked(entry)
            reopen_probe = state == BREAKER_HALF_OPEN
            trip = (
                state == BREAKER_CLOSED
                and entry.consecutive_failures >= self.failure_threshold
            )
            if reopen_probe or trip:
                entry.is_open = True
                entry.opened_at = time.monotonic()
                entry.n_breaker_opens += 1
                self.n_breaker_opens += 1

    def reset(self) -> None:
        """Forget every disk's history (tests scripting repeated arcs)."""
        with self._lock:
            self._disks.clear()
            self.n_breaker_opens = 0

    def snapshot(self) -> Dict[int, Dict[str, Any]]:
        """Point-in-time view per disk, for ``ServeStats.shard_health``."""
        with self._lock:
            return {
                disk: {
                    "state": self._state_locked(entry),
                    "consecutive_failures": entry.consecutive_failures,
                    "n_failures": entry.n_failures,
                    "n_successes": entry.n_successes,
                    "n_breaker_opens": entry.n_breaker_opens,
                }
                for disk, entry in sorted(self._disks.items())
            }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        with self._lock:
            open_disks = [
                d for d, e in self._disks.items() if e.is_open
            ]
        return (
            f"ShardHealthRegistry(threshold={self.failure_threshold}, "
            f"reset_s={self.reset_seconds}, open={open_disks})"
        )


class FanoutPool:
    """A fan-out thread pool whose threads outlive the calls that use it.

    Started lazily, with all its threads, at the width of the first call
    that needs threads; a call that asks for another width retires it
    and starts one of that width; :meth:`close` retires it for good (a
    later call starts a fresh one).  Submission holds the pool's lock,
    so no call ever submits to a pool a concurrent retirement has shut
    down, and a retired pool still runs what was submitted before.
    Retiring joins the pool's threads once their queued tasks finish.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._pool: Optional[ThreadPoolExecutor] = None
        self._width = 0

    def submit(self, width: int, fns: Sequence[Callable[[], Any]]) -> List[Future]:
        """Submit every callable to the pool of ``width`` threads."""
        retired = None
        with self._lock:
            if self._pool is None or self._width != width:
                retired, self._pool = self._pool, self._start(width)
                self._width = width
            futures = [self._pool.submit(fn) for fn in fns]
        if retired is not None:
            retired.shutdown(wait=True)
        return futures

    @staticmethod
    def _start(width: int) -> ThreadPoolExecutor:
        """A pool with all ``width`` threads running: the executor starts
        a thread per submission only while none is idle, and these
        warm-up tasks wait for each other, so no later call starts one."""
        pool = ThreadPoolExecutor(max_workers=width, thread_name_prefix="repro-fanout")
        barrier = threading.Barrier(width)
        try:
            warm_up = [pool.submit(barrier.wait) for _ in range(width)]
        except BaseException:
            # a thread failed to start: release the ones already waiting
            barrier.abort()
            pool.shutdown(wait=True)
            raise
        for future in warm_up:
            future.result()
        return pool

    def close(self) -> None:
        """Shut the pool down and join its threads.  Safe to call
        repeatedly."""
        with self._lock:
            retired, self._pool, self._width = self._pool, None, 0
        if retired is not None:
            retired.shutdown(wait=True)


class ShardExecutor:
    """Run shard tasks concurrently on up to ``n_workers`` threads.

    Parameters
    ----------
    n_workers:
        Thread-pool width.  ``1`` (default) runs tasks inline in
        submission order -- bitwise identical results, no pool
        overhead.
    max_retries:
        Extra attempts :meth:`call_with_retry` grants a task after a
        :class:`~repro.exceptions.TransientIOError`.  ``0`` (default)
        preserves the historical fail-fast behaviour.  Only transient
        faults retry; a :class:`~repro.exceptions.ShardUnavailableError`
        (broken shard) and every non-storage exception are permanent.
    backoff_seconds / backoff_cap_seconds:
        Capped exponential backoff between attempts:
        ``min(cap, base * 2**attempt)``.
    health:
        Optional shared :class:`ShardHealthRegistry`.  When set,
        :meth:`call_with_failover` skips disks with an open breaker and
        records every attempt's outcome; ``None`` routes purely by
        placement order.
    hedge_after_seconds:
        When set (and a second live replica exists),
        :meth:`call_with_failover` hedges: a replica attempt still
        outstanding after this long races the next replica, first
        result wins.  ``None`` (default) never hedges.
    pool:
        Optional shared :class:`FanoutPool` (the index's) that
        :meth:`run` submits to when it needs threads; ``None`` starts a
        private pool per call.  Hedged reads race on their own threads
        either way.
    """

    def __init__(
        self,
        n_workers: int = 1,
        max_retries: int = 0,
        backoff_seconds: float = 0.001,
        backoff_cap_seconds: float = 0.05,
        health: Optional[ShardHealthRegistry] = None,
        hedge_after_seconds: Optional[float] = None,
        pool: Optional[FanoutPool] = None,
    ) -> None:
        if n_workers < 1:
            raise InvalidParameterError(f"n_workers must be >= 1, got {n_workers}")
        if max_retries < 0:
            raise InvalidParameterError(f"max_retries must be >= 0, got {max_retries}")
        if backoff_seconds < 0 or backoff_cap_seconds < 0:
            raise InvalidParameterError("backoff seconds must be >= 0")
        if hedge_after_seconds is not None and hedge_after_seconds <= 0:
            raise InvalidParameterError(
                "hedge_after_seconds must be positive (or None to disable)"
            )
        self.n_workers = int(n_workers)
        self.max_retries = int(max_retries)
        self.backoff_seconds = float(backoff_seconds)
        self.backoff_cap_seconds = float(backoff_cap_seconds)
        self.health = health
        self.hedge_after_seconds = hedge_after_seconds
        self.pool = pool

    def backoff_for(self, attempt: int) -> float:
        """Sleep before retry ``attempt`` (0-based): capped exponential."""
        return min(self.backoff_cap_seconds, self.backoff_seconds * (2.0 ** attempt))

    def call_with_retry(self, fn: Callable[[], Any], on_retry=None) -> Any:
        """Run ``fn``, retrying transient I/O faults with backoff.

        Storage charges are idempotent at the accounting layer -- a
        partially-charged attempt's pages sit in the query scope's
        dedup set, so the retry re-charges only what the fault
        interrupted and ``pages_read`` never double-counts.
        ``on_retry`` (e.g. ``scope.count_retry``) is called once per
        retry.  When the budget is exhausted the last transient fault
        is re-raised wrapped as a permanent
        :class:`~repro.exceptions.ShardUnavailableError`.
        """
        attempt = 0
        while True:
            try:
                return fn()
            except TransientIOError as err:
                if attempt >= self.max_retries:
                    raise ShardUnavailableError(
                        f"transient I/O faults persisted through "
                        f"{self.max_retries + 1} attempts: {err}"
                    ) from err
                if on_retry is not None:
                    on_retry()
                delay = self.backoff_for(attempt)
                if delay > 0:
                    time.sleep(delay)
                attempt += 1

    def call_with_failover(
        self,
        replicas: Sequence[Tuple[int, Callable[[], Any]]],
        on_retry: Optional[Callable[[], None]] = None,
        on_failover: Optional[Callable[[], None]] = None,
        on_hedge: Optional[Callable[[], None]] = None,
    ) -> Any:
        """Serve one shard slice from the first replica that can.

        ``replicas`` is the placement-ordered ``(disk, fn)`` list of a
        shard's replicas, each ``fn`` performing the *same* logical
        fetch against its own copy.  Routing is health-aware: disks
        whose breaker is open are deferred, closed disks are preferred
        over half-open probes, and within a class placement order is
        kept -- so a fault-free store always serves from the primary and
        stays bitwise identical to the unreplicated path.  Within a
        replica, transient faults retry via :meth:`call_with_retry`; a
        permanent :class:`~repro.exceptions.ShardUnavailableError`
        records a breaker failure and fails over to the next replica.
        Deferred replicas are tried last, in placement order, once every
        other replica has failed: an open breaker may hide a disk that
        has healed since.  Because replicas share the primary's fileno,
        a partially-charged failed attempt and its failover re-charge
        land in the same scope dedup set: page accounting stays exactly
        the fault-free count.

        ``on_failover`` fires once per replica passed over: once for
        each deferred replica, up front, and once for each failed
        attempt that routing moves past.  A deferred replica that then
        serves as the last resort counts once (its deferral), as does
        each replica that failed before it.

        With ``hedge_after_seconds`` set and a further replica that is
        not deferred, an attempt still outstanding after the hedge
        window races that replica (``on_hedge`` fires once per hedge)
        and the first result wins -- the slow leg keeps running
        harmlessly: its charges dedup in the same scope and its bytes
        equal the winner's.  Raises the last replica's error when every
        replica fails; with every breaker open nothing is deferred and
        the placement order is probed (fail-fast is only worth it when
        an alternative exists).
        """
        if not replicas:
            raise InvalidParameterError(
                "call_with_failover needs at least one replica"
            )
        health = self.health
        closed: List[Tuple[int, Callable[[], Any]]] = []
        probes: List[Tuple[int, Callable[[], Any]]] = []
        deferred: List[Tuple[int, Callable[[], Any]]] = []
        for disk, fn in replicas:
            state = health.state(disk) if health is not None else BREAKER_CLOSED
            if state == BREAKER_OPEN:
                deferred.append((disk, fn))
            else:
                (closed if state == BREAKER_CLOSED else probes).append((disk, fn))
        routable = closed + probes
        if not routable:
            # nowhere left to route: probe the placement order anyway.
            # The breaker's job is to fail fast *onto an alternative*;
            # with every breaker open the probe is the only way back
            # (and keeps single-replica stores recovering instantly
            # after a repair, exactly like the pre-breaker behaviour).
            routable, deferred = list(replicas), []
        if on_failover is not None:
            for _ in deferred:
                on_failover()
        last_error: Optional[ShardUnavailableError] = None
        for i, (disk, fn) in enumerate(routable + deferred):
            if i > 0 and on_failover is not None:
                on_failover()
            hedge_with = None
            if self.hedge_after_seconds is not None and i + 1 < len(routable):
                hedge_with = routable[i + 1]
            try:
                if hedge_with is not None:
                    return self._hedged(disk, fn, hedge_with, on_retry, on_hedge)
                result = self.call_with_retry(fn, on_retry=on_retry)
            except ShardUnavailableError as err:
                if health is not None and hedge_with is None:
                    # the hedged path records its own outcomes (both legs)
                    health.record_failure(disk)
                last_error = err
                continue
            if health is not None:
                health.record_success(disk)
            return result
        raise last_error

    def _hedged(
        self,
        disk: int,
        fn: Callable[[], Any],
        backup: Tuple[int, Callable[[], Any]],
        on_retry: Optional[Callable[[], None]],
        on_hedge: Optional[Callable[[], None]],
    ) -> Any:
        """Run ``fn``; if it is still outstanding after the hedge window,
        race the backup replica and take the first finisher.

        Both legs record their own health outcome (the loser too, when
        it eventually finishes -- a straggler that completes is still a
        healthy disk).  If the first finisher failed, the other leg's
        result is awaited before giving up.
        """
        health = self.health
        results: "queue.SimpleQueue" = queue.SimpleQueue()

        def run(d: int, f: Callable[[], Any]) -> None:
            try:
                value = self.call_with_retry(f, on_retry=on_retry)
            except BaseException as err:  # noqa: BLE001 - re-raised by caller
                if health is not None and isinstance(err, ShardUnavailableError):
                    health.record_failure(d)
                results.put((d, None, err))
                return
            if health is not None:
                health.record_success(d)
            results.put((d, value, None))

        threading.Thread(target=run, args=(disk, fn), daemon=True).start()
        try:
            _, value, err = results.get(timeout=self.hedge_after_seconds)
        except queue.Empty:
            if on_hedge is not None:
                on_hedge()
            backup_disk, backup_fn = backup
            threading.Thread(
                target=run, args=(backup_disk, backup_fn), daemon=True
            ).start()
            _, value, err = results.get()
            if err is not None:
                # first finisher lost; the other leg may still deliver
                _, second_value, second_err = results.get()
                if second_err is None:
                    return second_value
                raise err
        if err is not None:
            raise err
        return value

    def run(
        self, tasks: Sequence[Callable[[], Any]]
    ) -> Tuple[List[Any], List[float]]:
        """Execute every task; return ``(results, seconds)`` in task order.

        Results keep submission order regardless of completion order.
        Task exceptions propagate to the caller (the first raised wins,
        after all futures settle).  Per-task wall-clock seconds feed
        :attr:`~repro.core.results.BatchQueryStats.shard_seconds`.
        """
        results: List[Any] = [None] * len(tasks)
        seconds: List[float] = [0.0] * len(tasks)

        def timed(index: int) -> None:
            start = time.perf_counter()
            results[index] = tasks[index]()
            seconds[index] = time.perf_counter() - start

        if self.n_workers == 1 or len(tasks) <= 1:
            for index in range(len(tasks)):
                timed(index)
            return results, seconds

        pool = self.pool if self.pool is not None else FanoutPool()
        try:
            futures = pool.submit(
                min(self.n_workers, len(tasks)),
                [functools.partial(timed, index) for index in range(len(tasks))],
            )
            wait(futures)
            for future in futures:
                future.result()
        finally:
            if pool is not self.pool:
                pool.close()
        return results, seconds

    def run_guarded(
        self, tasks: Sequence[Callable[[], Any]], on_retry=None
    ) -> Tuple[List[Any], List[float], List[Optional[BaseException]], List[int]]:
        """Like :meth:`run`, but each task retries transient faults and
        captures a permanent storage failure instead of raising.

        Returns ``(results, seconds, errors, retries)``, all in task
        order: a failed task's result slot is ``None`` and its error a
        :class:`~repro.exceptions.ShardUnavailableError` (either raised
        by a broken shard or wrapping an exhausted transient fault).
        Non-storage exceptions still propagate -- they are bugs, not
        device behaviour.  This is the degraded-mode primitive the Fetch
        stage uses: one dead shard fails its own task only, and the
        caller decides which queries that dooms.
        """
        errors: List[Optional[BaseException]] = [None] * len(tasks)
        retries = [0] * len(tasks)

        def guard(index: int) -> Callable[[], Any]:
            def bump() -> None:
                retries[index] += 1  # one writer per slot: thread-safe
                if on_retry is not None:
                    on_retry()

            def guarded():
                try:
                    return self.call_with_retry(tasks[index], on_retry=bump)
                except ShardUnavailableError as err:
                    errors[index] = err
                    return None

            return guarded

        results, seconds = self.run([guard(i) for i in range(len(tasks))])
        return results, seconds, errors, retries

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ShardExecutor(n_workers={self.n_workers})"
