"""Exception hierarchy for the BrePartition reproduction.

Every error raised by :mod:`repro` derives from :class:`ReproError` so that
callers can catch library failures without masking unrelated bugs.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` package."""


class DomainError(ReproError, ValueError):
    """A vector lies outside the domain of a Bregman divergence.

    For example, Itakura-Saito requires strictly positive coordinates and
    the Shannon-entropy divergence requires coordinates in the open unit
    interval.
    """


class NotDecomposableError(ReproError, TypeError):
    """A divergence cannot be used with dimensionality partitioning.

    BrePartition relies on the divergence being cumulative over disjoint
    dimension subsets (Section 3.1 of the paper).  Divergences such as the
    simplex-constrained KL divergence or a full-matrix Mahalanobis distance
    violate this and are rejected with this error.
    """


class NotFittedError(ReproError, RuntimeError):
    """An index or model was queried before :meth:`build` / :meth:`fit`."""


class InvalidParameterError(ReproError, ValueError):
    """A user-supplied parameter is out of range or inconsistent."""


class StorageError(ReproError, RuntimeError):
    """The simulated disk was used incorrectly (bad address, page overflow)."""


class ServerOverloadedError(ReproError, RuntimeError):
    """The serving layer's admission queue is full.

    Raised by :class:`~repro.serve.MicroBatcher` in fast-fail overflow
    mode when a request arrives while ``max_queue_depth`` requests are
    already waiting for dispatch -- the load-shedding half of the
    serving backpressure story (the other half awaits admission).  Also
    raised when a parked ``overflow="wait"`` request exceeds its
    ``admission_timeout_ms`` before a slot frees.
    """


class TransientIOError(StorageError):
    """A simulated disk read failed transiently (retry may succeed).

    Raised by the :class:`~repro.storage.faults.FaultInjector` on a
    page access it chose to fail.  The
    :class:`~repro.exec.ShardExecutor` retry loop treats this class --
    and only this class -- as retryable; everything else is a
    programming error and propagates immediately.
    """


class ShardUnavailableError(StorageError):
    """A simulated disk is (or became) permanently unreachable.

    Raised directly by the fault injector for a shard marked ``broken``
    and by the retry loop when transient faults persist past
    ``io_max_retries``.  Under ``shard_failure="partial"`` only the
    queries whose candidate pages live on the failed shard receive it;
    the rest of the batch still serves exact results.
    """


class DeadlineExceededError(ReproError, TimeoutError):
    """A serving request missed its per-request deadline.

    Raised to a :meth:`MicroBatcher.search <repro.serve.MicroBatcher.search>`
    caller when ``request_timeout_ms`` elapses before its batch
    resolves (the batch itself, if already dispatched, still completes
    on the worker).
    """


class WALError(StorageError):
    """The write-ahead log is unusable (bad magic, corrupt mid-log
    record, or a replayed operation contradicts the recovered state).

    A *torn tail* -- a truncated or corrupt final record -- is not an
    error: recovery drops it, because an op missing its complete,
    checksummed record was never acknowledged.
    """
