"""Asyncio serving layer: micro-batched query coalescing.

:class:`MicroBatcher` accumulates concurrent single-query requests into
micro-batches under ``max_batch_size`` / ``max_wait_ms`` deadlines
(:class:`MicroBatchConfig`) and drives them through the staged
``search_batch`` pipeline on a pool of up to ``max_concurrent_batches``
worker threads -- overlapping in-flight batches stay exact because each
call searches under its own tracker
:class:`~repro.storage.io_stats.QueryScope` -- resolving one future per
request with results bitwise identical to direct ``search`` calls.
``max_queue_depth`` bounds the admission queue (``overflow="wait"``
backpressures, ``"reject"`` sheds load with
:class:`~repro.exceptions.ServerOverloadedError`).
:mod:`repro.serve.bench` holds the closed-loop benchmark engine behind
the CLI ``serve-bench`` command.
"""

from .bench import make_serving_index, run_closed_loop
from .microbatcher import MicroBatchConfig, MicroBatcher, ServeStats

__all__ = [
    "MicroBatchConfig",
    "MicroBatcher",
    "ServeStats",
    "make_serving_index",
    "run_closed_loop",
]
