"""AST-based invariant linter for the repro codebase.

Machine-checks the conventions the concurrent index's correctness
rests on -- conventions that previously lived only in review notes:

* ``scope-threading`` -- page charges inside ``pipeline/``, ``exec/``
  and ``serve/`` must thread an explicit ``scope=`` (PR 5's
  :class:`~repro.storage.io_stats.QueryScope` contract), and nothing
  may call the removed ambient ``start_query``/``end_query``.
* ``lock-order`` -- lock nestings (one call-graph level deep) must
  form an acyclic acquisition graph; cycles are potential deadlocks.
* ``async-blocking`` -- ``async def`` bodies in ``serve/`` must not
  block the event loop (``time.sleep``, blocking ``queue.get``, bare
  ``.acquire()``, synchronous ``search_batch`` dispatch).
* ``fixed-order-reduction`` -- refinement-path float reductions in
  ``divergences/`` and ``pipeline/refine.py``/``rerank.py`` must use
  the fixed-order ``einsum`` idiom, not BLAS-order-dependent
  ``np.dot``/``@``/axis-less ``sum`` (PR 4's bitwise-parity contract).
* ``shm-lifecycle`` -- every ``SharedMemory(create=True)`` must reach
  ``close()`` + ``unlink()`` on all paths; every attach must reach
  ``close()``.

Findings carry ``file:line``, a rule id, and a fix hint.  A finding is
silenced either by an inline ``# repro: noqa[RULE]`` on the offending
line (deliberate, justified exceptions) or by an entry in the
checked-in baseline file (grandfathered legacy findings; kept empty).

Run ``python -m repro.analysis src`` or ``repro lint``; exits nonzero
on any new finding.  See :mod:`repro.analysis.engine` for the checker
protocol and ``ROADMAP.md`` for how to add a checker.
"""

from __future__ import annotations

from .engine import (
    Checker,
    Finding,
    SourceModule,
    all_checkers,
    analyze_paths,
    load_baseline,
    partition_findings,
)

__all__ = [
    "Checker",
    "Finding",
    "SourceModule",
    "all_checkers",
    "analyze_paths",
    "load_baseline",
    "partition_findings",
]
