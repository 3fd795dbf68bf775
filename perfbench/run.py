"""Benchmark for exact Bregman kNN search with BrePartition.

Run from the root of a checkout::

    python3 perfbench/run.py --workload serve --seed 1 --seconds 45 --trace 0

Workloads are ``serve`` and ``mutate``, which ``BENCHMARK.json`` gates,
and ``batch``, which runs the same way by hand (see
``perfbench/workloads.py``, which also says how ``throughput`` and
``latency_p50_ms`` are taken over blocks of equal work).  ``--trace 0``
measures the end-to-end
metrics untraced; ``--trace 1`` runs an untraced and then a traced pass
of ``--seconds / 2`` each and reports the per-layer metrics, with the
spans written to ``.bench_build/perfbench/trace-<workload>-seed<n>.jsonl``.

The program is imported from the checkout's ``src/``.  Standard output
ends with two lines: a ``{"report": ...}`` object (host and provenance,
workload settings, figures that are not on every workload, the
``LinearScanIndex`` reference and the correctness-check counts), then
the result object with exactly the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  Every response sampled for the
brute-force check must be bitwise equal to the oracle; any mismatch or
failed operation makes ``correct`` false and the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("batch", "serve", "mutate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def _import_program() -> None:
    """Put the checkout's ``src/`` first on the path and import it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {SRC.relative_to(ROOT)}/repro")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit("perfbench: repro was not imported from this checkout")


def result_line(outcome, trace: bool) -> dict:
    """The final result object: every metric of the run's kind, by name."""
    from workloads import END_TO_END, PER_LAYER

    units = PER_LAYER if trace else END_TO_END
    return {
        "correct": outcome.correct,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {
            name: {"value": float(outcome.metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }


def main(argv=None) -> int:
    args = _parse(argv)
    _import_program()
    from host import host_block
    from workloads import SPECS, WAL_POLICY, execute

    spec = SPECS[args.workload]
    scratch = ROOT / ".bench_build" / "perfbench"
    workdir = scratch / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        outcome = execute(spec, args.seed, args.seconds, bool(args.trace), str(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report = {
        "workload": args.workload,
        "trace": args.trace,
        "host": host_block(
            ROOT,
            seed=args.seed,
            seconds=args.seconds,
            wal_policy=WAL_POLICY if args.workload == "mutate" else None,
            spec=spec.__dict__,
        ),
        **outcome.report,
    }
    print(json.dumps({"report": report}, default=float))
    print(json.dumps(result_line(outcome, bool(args.trace))))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
