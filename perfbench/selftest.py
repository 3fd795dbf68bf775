"""Self-test of the benchmark at smoke size (about a minute).

Run from the root of a checkout::

    python3 perfbench/selftest.py

Checks, on shrunken copies of the three workloads:

* the result object's keys, metric names and units match
  ``BENCHMARK.json`` for both ``--trace 0`` and ``--trace 1``;
* the correctness gate fires when every response is corrupted by one
  ulp in one divergence;
* ``pages_per_query``, ``plan.candidates_per_query`` and
  ``build.n_partitions`` repeat exactly for a fixed seed, on the seed
  used while writing the benchmark and on a held-out one.

Exits 0 when every check passes.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys
import tempfile

import numpy as np

import run

SMOKE = {
    "batch": dict(n=600, n_queries=64, width=16, n_partitions=4),
    "serve": dict(n=800, n_queries=64, width=8),
    "mutate": dict(n=600, n_queries=32, n_pool=100, count_ops=60, merge_every=25),
}
SEEDS = (1, 20261016)


def _specs():
    from workloads import SPECS

    return {
        name: dataclasses.replace(
            SPECS[name], builds=1, check_samples=8, scan_seconds=0.05, **SMOKE[name]
        )
        for name in SPECS
    }


def _execute(spec, seed: int, trace: bool):
    from workloads import execute

    workdir = tempfile.mkdtemp(dir=str(run.ROOT / ".bench_build"))
    try:
        return execute(spec, seed, 0.3, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def check_schema(specs) -> None:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        expected = {m["name"]: m["unit"] for m in declared[key]}
        for name, spec in specs.items():
            line = run.result_line(_execute(spec, SEEDS[0], trace), trace)
            assert set(line) == {"correct", "attempted", "failed", "metrics"}, line
            assert line["correct"] is True and line["failed"] == 0, (name, line)
            assert line["attempted"] >= 1
            got = {m: v["unit"] for m, v in line["metrics"].items()}
            assert got == expected, (name, key, got)
            assert all(np.isfinite(v["value"]) for v in line["metrics"].values())
            print(f"schema ok: {name} {key}")


def check_gate(specs) -> None:
    """Nudge one divergence of every response by one ulp: the sampled
    oracle comparison must count mismatches and fail the run."""
    from repro import BrePartitionIndex

    search, search_batch = BrePartitionIndex.search, BrePartitionIndex.search_batch

    def corrupt(result):
        result.divergences[0] = np.nextafter(result.divergences[0], np.inf)
        return result

    def bad_search(self, query, k):
        return corrupt(search(self, query, k))

    def bad_search_batch(self, queries, k):
        batch = search_batch(self, queries, k)
        for result in batch.results:
            corrupt(result)
        return batch

    BrePartitionIndex.search, BrePartitionIndex.search_batch = bad_search, bad_search_batch
    try:
        for name, spec in specs.items():
            outcome = _execute(spec, SEEDS[0], False)
            assert not outcome.correct, name
            assert outcome.failed == outcome.report["oracle_mismatches"] > 0, outcome.report
            print(f"gate fires: {name} ({outcome.failed} mismatches)")
    finally:
        BrePartitionIndex.search, BrePartitionIndex.search_batch = search, search_batch


def check_repeat(specs) -> None:
    for name, spec in specs.items():
        for seed in SEEDS:
            pages = {_execute(spec, seed, False).metrics["pages_per_query"] for _ in range(2)}
            layers = {
                tuple(
                    _execute(spec, seed, True).metrics[m]
                    for m in ("plan.candidates_per_query", "build.n_partitions")
                )
                for _ in range(2)
            }
            assert len(pages) == 1 and len(layers) == 1, (name, seed, pages, layers)
            print(f"counts repeat: {name} seed {seed} pages/query {pages.pop():.4f}")


def main() -> int:
    run._import_program()
    (run.ROOT / ".bench_build").mkdir(exist_ok=True)
    specs = _specs()
    check_schema(specs)
    check_gate(specs)
    check_repeat(specs)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
