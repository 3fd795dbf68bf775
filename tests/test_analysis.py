"""Tests for the ``repro.analysis`` invariant linter.

Covers the engine semantics (noqa suppression, baseline multisets,
fingerprints), a known-good/known-bad fixture corpus per checker, the
CLI exit-code contract, the three acceptance mutations on copies of
the *real* source files, and a self-run asserting ``src/`` is clean
with an empty checked-in baseline.
"""

from __future__ import annotations

import io
import json
import tokenize
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import (
    Finding,
    analyze_paths,
    load_baseline,
    partition_findings,
)
from repro.analysis.checkers import (
    AsyncBlockingChecker,
    FixedOrderReductionChecker,
    LockOrderChecker,
    ScopeThreadingChecker,
    ShmLifecycleChecker,
)
from repro.analysis.cli import main as lint_main
from repro.analysis.engine import iter_python_files, load_module, save_baseline

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def write(tmp_path: Path, rel: str, text: str) -> Path:
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path


def rules_of(findings):
    return sorted({f.rule for f in findings})


# ----------------------------------------------------------------------
# engine semantics
# ----------------------------------------------------------------------


class TestEngine:
    def test_clean_file_no_findings(self, tmp_path):
        write(tmp_path, "pipeline/mod.py", "x = 1\n")
        assert analyze_paths([str(tmp_path)]) == []

    def test_syntax_error_is_a_finding(self, tmp_path):
        write(tmp_path, "mod.py", "def broken(:\n")
        findings = analyze_paths([str(tmp_path)])
        assert rules_of(findings) == ["syntax-error"]

    def test_noqa_suppresses_matching_rule(self, tmp_path):
        write(
            tmp_path,
            "pipeline/mod.py",
            "def f(store, ids):\n"
            "    return store.fetch(ids)  # repro: noqa[scope-threading]\n",
        )
        assert analyze_paths([str(tmp_path)]) == []

    def test_noqa_wildcard_suppresses_everything(self, tmp_path):
        write(
            tmp_path,
            "pipeline/mod.py",
            "def f(store, ids):\n"
            "    return store.fetch(ids)  # repro: noqa[]\n",
        )
        assert analyze_paths([str(tmp_path)]) == []

    def test_noqa_other_rule_does_not_suppress(self, tmp_path):
        write(
            tmp_path,
            "pipeline/mod.py",
            "def f(store, ids):\n"
            "    return store.fetch(ids)  # repro: noqa[lock-order]\n",
        )
        assert rules_of(analyze_paths([str(tmp_path)])) == ["scope-threading"]

    def test_fingerprint_is_line_independent(self):
        a = Finding("p.py", 3, 0, "r", "msg")
        b = Finding("p.py", 99, 7, "r", "msg")
        assert a.fingerprint == b.fingerprint
        assert a.fingerprint != Finding("p.py", 3, 0, "r", "other").fingerprint

    def test_baseline_multiset_semantics(self, tmp_path):
        f1 = Finding("p.py", 1, 0, "r", "msg")
        f2 = Finding("p.py", 9, 0, "r", "msg")  # same fingerprint
        baseline_path = tmp_path / "baseline.json"
        save_baseline(str(baseline_path), [f1])
        baseline = load_baseline(str(baseline_path))
        # one entry absorbs exactly one instance; the second is new
        new, old = partition_findings([f1, f2], baseline)
        assert len(old) == 1 and len(new) == 1

    def test_missing_baseline_is_empty(self, tmp_path):
        assert load_baseline(str(tmp_path / "nope.json")) == {}

    def test_corrupt_baseline_rejected(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text('{"not": "a list"}')
        with pytest.raises(ValueError):
            load_baseline(str(path))


# ----------------------------------------------------------------------
# scope-threading
# ----------------------------------------------------------------------


class TestScopeThreading:
    def test_unscoped_fetch_in_pipeline_flagged(self, tmp_path):
        write(
            tmp_path,
            "pipeline/mod.py",
            "def f(store, ids):\n    return store.fetch(ids)\n",
        )
        findings = analyze_paths([str(tmp_path)])
        assert rules_of(findings) == ["scope-threading"]
        assert findings[0].line == 2

    def test_scoped_fetch_ok(self, tmp_path):
        write(
            tmp_path,
            "pipeline/mod.py",
            "def f(store, ids, scope):\n"
            "    return store.fetch(ids, scope=scope)\n",
        )
        assert analyze_paths([str(tmp_path)]) == []

    @pytest.mark.parametrize(
        "call",
        [
            "store.charge_pages_detailed(ids)",
            "store.charge_shard_replica_detailed(s, r, pages)",
            "pool.access(fileno, page)",
            "store.scan()",
        ],
    )
    def test_all_charge_methods_covered(self, tmp_path, call):
        write(
            tmp_path,
            "exec/mod.py",
            f"def f(store, pool, ids, s, r, pages, fileno, page):\n"
            f"    return {call}\n",
        )
        assert rules_of(analyze_paths([str(tmp_path)])) == ["scope-threading"]

    def test_unscoped_fetch_outside_scoped_dirs_ok(self, tmp_path):
        write(
            tmp_path,
            "storage/mod.py",
            "def f(store, ids):\n    return store.fetch(ids)\n",
        )
        assert analyze_paths([str(tmp_path)]) == []

    def test_ambient_start_query_flagged(self, tmp_path):
        write(
            tmp_path,
            "vafile/mod.py",
            "def f(tracker):\n"
            "    tracker.start_query()\n"
            "    return tracker.end_query()\n",
        )
        findings = analyze_paths([str(tmp_path)])
        assert len(findings) == 2
        assert rules_of(findings) == ["scope-threading"]

    def test_ambient_flagged_in_baselines(self, tmp_path):
        write(
            tmp_path,
            "baselines/mod.py",
            "def f(tracker):\n"
            "    tracker.start_query()\n"
            "    return tracker.end_query()\n",
        )
        findings = analyze_paths([str(tmp_path)])
        assert len(findings) == 2
        assert rules_of(findings) == ["scope-threading"]


# ----------------------------------------------------------------------
# lock-order
# ----------------------------------------------------------------------

_CONSISTENT = """
import threading

class A:
    def __init__(self):
        self._merge_lock = threading.Lock()
        self._mutate_lock = threading.Lock()

    def merge(self):
        with self._merge_lock:
            with self._mutate_lock:
                pass

    def reshard(self):
        with self._merge_lock:
            with self._mutate_lock:
                pass
"""

_REVERSED = _CONSISTENT + """
    def rollback(self):
        with self._mutate_lock:
            with self._merge_lock:
                pass
"""


class TestLockOrder:
    def test_consistent_nesting_clean(self, tmp_path):
        write(tmp_path, "mod.py", _CONSISTENT)
        assert analyze_paths([str(tmp_path)]) == []

    def test_reversed_nesting_is_a_cycle(self, tmp_path):
        write(tmp_path, "mod.py", _REVERSED)
        findings = analyze_paths([str(tmp_path)])
        assert rules_of(findings) == ["lock-order"]
        assert "cycle" in findings[0].message

    def test_one_level_call_propagation(self, tmp_path):
        write(
            tmp_path,
            "mod.py",
            _CONSISTENT
            + """
    def outer(self):
        with self._mutate_lock:
            self.helper()

    def helper(self):
        with self._merge_lock:
            pass
""",
        )
        findings = analyze_paths([str(tmp_path)])
        assert rules_of(findings) == ["lock-order"]
        assert "cycle" in findings[0].message

    def test_reacquisition_flagged(self, tmp_path):
        write(
            tmp_path,
            "mod.py",
            """
class A:
    def f(self):
        with self._lock:
            with self._lock:
                pass
""",
        )
        findings = analyze_paths([str(tmp_path)])
        assert rules_of(findings) == ["lock-order"]
        assert "re-acquisition" in findings[0].message

    def test_call_reacquiring_held_lock_flagged(self, tmp_path):
        write(
            tmp_path,
            "mod.py",
            """
class A:
    def f(self):
        with self._lock:
            self.g()

    def g(self):
        with self._lock:
            pass
""",
        )
        findings = analyze_paths([str(tmp_path)])
        assert rules_of(findings) == ["lock-order"]
        assert "re-acquires" in findings[0].message

    def test_acquire_call_builds_edges(self, tmp_path):
        write(
            tmp_path,
            "mod.py",
            """
class A:
    def f(self):
        with self._a_lock:
            self._b_lock.acquire()

    def g(self):
        with self._b_lock:
            self._a_lock.acquire()
""",
        )
        findings = analyze_paths([str(tmp_path)])
        assert rules_of(findings) == ["lock-order"]

    def test_cross_class_locks_do_not_collide(self, tmp_path):
        # same attribute name on different classes = different locks
        write(
            tmp_path,
            "mod.py",
            """
class A:
    def f(self):
        with self._lock:
            pass

class B:
    def f(self):
        with self._lock:
            pass
""",
        )
        assert analyze_paths([str(tmp_path)]) == []


# ----------------------------------------------------------------------
# async-blocking
# ----------------------------------------------------------------------


class TestAsyncBlocking:
    def test_time_sleep_flagged(self, tmp_path):
        write(
            tmp_path,
            "serve/mod.py",
            "import time\nasync def f():\n    time.sleep(1)\n",
        )
        findings = analyze_paths([str(tmp_path)])
        assert rules_of(findings) == ["async-blocking"]

    def test_asyncio_sleep_ok(self, tmp_path):
        write(
            tmp_path,
            "serve/mod.py",
            "import asyncio\nasync def f():\n    await asyncio.sleep(1)\n",
        )
        assert analyze_paths([str(tmp_path)]) == []

    def test_blocking_queue_get_flagged(self, tmp_path):
        write(
            tmp_path,
            "serve/mod.py",
            "async def f(result_queue):\n    return result_queue.get()\n",
        )
        assert rules_of(analyze_paths([str(tmp_path)])) == ["async-blocking"]

    def test_awaited_queue_get_ok(self, tmp_path):
        write(
            tmp_path,
            "serve/mod.py",
            "async def f(queue):\n    return await queue.get()\n",
        )
        assert analyze_paths([str(tmp_path)]) == []

    def test_bare_acquire_flagged(self, tmp_path):
        write(
            tmp_path,
            "serve/mod.py",
            "async def f(lock):\n    lock.acquire()\n",
        )
        assert rules_of(analyze_paths([str(tmp_path)])) == ["async-blocking"]

    def test_awaited_acquire_ok(self, tmp_path):
        write(
            tmp_path,
            "serve/mod.py",
            "async def f(lock):\n    await lock.acquire()\n",
        )
        assert analyze_paths([str(tmp_path)]) == []

    def test_sync_search_batch_dispatch_flagged(self, tmp_path):
        write(
            tmp_path,
            "serve/mod.py",
            "async def f(self, queries, k):\n"
            "    return self.index.search_batch(queries, k)\n",
        )
        assert rules_of(analyze_paths([str(tmp_path)])) == ["async-blocking"]

    def test_executor_dispatch_ok(self, tmp_path):
        write(
            tmp_path,
            "serve/mod.py",
            "async def f(self, loop, queries):\n"
            "    return await loop.run_in_executor(\n"
            "        self._executor, self.index.search_batch, queries, self.k\n"
            "    )\n",
        )
        assert analyze_paths([str(tmp_path)]) == []

    def test_sync_def_not_checked(self, tmp_path):
        write(
            tmp_path,
            "serve/mod.py",
            "import time\ndef f():\n    time.sleep(1)\n",
        )
        assert analyze_paths([str(tmp_path)]) == []

    def test_nested_def_in_async_body_not_checked(self, tmp_path):
        # nested defs run in executors, not on the loop
        write(
            tmp_path,
            "serve/mod.py",
            "import time\n"
            "async def f():\n"
            "    def worker():\n"
            "        time.sleep(1)\n"
            "    return worker\n",
        )
        assert analyze_paths([str(tmp_path)]) == []

    def test_outside_serve_not_checked(self, tmp_path):
        write(
            tmp_path,
            "exec/mod.py",
            "import time\nasync def f():\n    time.sleep(1)\n",
        )
        assert analyze_paths([str(tmp_path)]) == []


# ----------------------------------------------------------------------
# fixed-order-reduction
# ----------------------------------------------------------------------


class TestFixedOrderReduction:
    @pytest.mark.parametrize(
        "expr",
        [
            "np.dot(a, b)",
            "np.matmul(a, b)",
            "a @ b",
            "a.dot(b)",
            "np.sum(a)",
            "(a * b).sum()",
        ],
    )
    def test_banned_reductions_flagged(self, tmp_path, expr):
        write(
            tmp_path,
            "divergences/mod.py",
            f"import numpy as np\ndef f(a, b):\n    return {expr}\n",
        )
        findings = analyze_paths([str(tmp_path)])
        assert rules_of(findings) == ["fixed-order-reduction"]

    @pytest.mark.parametrize(
        "expr",
        [
            "np.einsum('ij,j->i', a, b)",
            "np.sum(a, axis=1)",
            "a.sum(axis=0)",
            "float(np.dot(a, b))",
            "float(0.5 * (a @ b))",
        ],
    )
    def test_allowed_reductions_clean(self, tmp_path, expr):
        write(
            tmp_path,
            "divergences/mod.py",
            f"import numpy as np\ndef f(a, b):\n    return {expr}\n",
        )
        assert analyze_paths([str(tmp_path)]) == []

    def test_refine_and_rerank_in_scope(self, tmp_path):
        for name in ("refine.py", "rerank.py"):
            write(
                tmp_path,
                f"pipeline/{name}",
                "import numpy as np\ndef f(a, b):\n    return np.dot(a, b)\n",
            )
        findings = analyze_paths([str(tmp_path)])
        assert len(findings) == 2

    def test_ball_tests_in_scope(self, tmp_path):
        # the ball tests decide candidates and pages, so their reductions
        # are held to the same order as the scores
        for rel in ("bbtree/flat.py", "bbtree/tree.py", "geometry/projection.py"):
            write(
                tmp_path,
                rel,
                "import numpy as np\ndef f(a, b):\n    return np.dot(a, b) + (a @ b)\n",
            )
        findings = analyze_paths([str(tmp_path)])
        assert rules_of(findings) == ["fixed-order-reduction"]
        assert len(findings) == 6

    def test_ball_tests_fixed_order_clean(self, tmp_path):
        for rel in ("bbtree/flat.py", "geometry/projection.py"):
            write(
                tmp_path,
                rel,
                "import numpy as np\n"
                "def f(a, b):\n"
                "    return np.einsum('ij,ij->i', a, b) + np.sum(a, axis=1)\n",
            )
        write(
            tmp_path,
            "geometry/ball.py",
            "import numpy as np\ndef f(a, b):\n    return np.dot(a, b)\n",
        )
        assert analyze_paths([str(tmp_path)]) == []

    def test_suppressions_are_the_certified_products(self):
        """The rule's only suppressions in ``src/`` are the BLAS products
        every use of which is certified by a proved error bound: Refine's
        dense estimate and the fast pass's two center-divergence
        products.  A new BLAS call in a module whose bits decide
        candidates cannot be waved through with a suppression."""
        sites = set()
        for path in iter_python_files([str(SRC)]):
            module = load_module(path)
            lines = module.source.splitlines()
            # suppressions are comments; docstrings may quote the syntax
            comments = {
                token.start[0]
                for token in tokenize.generate_tokens(io.StringIO(module.source).readline)
                if token.type == tokenize.COMMENT
            }
            for line, rules in module.noqa.items():
                if line in comments and rules & {"fixed-order-reduction", "*"}:
                    code = lines[line - 1].partition("#")[0].strip()
                    sites.add((Path(path).relative_to(SRC).as_posix(), code))
        assert sites == {
            ("repro/pipeline/refine.py", "np.matmul(operand, rows.T, out=out)"),
            ("repro/geometry/projection.py", "d_query_center = balls.grad @ queries.T"),
            ("repro/geometry/projection.py", "d_center_query = balls.centers @ grad_q.T"),
        }

    def test_other_pipeline_files_not_in_scope(self, tmp_path):
        write(
            tmp_path,
            "pipeline/fetch.py",
            "import numpy as np\ndef f(a, b):\n    return np.dot(a, b)\n",
        )
        assert analyze_paths([str(tmp_path)]) == []


# ----------------------------------------------------------------------
# shm-lifecycle
# ----------------------------------------------------------------------

_SHM_HEADER = "from multiprocessing import shared_memory\n"


class TestShmLifecycle:
    def test_creator_without_cleanup_flagged(self, tmp_path):
        write(
            tmp_path,
            "mod.py",
            _SHM_HEADER
            + "def f():\n"
            "    shm = shared_memory.SharedMemory(create=True, size=8)\n"
            "    return None\n",
        )
        findings = analyze_paths([str(tmp_path)])
        assert rules_of(findings) == ["shm-lifecycle"]
        assert "close/unlink" in findings[0].message

    def test_creator_cleanup_outside_finally_flagged(self, tmp_path):
        write(
            tmp_path,
            "mod.py",
            _SHM_HEADER
            + "def f():\n"
            "    shm = shared_memory.SharedMemory(create=True, size=8)\n"
            "    shm.close()\n"
            "    shm.unlink()\n",
        )
        findings = analyze_paths([str(tmp_path)])
        assert rules_of(findings) == ["shm-lifecycle"]
        assert "finally" in findings[0].message

    def test_creator_try_finally_clean(self, tmp_path):
        write(
            tmp_path,
            "mod.py",
            _SHM_HEADER
            + "def f():\n"
            "    shm = shared_memory.SharedMemory(create=True, size=8)\n"
            "    try:\n"
            "        pass\n"
            "    finally:\n"
            "        shm.close()\n"
            "        shm.unlink()\n",
        )
        assert analyze_paths([str(tmp_path)]) == []

    def test_returned_handle_transfers_ownership(self, tmp_path):
        write(
            tmp_path,
            "mod.py",
            _SHM_HEADER
            + "def f():\n"
            "    shm = shared_memory.SharedMemory(create=True, size=8)\n"
            "    return shm\n",
        )
        assert analyze_paths([str(tmp_path)]) == []

    def test_attribute_store_transfers_ownership(self, tmp_path):
        write(
            tmp_path,
            "mod.py",
            _SHM_HEADER
            + "class A:\n"
            "    def f(self):\n"
            "        self._shm = shared_memory.SharedMemory(create=True, size=8)\n",
        )
        assert analyze_paths([str(tmp_path)]) == []

    def test_attacher_without_close_flagged(self, tmp_path):
        write(
            tmp_path,
            "mod.py",
            _SHM_HEADER
            + "def f(name):\n"
            "    shm = shared_memory.SharedMemory(name=name)\n"
            "    return bytes(shm.buf)\n",
        )
        findings = analyze_paths([str(tmp_path)])
        assert rules_of(findings) == ["shm-lifecycle"]
        assert "close" in findings[0].message

    def test_attacher_close_in_finally_clean(self, tmp_path):
        write(
            tmp_path,
            "mod.py",
            _SHM_HEADER
            + "def f(name):\n"
            "    shm = shared_memory.SharedMemory(name=name)\n"
            "    try:\n"
            "        return bytes(shm.buf)\n"
            "    finally:\n"
            "        shm.close()\n",
        )
        assert analyze_paths([str(tmp_path)]) == []


# ----------------------------------------------------------------------
# CLI contract
# ----------------------------------------------------------------------


class TestCli:
    def test_exit_zero_when_clean(self, tmp_path, capsys):
        write(tmp_path, "mod.py", "x = 1\n")
        code = lint_main(
            [str(tmp_path), "--baseline", str(tmp_path / "b.json")]
        )
        assert code == 0
        assert "0 new finding(s)" in capsys.readouterr().out

    def test_exit_nonzero_on_finding(self, tmp_path, capsys):
        write(
            tmp_path,
            "pipeline/mod.py",
            "def f(store, ids):\n    return store.fetch(ids)\n",
        )
        code = lint_main(
            [str(tmp_path), "--baseline", str(tmp_path / "b.json")]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "scope-threading" in out
        assert "mod.py:2" in out  # file:line in the listing

    def test_update_baseline_grandfathers(self, tmp_path, capsys):
        write(
            tmp_path,
            "pipeline/mod.py",
            "def f(store, ids):\n    return store.fetch(ids)\n",
        )
        baseline = str(tmp_path / "b.json")
        assert lint_main(
            [str(tmp_path), "--baseline", baseline, "--update-baseline"]
        ) == 0
        # grandfathered finding no longer fails the run
        assert lint_main([str(tmp_path), "--baseline", baseline]) == 0
        # a second instance of the same violation still fails
        write(
            tmp_path,
            "pipeline/mod.py",
            "def f(store, ids):\n"
            "    store.fetch(ids)\n"
            "    return store.fetch(ids)\n",
        )
        assert lint_main([str(tmp_path), "--baseline", baseline]) == 1
        capsys.readouterr()

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in (
            "scope-threading",
            "lock-order",
            "async-blocking",
            "fixed-order-reduction",
            "shm-lifecycle",
        ):
            assert rule in out

    def test_repro_cli_lint_subcommand(self, tmp_path, capsys):
        from repro.cli import main as repro_main

        write(tmp_path, "mod.py", "x = 1\n")
        code = repro_main(
            ["lint", str(tmp_path), "--baseline", str(tmp_path / "b.json")]
        )
        assert code == 0
        capsys.readouterr()


# ----------------------------------------------------------------------
# acceptance mutations on the real source files
# ----------------------------------------------------------------------


class TestAcceptanceMutations:
    """ISSUE 10's acceptance demos: single-token regressions in the
    real files must each produce a file:line finding."""

    def test_real_tree_is_clean(self):
        assert analyze_paths([str(SRC)]) == []

    def test_deleting_a_scope_argument_fails(self, tmp_path):
        source = (SRC / "repro/pipeline/fetch.py").read_text()
        assert ", scope=ctx.scope)" in source
        mutated = source.replace(", scope=ctx.scope)", ")", 1)
        write(tmp_path, "pipeline/fetch.py", mutated)
        findings = analyze_paths([str(tmp_path)])
        assert rules_of(findings) == ["scope-threading"]
        assert findings[0].line > 0

    def test_reversing_a_lock_nesting_fails(self, tmp_path):
        source = (SRC / "repro/core/index.py").read_text()
        head, _, tail = source.partition("def merge(")
        assert tail, "merge() not found in core/index.py"
        body, _, rest = tail.partition("\n    def ")
        assert "with self._merge_lock:" in body
        # swap the first merge-lock/mutate-lock nesting inside merge()
        body = (
            body.replace("with self._merge_lock:", "with self.__TMP__:", 1)
            .replace("with self._mutate_lock:", "with self._merge_lock:", 1)
            .replace("with self.__TMP__:", "with self._mutate_lock:", 1)
        )
        write(tmp_path, "core/index.py", head + "def merge(" + body + "\n    def " + rest)
        findings = analyze_paths([str(tmp_path)])
        assert findings, "reversed nesting must produce a finding"
        assert rules_of(findings) == ["lock-order"]
        assert any("index.py" in f.path and f.line > 0 for f in findings)

    def test_swapping_einsum_for_dot_fails(self, tmp_path):
        source = (SRC / "repro/divergences/base.py").read_text()
        needle = 'np.einsum("nj,bj->nb", points, grad_q)'
        assert needle in source
        mutated = source.replace(needle, "np.dot(points, grad_q.T)", 1)
        write(tmp_path, "divergences/base.py", mutated)
        findings = analyze_paths([str(tmp_path)])
        assert rules_of(findings) == ["fixed-order-reduction"]
        assert findings[0].line > 0


# ----------------------------------------------------------------------
# self-run + sweep regression tests
# ----------------------------------------------------------------------


class TestSelfRun:
    def test_src_is_clean_with_empty_baseline(self, capsys):
        baseline_path = ROOT / "analysis-baseline.json"
        assert baseline_path.exists(), "checked-in baseline must exist"
        assert json.loads(baseline_path.read_text()) == []
        code = lint_main([str(SRC), "--baseline", str(baseline_path)])
        assert code == 0
        capsys.readouterr()

    def test_all_five_checkers_registered(self):
        from repro.analysis import all_checkers

        assert {c.rule for c in all_checkers()} == {
            "scope-threading",
            "lock-order",
            "async-blocking",
            "fixed-order-reduction",
            "shm-lifecycle",
        }


class TestSweepRegressions:
    """Each true positive the sweep fixed stays fixed."""

    def test_mahalanobis_gradient_noqa_is_justified(self):
        # the suppressed matvec must stay numerically identical to the
        # fixed-order spelling (single point: shapes fixed by d)
        from repro.divergences.mahalanobis import MahalanobisDivergence

        rng = np.random.default_rng(7)
        basis = rng.normal(size=(4, 4))
        matrix = basis @ basis.T + 4.0 * np.eye(4)
        div = MahalanobisDivergence(matrix)
        x = rng.normal(size=4)
        expected = np.einsum("ij,j->i", div.matrix, x)
        assert np.array_equal(div.gradient(x), expected)

    def test_vafile_search_uses_explicit_scope(self):
        # VA-file search threads a private QueryScope, so concurrent
        # searches cannot cross-talk their page dedup sets; finishing it
        # counts exactly one query
        from repro import VAFileIndex, brute_force_knn
        from repro.divergences import SquaredEuclidean

        rng = np.random.default_rng(11)
        points = rng.normal(size=(120, 6))
        index = VAFileIndex(SquaredEuclidean()).build(points)
        query = rng.normal(size=6)
        result = index.search(query, k=5)
        assert index.tracker.queries == 1
        assert result.stats.pages_read > 0
        expected_ids, _ = brute_force_knn(SquaredEuclidean(), points, query, 5)
        assert np.array_equal(np.sort(result.ids), np.sort(expected_ids))

    def test_vafile_has_no_ambient_scope_calls(self):
        checker = ScopeThreadingChecker()
        from repro.analysis.engine import load_module

        module = load_module(str(SRC / "repro/vafile/vafile.py"))
        assert checker.collect(module) == []
