"""fixed-order-reduction: refinement math must use fixed-order einsum.

The bitwise-reproducibility contract (PR 4): a query's refinement
scores must not depend on batch composition, blocking, or BLAS
threading.  ``np.dot`` / ``@`` / ``np.matmul`` / axis-less ``np.sum``
pick a summation order that varies with BLAS blocking heuristics
(shape- and build-dependent), so inside ``divergences/`` and the
refine/rerank pipeline stages those spellings are banned in favour of
the fixed-order ``np.einsum`` idiom (see
``divergences/base.py::cross_divergence``).  The same holds in
``bbtree/`` and ``geometry/projection.py``: the ball tests' bits decide
which leaves a query keeps, so its candidates and pages, which must not
depend on the batch a query runs in or on the BLAS thread count.

Exemption: a reduction wrapped directly in ``float(...)`` is a scalar
single-pair reference formula -- its operand shapes never vary with
batch composition, so its summation order is fixed by construction.
Everything else is flagged; deliberate exceptions carry
``# repro: noqa[fixed-order-reduction]`` with a justification.
"""

from __future__ import annotations

import ast
from typing import List, Set

from ..engine import Checker, Finding, SourceModule
from .common import dotted_parts

__all__ = ["FixedOrderReductionChecker"]

_NUMPY_NAMES = ("np", "numpy")
_BANNED_FUNCS = frozenset({"dot", "matmul", "vdot", "inner"})


class FixedOrderReductionChecker(Checker):
    rule = "fixed-order-reduction"
    hint = (
        "use np.einsum with a fixed operand order (the divergences/base.py "
        "idiom) so scores are bitwise independent of batch shape and BLAS "
        "blocking"
    )

    def applies_to(self, module: SourceModule) -> bool:
        if module.in_dir("divergences", "bbtree"):
            return True
        if module.in_dir("geometry"):
            return module.is_file("projection.py")
        return module.in_dir("pipeline") and (
            module.is_file("refine.py") or module.is_file("rerank.py")
        )

    def collect(self, module: SourceModule) -> List[Finding]:
        exempt = self._float_wrapped(module.tree)
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if id(node) in exempt:
                continue
            label = self._banned_label(node)
            if label is not None:
                findings.append(
                    self.finding(
                        module,
                        node,
                        f"{label} has BLAS-blocking-dependent summation "
                        f"order in refinement-path code",
                    )
                )
        return findings

    @staticmethod
    def _float_wrapped(tree: ast.Module) -> Set[int]:
        """ids of all nodes inside a ``float(...)`` call subtree."""
        exempt: Set[int] = set()
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "float"
            ):
                for arg in node.args:
                    for sub in ast.walk(arg):
                        exempt.add(id(sub))
        return exempt

    @staticmethod
    def _banned_label(node: ast.AST) -> "str | None":
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
            return "matrix-multiply operator `@`"
        if not isinstance(node, ast.Call):
            return None
        func = node.func
        parts = dotted_parts(func)
        if (
            parts is not None
            and len(parts) == 2
            and parts[0] in _NUMPY_NAMES
            and parts[1] in _BANNED_FUNCS
        ):
            return f"np.{parts[1]}()"
        if (
            parts is not None
            and len(parts) == 2
            and parts[0] in _NUMPY_NAMES
            and parts[1] == "sum"
            and not any(kw.arg == "axis" for kw in node.keywords)
            and len(node.args) < 2
        ):
            return "axis-less np.sum()"
        if isinstance(func, ast.Attribute):
            # method spellings: x.dot(y), (a * b).sum()
            if func.attr == "dot":
                return "`.dot()` method"
            if func.attr == "sum" and not any(
                kw.arg == "axis" for kw in node.keywords
            ) and not node.args:
                return "axis-less `.sum()` method"
        return None
