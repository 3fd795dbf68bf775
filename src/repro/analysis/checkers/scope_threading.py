"""scope-threading: page charges must thread an explicit ``scope=``.

Every I/O charge is attributable to a query by threading a
:class:`~repro.storage.io_stats.QueryScope` through the call chain;
the tracker has no ambient scope to fall back on.  This checker
enforces both halves:

* inside ``pipeline/``, ``exec/`` and ``serve/``, any call to a
  charge-accruing method (``charge_pages_for``, ``charge_shard*``,
  ``fetch``, ``scan``, ``BufferPool.access``) must pass ``scope=``;
* an ambient ``start_query()``/``end_query()`` call is flagged
  anywhere.
"""

from __future__ import annotations

import ast
from typing import List

from ..engine import Checker, Finding, SourceModule
from .common import dotted_parts, dotted_text

__all__ = ["ScopeThreadingChecker"]

#: attribute-call names that accrue page charges and take ``scope=``
SCOPE_REQUIRED = frozenset(
    {
        "charge_pages_for",
        "charge_pages_detailed",
        "charge_shard",
        "charge_shard_detailed",
        "charge_shard_replica",
        "charge_shard_replica_detailed",
        "fetch",
        "scan",
        "access",
    }
)

#: directories whose code runs concurrent queries and must be explicit
SCOPED_DIRS = ("pipeline", "exec", "serve")

#: ambient-scope entry points the tracker does not provide
AMBIENT = frozenset({"start_query", "end_query"})


class ScopeThreadingChecker(Checker):
    rule = "scope-threading"
    hint = (
        "thread the QueryScope explicitly: pass scope=<ctx.scope / active "
        "scope>; there is no ambient start_query/end_query scope"
    )

    def collect(self, module: SourceModule) -> List[Finding]:
        findings: List[Finding] = []
        in_scoped_dir = module.in_dir(*SCOPED_DIRS)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            name = func.attr
            if in_scoped_dir and name in SCOPE_REQUIRED:
                has_scope = any(kw.arg == "scope" for kw in node.keywords)
                if not has_scope:
                    receiver = dotted_text(func.value) or "<expr>"
                    findings.append(
                        self.finding(
                            module,
                            node,
                            f"call to {receiver}.{name}() without explicit "
                            f"scope= in concurrent-query code",
                        )
                    )
            if name in AMBIENT and not node.args:
                # start_query()/end_query() take no arguments; anything
                # with positional args is an unrelated method.
                parts = dotted_parts(func.value)
                receiver = ".".join(parts) if parts else "<expr>"
                findings.append(
                    self.finding(
                        module,
                        node,
                        f"ambient {receiver}.{name}(): the tracker has no "
                        f"ambient scope",
                        hint=(
                            "use `with tracker.scope() as scope:` and pass "
                            "scope= through the charge calls instead"
                        ),
                    )
                )
        return findings
