"""DMW007 — arithmetic that bypasses the pluggable backend layer.

Backend invariant (``docs/PERFORMANCE.md``, "Arithmetic backends"): every
modular exponentiation and inversion in the counted protocol path must
route through :mod:`repro.crypto.backend` (directly, or via ``modular``/
``fastexp``, which wrap it).  A stray three-argument ``pow(...)`` — or a
direct ``gmpy2`` import/call — executes on a hard-coded engine, so the
``python`` and ``gmpy2`` backends would no longer be interchangeable and
the bit-identical-across-backends guarantee (``tests/test_backend.py``)
could silently rot.

Sanctioned idiom: ``backend.ACTIVE.powmod(...)`` / ``backend.ACTIVE.invert``
(or the counted ``mod_exp``/``mod_inv`` wrappers).  Exempt:

* ``backend.py`` — the module that legitimately owns the engines;
* ``primes.py`` — uncounted setup-time primality testing that runs before
  any backend selection matters (Miller–Rabin witnesses, generator search).
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..base import FileContext, Rule, Violation, dotted_name


class BackendBypassRule(Rule):
    rule_id = "DMW007"
    description = ("direct gmpy2/pow() call bypasses the pluggable "
                   "arithmetic backend")
    invariant = ("python and gmpy2 backends stay interchangeable (identical "
                 "outcomes, transcripts, counters) only while all modular "
                 "arithmetic routes through repro.crypto.backend")
    include_parts = ("crypto", "core")
    exempt_names = ("backend.py", "primes.py")

    def check(self, context: FileContext) -> Iterator[Violation]:
        for node in ast.walk(context.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "gmpy2":
                        yield self.violation(
                            context, node,
                            "direct `import gmpy2`; only "
                            "repro.crypto.backend may construct the gmpy2 "
                            "engine (select it via select_backend)")
            elif isinstance(node, ast.ImportFrom):
                if (node.module or "").split(".")[0] == "gmpy2":
                    yield self.violation(
                        context, node,
                        "direct `from gmpy2 import ...`; only "
                        "repro.crypto.backend may construct the gmpy2 "
                        "engine (select it via select_backend)")
            elif isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name is not None and name.split(".")[0] == "gmpy2":
                    yield self.violation(
                        context, node,
                        "direct `%s(...)` call; route through "
                        "backend.ACTIVE so the engine stays pluggable"
                        % name)
                elif (isinstance(node.func, ast.Name)
                        and node.func.id == "pow" and len(node.args) == 3):
                    yield self.violation(
                        context, node,
                        "raw three-argument pow() hard-codes the CPython "
                        "engine; use backend.ACTIVE.powmod (or the counted "
                        "mod_exp wrapper)")
