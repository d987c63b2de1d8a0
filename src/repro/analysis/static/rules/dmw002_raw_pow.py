"""DMW002 — raw ``pow`` on commitment bases bypasses the fastexp tables.

Performance invariant (Theorem 12 / PERFORMANCE.md): every exponentiation
of the published commitment bases ``z1``/``z2`` (and generator aliases)
must go through :mod:`repro.crypto.fastexp`'s cached fixed-base windowed
tables — both for the 3.3–3.8x speedup and because the
:class:`~repro.crypto.fastexp.PublicValueCache` replay-on-hit accounting
only stays exact when *all* base exponentiations are routed through it.
A stray ``pow(z1, e, p)`` silently recomputes and skews the measured
operation counts that Table 1 reproduces.

Sanctioned idiom: ``group.power_z1(e)`` / ``fixed_base_table(z1, p).pow(e)``
/ ``mod_exp`` (which meters the cost model).  The implementing modules
(``fastexp.py``, ``modular.py``, ``groups.py``) are exempt.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from ..base import FileContext, Rule, Violation, terminal_name

#: Names that denote a published commitment base / generator.
BASE_NAMES: Set[str] = {
    "g", "g1", "g2", "z", "z1", "z2", "generator", "generators", "base",
}


class RawPowOnBaseRule(Rule):
    rule_id = "DMW002"
    description = "raw pow() on a commitment base bypasses fastexp tables"
    invariant = ("Theorem 12 cost accounting and the PublicValueCache "
                 "replay counters are exact only when base exponentiations "
                 "use the cached fixed-base tables")
    include_parts = ("crypto", "core")
    exempt_names = ("backend.py", "fastexp.py", "modular.py", "groups.py")

    def check(self, context: FileContext) -> Iterator[Violation]:
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call):
                continue
            if not (isinstance(node.func, ast.Name)
                    and node.func.id == "pow"
                    and len(node.args) == 3):
                continue
            base = terminal_name(node.args[0])
            if base is not None and base.lower() in BASE_NAMES:
                yield self.violation(
                    context, node,
                    "raw pow() on commitment base `%s`; use the fastexp "
                    "fixed-base tables (GroupParameters.exp_z1/exp_z2 or "
                    "fixed_base_table(...).pow)" % base)
