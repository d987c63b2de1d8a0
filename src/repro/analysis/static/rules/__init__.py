"""Rule registry for dmwlint.

``ALL_RULES`` is the one rule list: each rule guards an invariant that
no test, runtime check or type checker enforces (see
``docs/STATIC_ANALYSIS.md``).  ``RELAXED_RULES`` is the reduced set
applied to benchmarks/ and examples/ when the CLI widens its default
scope: those trees drive the protocol from outside, so only seeded
randomness (DMW001) applies there.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..base import Rule
from .dmw001_global_random import GlobalRandomRule
from .dmw007_backend_bypass import BackendBypassRule
from .dmw010_async_blocking import AsyncBlockingRule
from .dmw011_pool_globals import PoolSharedStateRule

ALL_RULES: List[Rule] = [GlobalRandomRule(), BackendBypassRule(),
                         AsyncBlockingRule(), PoolSharedStateRule()]

#: Rules safe on example/benchmark code (no protocol-internal scoping).
RELAXED_RULES: List[Rule] = [r for r in ALL_RULES if r.rule_id == "DMW001"]

_BY_ID: Dict[str, Rule] = {rule.rule_id: rule for rule in ALL_RULES}


def rule_by_id(rule_id: str) -> Optional[Rule]:
    """Look up a rule instance by its canonical id (``DMW007``)."""
    return _BY_ID.get(rule_id.upper())


__all__ = [
    "ALL_RULES",
    "RELAXED_RULES",
    "rule_by_id",
]
