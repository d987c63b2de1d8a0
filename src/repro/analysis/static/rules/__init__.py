"""Rule registry for dmwlint.

``DEFAULT_RULES`` are the domain rules that run by default;
``ALL_RULES`` additionally contains opt-in rules (``DMW000`` strict
annotation coverage, enabled via ``--check-annotations`` or ``--select``).
``RELAXED_RULES`` is the reduced set applied to benchmarks/ and
examples/ when the CLI widens its default scope: those trees drive the
protocol from outside, so only the rules whose invariants hold anywhere
(seeded randomness DMW001, exact arithmetic DMW006) apply there.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Type

from ..base import Rule
from .dmw000_annotations import AnnotationCoverageRule
from .dmw001_global_random import GlobalRandomRule
from .dmw002_raw_pow import RawPowOnBaseRule
from .dmw003_unreduced_field import UnreducedFieldArithmeticRule
from .dmw004_secret_taint import SecretTaintRule
from .dmw005_post_send_mutation import PostSendMutationRule
from .dmw006_float_in_crypto import FloatInCryptoRule
from .dmw007_backend_bypass import BackendBypassRule
from .dmw008_agent_network_access import AgentNetworkAccessRule
from .dmw010_async_blocking import AsyncBlockingRule
from .dmw011_pool_globals import PoolSharedStateRule

RULE_CLASSES: List[Type[Rule]] = [
    AnnotationCoverageRule,
    GlobalRandomRule,
    RawPowOnBaseRule,
    UnreducedFieldArithmeticRule,
    SecretTaintRule,
    PostSendMutationRule,
    FloatInCryptoRule,
    BackendBypassRule,
    AgentNetworkAccessRule,
    AsyncBlockingRule,
    PoolSharedStateRule,
]

ALL_RULES: List[Rule] = [cls() for cls in RULE_CLASSES]

DEFAULT_RULES: List[Rule] = [r for r in ALL_RULES if r.default_enabled]

#: Rules safe on example/benchmark code (no protocol-internal scoping).
RELAXED_RULE_IDS = ("DMW001", "DMW006")

RELAXED_RULES: List[Rule] = [r for r in ALL_RULES
                             if r.rule_id in RELAXED_RULE_IDS]

_BY_ID: Dict[str, Rule] = {rule.rule_id: rule for rule in ALL_RULES}


def rule_by_id(rule_id: str) -> Optional[Rule]:
    """Look up a rule instance by its canonical id (``DMW003``)."""
    return _BY_ID.get(rule_id.upper())


__all__ = [
    "ALL_RULES",
    "DEFAULT_RULES",
    "RELAXED_RULES",
    "RELAXED_RULE_IDS",
    "RULE_CLASSES",
    "rule_by_id",
]
