"""dmwlint — DMW-aware static analysis.

The DMW mechanism's guarantees rest on invariants the Python type system
cannot see.  Most of them are enforced where they can fail: the tier-1
tests, the runtime ``DMW_SANITIZE=1`` secret sanitizer and ``mypy
--strict``.  This package implements an AST-based lint engine with the
four domain rules that nothing else enforces: seeded randomness
(DMW001), the pluggable arithmetic backend (DMW007), a free event loop
(DMW010) and pure pool-worker tasks (DMW011).

Two kinds of rules run over one shared parse per file: per-file rules
(:class:`Rule`) see a single :class:`FileContext`; whole-program rules
(:class:`ProjectRule`) see a project context carrying a module resolver
and call graph, which is how DMW010 and DMW011 follow a call one hop
below a coroutine or through the closure of a pool task.

Entry points
------------
* ``python -m repro.lint src/`` — module runner.
* ``dmwlint src/`` — console script (see ``pyproject.toml``).
* :func:`run_paths` — programmatic API.

Rules can be suppressed per line with ``# dmwlint: disable=DMW001`` (or
``disable=all``) and per file with a ``# dmwlint: disable-file=DMW001``
comment anywhere in the file.  See ``docs/STATIC_ANALYSIS.md`` for the
rule catalog and the paper invariant each rule protects.
"""

from __future__ import annotations

from .base import FileContext, ProjectRule, Rule, Violation
from .engine import (
    LintReport,
    UsageError,
    discover_files,
    lint_source,
    run_paths,
)
from .rules import ALL_RULES, rule_by_id
from .suppressions import parse_suppressions

__all__ = [
    "ALL_RULES",
    "FileContext",
    "LintReport",
    "ProjectRule",
    "Rule",
    "UsageError",
    "Violation",
    "discover_files",
    "lint_source",
    "parse_suppressions",
    "rule_by_id",
    "run_paths",
]
