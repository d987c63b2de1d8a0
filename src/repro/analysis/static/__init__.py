"""dmwlint — DMW-aware static analysis.

The DMW mechanism's guarantees rest on invariants the Python type system
cannot see: losing bids must stay secret below the collusion threshold
``c``, transcripts must be bit-identical across reruns, and all field
arithmetic must stay in ``Z_p``/``Z_q``.  This package implements an
AST-based lint engine with domain rules (``DMW001``–``DMW011``) that
mechanically enforce those invariants on every PR.

Two kinds of rules run over one shared parse per file: per-file rules
(:class:`Rule`) see a single :class:`FileContext`; whole-program rules
(:class:`ProjectRule`) see a :class:`ProjectContext` carrying a module
resolver, call graph, and interprocedural taint summaries — which is
how DMW004 follows a secret through a cross-module helper chain and how
DMW010 and DMW011 check async safety and pool-shared state.

Entry points
------------
* ``python -m repro.lint src/`` — module runner.
* ``dmwlint src/`` — console script (see ``pyproject.toml``).
* :func:`run_paths` — programmatic API.

Rules can be suppressed per line with ``# dmwlint: disable=DMW001`` (or
``disable=all``) and per file with a ``# dmwlint: disable-file=DMW001``
comment anywhere in the file.  ``--baseline`` subtracts a committed set
of accepted findings (the ratchet); ``--format sarif`` exports SARIF
2.1.0 for code-scanning backends.  See ``docs/STATIC_ANALYSIS.md`` for
the rule catalog and the paper invariant each rule protects.
"""

from __future__ import annotations

from .base import FileContext, ProjectRule, Rule, Violation
from .baseline import (
    BaselineError,
    apply_baseline,
    load_baseline,
    render_baseline,
    write_baseline,
)
from .engine import (
    LintReport,
    UsageError,
    discover_files,
    lint_file,
    lint_source,
    run_paths,
)
from .project import ProjectContext
from .rules import ALL_RULES, DEFAULT_RULES, RELAXED_RULES, rule_by_id
from .sarif import render_sarif, to_sarif
from .suppressions import Suppressions, parse_suppressions

__all__ = [
    "ALL_RULES",
    "BaselineError",
    "DEFAULT_RULES",
    "FileContext",
    "LintReport",
    "ProjectContext",
    "ProjectRule",
    "RELAXED_RULES",
    "Rule",
    "Suppressions",
    "UsageError",
    "Violation",
    "apply_baseline",
    "discover_files",
    "lint_file",
    "lint_source",
    "load_baseline",
    "parse_suppressions",
    "render_baseline",
    "render_sarif",
    "rule_by_id",
    "run_paths",
    "to_sarif",
    "write_baseline",
]
