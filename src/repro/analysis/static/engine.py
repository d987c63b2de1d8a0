"""The dmwlint engine: file discovery, rule execution, reporting.

The engine is a pure function from (paths, rules) to a
:class:`LintReport`; all I/O (reading files, walking directories) happens
here so the rules stay testable on in-memory source strings.

Two passes share one parse per file:

* the **file pass** runs every rule's per-file ``check`` on each
  :class:`FileContext`;
* the **project pass** hands all contexts at once to each
  :class:`~repro.analysis.static.base.ProjectRule` via a
  :class:`~repro.analysis.static.project.ProjectContext`, which is how
  the call-graph rules (DMW010, DMW011) see the whole program.

Suppressions apply uniformly: a ``# dmwlint: disable=...`` comment
silences project-pass findings on its line exactly like file-pass ones,
and every suppression is counted, never silent.
"""

from __future__ import annotations

import ast
import json
import os
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

from .base import FileContext, ProjectRule, Rule, Violation
from .suppressions import parse_suppressions

#: Directory names never descended into during discovery.
SKIP_DIRS = {".git", "__pycache__", ".mypy_cache", ".ruff_cache",
             "build", "dist", ".eggs"}


class UsageError(Exception):
    """A caller error (unknown path, bad flag value) — CLI exit status 2."""


@dataclass
class LintReport:
    """Aggregated result of one lint run."""

    violations: List[Violation] = field(default_factory=list)
    files_checked: int = 0
    suppressed_count: int = 0
    parse_errors: List[Tuple[str, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations and not self.parse_errors

    def sorted_violations(self) -> List[Violation]:
        return sorted(self.violations,
                      key=lambda v: (v.path, v.line, v.col, v.rule_id))

    def render_human(self) -> str:
        lines = [v.format_human() for v in self.sorted_violations()]
        for path, error in self.parse_errors:
            lines.append("%s: PARSE-ERROR %s" % (path, error))
        lines.append("dmwlint: %d file(s) checked, %d violation(s), "
                     "%d suppressed" % (self.files_checked,
                                        len(self.violations),
                                        self.suppressed_count))
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "version": 1,
            "tool": "dmwlint",
            "files_checked": self.files_checked,
            "violation_count": len(self.violations),
            "suppressed_count": self.suppressed_count,
            "violations": [v.to_dict() for v in self.sorted_violations()],
            "parse_errors": [
                {"path": path, "error": error}
                for path, error in self.parse_errors
            ],
        }

    def render_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def merge(self, other: "LintReport") -> None:
        self.violations.extend(other.violations)
        self.files_checked += other.files_checked
        self.suppressed_count += other.suppressed_count
        self.parse_errors.extend(other.parse_errors)


def _parse_context(path: str,
                   source: str) -> Tuple[Optional[FileContext],
                                         Optional[Tuple[str, str]]]:
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as error:
        return None, (path, str(error))
    return FileContext(path=path, source=source, tree=tree), None


def _file_pass(context: FileContext,
               rules: Sequence[Rule]) -> List[Violation]:
    raw: List[Violation] = []
    for rule in rules:
        if rule.applies_to(context):
            raw.extend(rule.check(context))
    return raw


def _project_pass(contexts: List[FileContext],
                  rules: Sequence[Rule]) -> List[Violation]:
    project_rules = [rule for rule in rules
                     if isinstance(rule, ProjectRule)]
    if not project_rules or not contexts:
        return []
    # Imported lazily: project.py pulls in the call graph, which plain
    # per-file linting never needs.
    from .project import ProjectContext
    project = ProjectContext(contexts)
    raw: List[Violation] = []
    for rule in project_rules:
        raw.extend(rule.check_project(project))
    return raw


def _apply_suppressions(report: LintReport, raw: List[Violation],
                        contexts: List[FileContext]) -> None:
    suppressions = {context.path: parse_suppressions(context.source)
                    for context in contexts}
    kept: List[Violation] = []
    suppressed = 0
    for violation in raw:
        table = suppressions.get(violation.path)
        if table is not None and table.is_suppressed(violation):
            suppressed += 1
        else:
            kept.append(violation)
    report.violations.extend(kept)
    report.suppressed_count += suppressed


def lint_source(path: str, source: str,
                rules: Sequence[Rule]) -> LintReport:
    """Lint one in-memory source file against ``rules``.

    Runs both passes: project rules see a single-module project, so a
    whole-program rule is exercised the same way on one file as on a
    tree.
    """
    report = LintReport(files_checked=1)
    context, parse_error = _parse_context(path, source)
    if context is None:
        assert parse_error is not None
        report.parse_errors.append(parse_error)
        return report
    raw = _file_pass(context, rules)
    raw.extend(_project_pass([context], rules))
    _apply_suppressions(report, raw, [context])
    return report


def discover_files(paths: Iterable[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files.

    A path that is neither a file nor a directory raises
    :class:`UsageError` — a typo'd path must not silently report
    "0 files checked" and exit 0.
    """
    found: List[str] = []
    for path in paths:
        if os.path.isfile(path):
            if path.endswith(".py"):
                found.append(path)
        elif os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs[:] = sorted(d for d in dirs if d not in SKIP_DIRS)
                for name in sorted(files):
                    if name.endswith(".py"):
                        found.append(os.path.join(root, name))
        else:
            raise UsageError("dmwlint: path does not exist: %s" % path)
    return sorted(dict.fromkeys(found))


def run_paths(paths: Iterable[str],
              rules: Optional[Sequence[Rule]] = None) -> LintReport:
    """Lint every ``.py`` file under ``paths`` with ``rules``.

    ``rules`` defaults to ``ALL_RULES``.  Every file is parsed once; the
    file pass and the whole-program pass share the ASTs.
    """
    if rules is None:
        from .rules import ALL_RULES
        rules = ALL_RULES
    report = LintReport()
    contexts: List[FileContext] = []
    for path in discover_files(paths):
        report.files_checked += 1
        try:
            with open(path, "r", encoding="utf-8") as handle:
                source = handle.read()
        except OSError as error:
            report.parse_errors.append((path, str(error)))
            continue
        context, parse_error = _parse_context(path, source)
        if context is None:
            assert parse_error is not None
            report.parse_errors.append(parse_error)
            continue
        contexts.append(context)
        _apply_suppressions(report, _file_pass(context, rules), [context])
    _apply_suppressions(report, _project_pass(contexts, rules), contexts)
    return report
