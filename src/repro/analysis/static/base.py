"""Rule framework for dmwlint: violations, file context, visitor base.

A :class:`Rule` owns a stable identifier (``DMW00x``), a one-line
description, the *paper invariant* it protects (surfaced in ``--list-rules``
and in ``docs/STATIC_ANALYSIS.md``), and path scoping: ``include_parts``
restricts the rule to files whose path contains one of the given directory
names, ``exempt_names`` exempts specific file names (e.g. the module that
legitimately implements the guarded primitive).

Rules are written against :class:`FileContext`, which bundles the parsed
AST, raw source, and module-relative path, so each rule stays a pure
function from file to violations.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Any, Iterator, List, Optional, Tuple


@dataclass(frozen=True)
class Violation:
    """One rule violation at a specific source location."""

    rule_id: str
    path: str
    line: int
    col: int
    message: str

    def format_human(self) -> str:
        return "%s:%d:%d: %s %s" % (self.path, self.line, self.col + 1,
                                    self.rule_id, self.message)

    def to_dict(self) -> dict:
        return {
            "rule": self.rule_id,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


@dataclass
class FileContext:
    """Everything a rule needs to know about one source file."""

    path: str
    source: str
    tree: ast.Module

    @property
    def normalized_path(self) -> str:
        return self.path.replace("\\", "/")

    @property
    def filename(self) -> str:
        return self.normalized_path.rsplit("/", 1)[-1]

    @property
    def parts(self) -> Tuple[str, ...]:
        return tuple(p for p in self.normalized_path.split("/") if p)


class Rule:
    """Base class for all dmwlint rules.

    Subclasses set the class attributes and implement :meth:`check`.

    Attributes
    ----------
    rule_id:
        Stable identifier, e.g. ``"DMW001"``.
    description:
        One-line summary shown in reports.
    invariant:
        The paper-level invariant the rule protects (for the catalog).
    include_parts:
        Directory names the file path must contain for the rule to apply
        (empty tuple = applies everywhere).
    exempt_names:
        File names exempt from the rule (modules that legitimately
        implement the guarded primitive).
    """

    rule_id: str = ""
    description: str = ""
    invariant: str = ""
    include_parts: Tuple[str, ...] = ()
    exempt_names: Tuple[str, ...] = ()

    def applies_to(self, context: FileContext) -> bool:
        if context.filename in self.exempt_names:
            return False
        if not self.include_parts:
            return True
        parts = context.parts
        return any(part in parts for part in self.include_parts)

    def check(self, context: FileContext) -> Iterator[Violation]:
        raise NotImplementedError

    def violation(self, context: FileContext, node: ast.AST,
                  message: str) -> Violation:
        return Violation(
            rule_id=self.rule_id,
            path=context.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


class ProjectRule(Rule):
    """Base class for whole-program rules.

    Project rules run once per lint invocation over a
    :class:`~repro.analysis.static.project.ProjectContext` holding every
    parsed file, instead of once per file; they are how call-graph
    properties (a blocking helper one hop below a coroutine, a module
    write reachable from a pool task) become lintable.  ``check``
    defaults to producing nothing so a project rule slots into the
    per-file pass as a no-op.

    ``check_project`` must itself honor path scoping by only reporting
    violations whose file satisfies :meth:`Rule.applies_to` — the engine
    cannot pre-filter, because a project rule may need out-of-scope
    files (helpers a pool task calls) to analyze in-scope ones.
    """

    def check(self, context: FileContext) -> Iterator[Violation]:
        return iter(())

    def check_project(self, project: Any) -> Iterator[Violation]:
        """Yield violations computed over the whole project.

        ``project`` is a
        :class:`~repro.analysis.static.project.ProjectContext` (typed
        loosely here to keep ``base`` free of circular imports).
        """
        raise NotImplementedError


def dotted_name(node: ast.AST) -> Optional[str]:
    """Render a Name/Attribute chain as ``a.b.c``, else None."""
    parts: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return ".".join(reversed(parts))
    return None
