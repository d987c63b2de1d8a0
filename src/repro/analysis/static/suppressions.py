"""Suppression comments for dmwlint.

Two forms are recognized, mirroring pylint's comment idiom:

* **Line suppression** — a trailing comment on the violating line::

      x = random.random()  # dmwlint: disable=DMW001
      y = pow(b, e, m)     # dmwlint: disable=DMW001,DMW007
      ACTIVE = backend     # dmwlint: disable=all

  The suppression applies to that physical line only.

* **File suppression** — a standalone comment anywhere in the file::

      # dmwlint: disable-file=DMW007

  The listed rules are disabled for the whole file.

Rule lists are comma-separated; ``all`` disables every rule.  Matching is
case-insensitive on the ``dmwlint`` keyword but rule ids must be given in
canonical upper-case form (``DMW001``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Set

from .base import Violation

_LINE_RE = re.compile(
    r"#\s*dmwlint:\s*disable\s*=\s*([A-Za-z0-9_,\s]+)", re.IGNORECASE)
_FILE_RE = re.compile(
    r"#\s*dmwlint:\s*disable-file\s*=\s*([A-Za-z0-9_,\s]+)", re.IGNORECASE)

#: Sentinel rule id meaning "every rule".
ALL = "all"


def _parse_rule_list(raw: str) -> FrozenSet[str]:
    rules: Set[str] = set()
    for token in raw.split(","):
        token = token.strip()
        if not token:
            continue
        if token.lower() == ALL:
            rules.add(ALL)
        else:
            rules.add(token.upper())
    return frozenset(rules)


@dataclass
class Suppressions:
    """Parsed suppression directives for one file."""

    #: line number (1-based) -> rule ids disabled on that line.
    by_line: Dict[int, FrozenSet[str]] = field(default_factory=dict)
    #: rule ids disabled for the entire file.
    file_wide: FrozenSet[str] = frozenset()

    def is_suppressed(self, violation: Violation) -> bool:
        if ALL in self.file_wide or violation.rule_id in self.file_wide:
            return True
        line_rules = self.by_line.get(violation.line)
        if line_rules is None:
            return False
        return ALL in line_rules or violation.rule_id in line_rules


def parse_suppressions(source: str) -> Suppressions:
    """Extract all suppression directives from ``source``."""
    by_line: Dict[int, FrozenSet[str]] = {}
    file_wide: Set[str] = set()
    for lineno, line in enumerate(source.splitlines(), start=1):
        if "dmwlint" not in line:
            continue
        file_match = _FILE_RE.search(line)
        if file_match:
            file_wide.update(_parse_rule_list(file_match.group(1)))
            continue
        line_match = _LINE_RE.search(line)
        if line_match:
            existing = by_line.get(lineno, frozenset())
            by_line[lineno] = existing | _parse_rule_list(line_match.group(1))
    return Suppressions(by_line=by_line, file_wide=frozenset(file_wide))
