"""Command-line interface for dmwlint.

Usage::

    python -m repro.lint                   # src + benchmarks/examples
    python -m repro.lint src/              # lint one tree, human output
    dmwlint --format json src/             # machine-readable report
    dmwlint --list-rules                   # rule catalog with invariants
    dmwlint --select DMW001,DMW007 src/    # run a subset

With no explicit paths, ``src`` is linted under every rule and
``benchmarks``/``examples`` (when present) under the relaxed set —
example code must still be deterministic (DMW001), but is not held to
protocol-internal rules.

Exit status: 0 when clean, 1 when violations or parse errors were found,
2 on usage errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional, Sequence

from .base import Rule
from .engine import LintReport, UsageError, run_paths
from .rules import ALL_RULES, RELAXED_RULES

#: Trees linted with the relaxed rule set when no paths are given.
RELAXED_SCOPE_DIRS = ("benchmarks", "examples")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dmwlint",
        description="DMW-aware static analysis: mechanically enforce the "
                    "paper invariants that no test or runtime check "
                    "covers (seeded randomness, the pluggable arithmetic "
                    "backend, event-loop and pool-worker hygiene).")
    parser.add_argument("paths", nargs="*", default=None,
                        help="files or directories to lint (default: src "
                             "under every rule, plus benchmarks/ and "
                             "examples/ under the relaxed set)")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text",
                        help="output format (default: text)")
    parser.add_argument("--select", metavar="RULES", default=None,
                        help="comma-separated rule ids to run "
                             "(e.g. DMW001,DMW007)")
    parser.add_argument("--ignore", metavar="RULES", default=None,
                        help="comma-separated rule ids to skip")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalog and exit")
    return parser


def _parse_rule_ids(flag: str, tokens: str) -> List[str]:
    wanted = sorted({token.strip().upper()
                     for token in tokens.split(",") if token.strip()})
    known = {rule.rule_id for rule in ALL_RULES}
    unknown = [rule_id for rule_id in wanted if rule_id not in known]
    if unknown:
        raise UsageError("dmwlint: unknown rule id(s) in %s: %s"
                         % (flag, ", ".join(unknown)))
    return wanted


def _resolve_rules(select: Optional[str],
                   ignore: Optional[str]) -> List[Rule]:
    rules = list(ALL_RULES)
    if select:
        wanted = set(_parse_rule_ids("--select", select))
        rules = [rule for rule in rules if rule.rule_id in wanted]
    if ignore:
        dropped = set(_parse_rule_ids("--ignore", ignore))
        rules = [rule for rule in rules if rule.rule_id not in dropped]
    return rules


def _render_rule_catalog() -> str:
    lines = ["dmwlint rule catalog", "====================", ""]
    for rule in ALL_RULES:
        scope = ("/".join(rule.include_parts)
                 if rule.include_parts else "everywhere")
        lines.append("%s (scope: %s)" % (rule.rule_id, scope))
        lines.append("  %s" % rule.description)
        lines.append("  invariant: %s" % rule.invariant)
        if rule.exempt_names:
            lines.append("  exempt files: %s" % ", ".join(rule.exempt_names))
        lines.append("")
    return "\n".join(lines)


def _run_default_scope(rules: List[Rule]) -> LintReport:
    """No explicit paths: src under ``rules``, example trees relaxed."""
    report = run_paths(["src"], rules)
    selected = {rule.rule_id for rule in rules}
    relaxed = [rule for rule in RELAXED_RULES if rule.rule_id in selected]
    for directory in RELAXED_SCOPE_DIRS:
        if relaxed and os.path.isdir(directory):
            report.merge(run_paths([directory], relaxed))
    return report


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.list_rules:
        print(_render_rule_catalog())
        return 0
    try:
        rules = _resolve_rules(args.select, args.ignore)
        if args.paths:
            report = run_paths(args.paths, rules)
        else:
            report = _run_default_scope(rules)
    except UsageError as error:
        print(error, file=sys.stderr)
        return 2
    if args.format == "json":
        print(report.render_json())
    else:
        print(report.render_human())
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
