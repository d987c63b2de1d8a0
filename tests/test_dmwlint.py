"""Tests for dmwlint: engine, suppressions, CLI, and the golden fixtures.

Each rule gets a (violating, clean, suppressed) triple from
``tests/fixtures/dmwlint/``; the fixtures are linted under a synthetic path
that activates the rule's path scope.  A final test asserts the repo's own
``src/`` tree lints clean — the acceptance criterion of the tooling.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.analysis.static import (
    ALL_RULES,
    DEFAULT_RULES,
    lint_source,
    parse_suppressions,
    rule_by_id,
    run_paths,
)
from repro.analysis.static.cli import main as lint_main

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "fixtures", "dmwlint")
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Synthetic lint path per rule: must fall inside the rule's path scope.
SCOPE_PATHS = {
    "DMW001": "src/repro/core/fixture.py",
    "DMW002": "src/repro/crypto/fixture.py",
    "DMW003": "src/repro/crypto/fixture.py",
    "DMW004": "src/repro/core/fixture.py",
    "DMW005": "src/repro/network/fixture.py",
    "DMW006": "src/repro/crypto/fixture.py",
    "DMW007": "src/repro/crypto/fixture.py",
    "DMW008": "src/repro/core/agent.py",
    "DMW010": "src/repro/network/fixture.py",
    "DMW011": "src/repro/parallel.py",
}

RULE_IDS = sorted(SCOPE_PATHS)


def _fixture_source(rule_id: str, kind: str) -> str:
    name = "%s_%s.py" % (rule_id.lower(), kind)
    with open(os.path.join(FIXTURE_DIR, name), "r", encoding="utf-8") as fh:
        return fh.read()


def _lint_fixture(rule_id: str, kind: str):
    rule = rule_by_id(rule_id)
    source = _fixture_source(rule_id, kind)
    return lint_source(SCOPE_PATHS[rule_id], source, [rule])


class TestGoldenFixtures:
    @pytest.mark.parametrize("rule_id", RULE_IDS)
    def test_violating_fixture_is_caught(self, rule_id):
        report = _lint_fixture(rule_id, "violating")
        assert report.violations, "expected %s to fire" % rule_id
        assert all(v.rule_id == rule_id for v in report.violations)
        # Violations carry usable positions and messages.
        for violation in report.violations:
            assert violation.line > 0
            assert violation.message

    @pytest.mark.parametrize("rule_id", RULE_IDS)
    def test_clean_fixture_passes(self, rule_id):
        report = _lint_fixture(rule_id, "clean")
        assert report.ok, [v.format_human() for v in report.violations]
        assert report.suppressed_count == 0

    @pytest.mark.parametrize("rule_id", RULE_IDS)
    def test_suppressed_fixture_is_silenced_and_counted(self, rule_id):
        report = _lint_fixture(rule_id, "suppressed")
        assert report.ok, [v.format_human() for v in report.violations]
        assert report.suppressed_count >= 1

    @pytest.mark.parametrize("rule_id", RULE_IDS)
    def test_violating_fixture_out_of_scope_is_ignored(self, rule_id):
        rule = rule_by_id(rule_id)
        if not rule.include_parts:
            pytest.skip("%s applies everywhere" % rule_id)
        source = _fixture_source(rule_id, "violating")
        report = lint_source("scripts/unscoped_helper.py", source, [rule])
        assert report.ok


def _violation(rule_id, line):
    from repro.analysis.static.base import Violation
    return Violation(rule_id=rule_id, path="x.py", line=line, col=0,
                     message="test")


class TestSuppressions:
    def test_line_suppression_parses_rule_ids(self):
        source = "x = 1  # dmwlint: disable=DMW001,DMW006\n"
        suppressions = parse_suppressions(source)
        assert suppressions.is_suppressed(_violation("DMW001", 1))
        assert suppressions.is_suppressed(_violation("DMW006", 1))
        assert not suppressions.is_suppressed(_violation("DMW002", 1))
        assert not suppressions.is_suppressed(_violation("DMW001", 2))

    def test_file_wide_suppression(self):
        source = ("# dmwlint: disable-file=DMW003\n"
                  "share_total = share_a + share_b\n")
        rule = rule_by_id("DMW003")
        report = lint_source("src/repro/crypto/fixture.py", source, [rule])
        assert report.ok
        assert report.suppressed_count == 1

    def test_unrelated_comment_is_not_a_suppression(self):
        source = "value = 1  # disables nothing: dmwlint is great\n"
        suppressions = parse_suppressions(source)
        assert not suppressions.is_suppressed(_violation("DMW001", 1))


class TestEngine:
    def test_parse_error_reported_not_raised(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def broken(:\n")
        report = run_paths([str(tmp_path)], DEFAULT_RULES)
        assert not report.ok
        assert report.parse_errors
        assert report.files_checked == 1

    def test_json_report_schema(self):
        source = "import random\nrandom.random()\n"
        report = lint_source("src/repro/core/fixture.py", source,
                             [rule_by_id("DMW001")])
        payload = json.loads(report.render_json())
        assert payload["version"] == 1
        assert payload["tool"] == "dmwlint"
        assert payload["violation_count"] == 1
        violation = payload["violations"][0]
        assert violation["rule"] == "DMW001"
        assert violation["line"] == 2

    def test_rule_catalog_is_complete(self):
        ids = [rule.rule_id for rule in ALL_RULES]
        assert ids == sorted(ids)
        assert set(RULE_IDS) <= set(ids)
        # DMW000 exists but is opt-in.
        dmw000 = rule_by_id("DMW000")
        assert not dmw000.default_enabled
        assert dmw000 not in DEFAULT_RULES
        for rule in ALL_RULES:
            assert rule.description
            assert rule.invariant


class TestCli:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        good = tmp_path / "ok.py"
        good.write_text("VALUE = 1\n")
        assert lint_main([str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "1 file(s) checked" in out

    def test_violations_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "src" / "repro" / "core" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import random\nrandom.random()\n")
        assert lint_main([str(bad)]) == 1
        assert "DMW001" in capsys.readouterr().out

    def test_select_unknown_rule_exits_two(self, capsys):
        assert lint_main(["--select", "DMW999", "."]) == 2

    def test_json_format(self, tmp_path, capsys):
        good = tmp_path / "ok.py"
        good.write_text("VALUE = 1\n")
        assert lint_main(["--format", "json", str(tmp_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["tool"] == "dmwlint"

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in RULE_IDS:
            assert rule_id in out

    def test_module_entry_point(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro.lint", "--list-rules"],
            cwd=REPO_ROOT, capture_output=True, text=True,
            env={**os.environ,
                 "PYTHONPATH": os.path.join(REPO_ROOT, "src")})
        assert result.returncode == 0
        assert "DMW001" in result.stdout


class TestRepoIsClean:
    def test_src_tree_lints_clean(self):
        """Acceptance criterion: `python -m repro.lint src/` exits 0."""
        report = run_paths([os.path.join(REPO_ROOT, "src")], DEFAULT_RULES)
        assert report.ok, "\n" + report.render_human()

    def test_src_tree_annotation_gate(self):
        """DMW000 (mypy --strict approximation) on crypto/core/network."""
        rules = [rule_by_id("DMW000")]
        paths = [os.path.join(REPO_ROOT, "src", "repro", part)
                 for part in ("crypto", "core", "network")]
        report = run_paths(paths, rules)
        assert report.ok, "\n" + report.render_human()
