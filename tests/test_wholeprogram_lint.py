"""Acceptance tests for the whole-program dmwlint layer.

Covers the cross-file capabilities the per-file engine cannot express:
the interprocedural DMW004 taint pass (asserted both ways against the
intra-function pass), the default rule set, SARIF 2.1.0 export, the
baseline ratchet, the parallel per-file pass, and the new CLI surface.
The protocol's round schedule is checked at runtime instead
(``tests/test_rounds.py``).
"""

import ast
import json
import os

import pytest

from repro.analysis.static import (
    DEFAULT_RULES,
    UsageError,
    discover_files,
    lint_source,
    rule_by_id,
    run_paths,
    to_sarif,
)
from repro.analysis.static.base import FileContext, Violation
from repro.analysis.static.baseline import (
    BaselineError,
    apply_baseline,
    fingerprint_violations,
    load_baseline,
    write_baseline,
)
from repro.analysis.static.cli import main as lint_main

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURE_DIR = os.path.join(REPO_ROOT, "tests", "fixtures", "dmwlint")
PROJECT_FIXTURES = os.path.join(FIXTURE_DIR, "project_dmw004")


def _read(path):
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


class TestInterproceduralTaint:
    """The two-hop cross-module leak, asserted both ways."""

    def test_intra_pass_provably_misses_the_leak(self):
        rule = rule_by_id("DMW004")
        for name in ("handler.py", "relay.py", "audit.py"):
            path = os.path.join(PROJECT_FIXTURES, "violating", "core", name)
            source = _read(path)
            context = FileContext(path=path, source=source,
                                  tree=ast.parse(source))
            assert list(rule.check(context)) == [], (
                "intra-function pass unexpectedly caught %s" % name)

    def test_project_pass_catches_the_leak(self):
        rule = rule_by_id("DMW004")
        report = run_paths([os.path.join(PROJECT_FIXTURES, "violating")],
                           [rule])
        assert len(report.violations) == 1
        violation = report.violations[0]
        assert violation.rule_id == "DMW004"
        assert "interprocedural" in violation.message
        assert "`bid`" in violation.message
        assert "relay_amount" in violation.message
        assert "emit_record" in violation.message
        assert violation.path.endswith("handler.py")

    def test_declassified_chain_is_clean(self):
        rule = rule_by_id("DMW004")
        report = run_paths([os.path.join(PROJECT_FIXTURES, "clean")], [rule])
        assert report.ok, "\n" + report.render_human()


class TestProtocolFlowOnRealSource:
    def test_default_rule_set_has_eleven_rules(self):
        """Ten default rules remain: DMW009's protocol-flow check moved to
        the driver's runtime barrier check, and the others keep their
        ids."""
        assert [rule.rule_id for rule in DEFAULT_RULES] == [
            "DMW001", "DMW002", "DMW003", "DMW004", "DMW005", "DMW006",
            "DMW007", "DMW008", "DMW010", "DMW011"]


class TestSarif:
    def _violating_report(self):
        return lint_source("src/repro/core/fixture.py",
                           "import random\nrandom.random()\n",
                           [rule_by_id("DMW001")])

    def test_required_property_shape(self):
        report = self._violating_report()
        rules = [rule_by_id("DMW001")]
        log = to_sarif(report, rules)
        assert log["version"] == "2.1.0"
        assert log["$schema"].endswith("sarif-schema-2.1.0.json")
        assert len(log["runs"]) == 1
        run = log["runs"][0]
        driver = run["tool"]["driver"]
        assert driver["name"] == "dmwlint"
        assert driver["rules"][0]["id"] == "DMW001"
        assert driver["rules"][0]["shortDescription"]["text"]
        assert len(run["results"]) == 1
        result = run["results"][0]
        assert result["ruleId"] == "DMW001"
        assert result["ruleIndex"] == 0
        assert result["level"] == "error"
        assert result["message"]["text"]
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"].endswith("fixture.py")
        assert location["region"]["startLine"] == 2
        assert location["region"]["startColumn"] >= 1
        assert result["partialFingerprints"]
        assert run["invocations"][0]["executionSuccessful"] is True

    def test_round_trips_through_json(self):
        report = self._violating_report()
        rules = [rule_by_id("DMW001")]
        rendered = json.dumps(to_sarif(report, rules))
        assert json.loads(rendered)["version"] == "2.1.0"

    def test_fingerprints_match_the_baseline_scheme(self):
        report = self._violating_report()
        log = to_sarif(report, [rule_by_id("DMW001")])
        sarif_fp = log["runs"][0]["results"][0]["partialFingerprints"]
        (_, digest), = fingerprint_violations(report.sorted_violations())
        assert sarif_fp == {"dmwlintFingerprint/v1": digest}

    def test_parse_errors_become_notifications(self):
        report = lint_source("src/broken.py", "def broken(:\n",
                             [rule_by_id("DMW001")])
        log = to_sarif(report, [rule_by_id("DMW001")])
        invocation = log["runs"][0]["invocations"][0]
        assert invocation["executionSuccessful"] is False
        assert invocation["toolExecutionNotifications"]


class TestBaseline:
    def _report(self):
        return lint_source("src/repro/core/fixture.py",
                           "import random\nrandom.random()\n",
                           [rule_by_id("DMW001")])

    def test_round_trip_swallows_known_findings(self, tmp_path):
        report = self._report()
        baseline_path = str(tmp_path / "baseline.json")
        assert write_baseline(report, baseline_path) == 1
        assert len(load_baseline(baseline_path)) == 1
        fresh = self._report()
        apply_baseline(fresh, baseline_path)
        assert fresh.ok
        assert fresh.baselined_count == 1
        assert "1 baselined" in fresh.render_human()

    def test_new_finding_still_fails(self, tmp_path):
        baseline_path = str(tmp_path / "baseline.json")
        write_baseline(self._report(), baseline_path)
        grown = lint_source(
            "src/repro/core/fixture.py",
            "import random\nrandom.random()\nrandom.randint(0, 9)\n",
            [rule_by_id("DMW001")])
        apply_baseline(grown, baseline_path)
        assert not grown.ok
        assert len(grown.violations) == 1
        assert grown.baselined_count == 1

    def test_fingerprints_ignore_line_shifts(self):
        a = Violation(rule_id="DMW001", path="src/x.py", line=3, col=0,
                      message="same finding")
        b = Violation(rule_id="DMW001", path="src/x.py", line=30, col=4,
                      message="same finding")
        (_, fp_a), = fingerprint_violations([a])
        (_, fp_b), = fingerprint_violations([b])
        assert fp_a == fp_b

    def test_duplicate_findings_get_distinct_fingerprints(self):
        a = Violation(rule_id="DMW001", path="src/x.py", line=3, col=0,
                      message="same finding")
        b = Violation(rule_id="DMW001", path="src/x.py", line=9, col=0,
                      message="same finding")
        pairs = fingerprint_violations([a, b])
        assert pairs[0][1] != pairs[1][1]

    def test_missing_baseline_raises(self, tmp_path):
        with pytest.raises(BaselineError):
            load_baseline(str(tmp_path / "absent.json"))

    def test_malformed_baseline_raises(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"version\": 99}")
        with pytest.raises(BaselineError):
            load_baseline(str(bad))


class TestParallelJobs:
    def test_jobs_report_matches_serial(self):
        serial = run_paths([FIXTURE_DIR], DEFAULT_RULES, jobs=1)
        parallel = run_paths([FIXTURE_DIR], DEFAULT_RULES, jobs=2)

        def keyed(report):
            return [(v.path, v.line, v.col, v.rule_id, v.message)
                    for v in report.sorted_violations()]

        assert keyed(serial) == keyed(parallel)
        assert serial.files_checked == parallel.files_checked
        assert serial.suppressed_count == parallel.suppressed_count
        assert serial.violations, "fixture tree should produce findings"


class TestDiscovery:
    def test_unknown_path_raises_usage_error(self):
        with pytest.raises(UsageError):
            discover_files(["definitely/not/a/path.py"])

    def test_cli_unknown_path_exits_two(self, capsys):
        assert lint_main(["definitely/not/a/path.py"]) == 2
        assert "does not exist" in capsys.readouterr().err


class TestCliSurface:
    def test_ignore_unknown_rule_exits_two(self, tmp_path, capsys):
        good = tmp_path / "ok.py"
        good.write_text("VALUE = 1\n")
        assert lint_main(["--ignore", "DMW999", str(tmp_path)]) == 2
        assert "DMW999" in capsys.readouterr().err

    def test_ignore_drops_rule(self, tmp_path, capsys):
        bad = tmp_path / "src" / "repro" / "core" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import random\nrandom.random()\n")
        assert lint_main(["--ignore", "DMW001", str(bad)]) == 0
        capsys.readouterr()

    def test_jobs_zero_exits_two(self, capsys):
        assert lint_main(["--jobs", "0", "."]) == 2
        capsys.readouterr()

    def test_sarif_format(self, tmp_path, capsys):
        bad = tmp_path / "src" / "repro" / "core" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import random\nrandom.random()\n")
        assert lint_main(["--format", "sarif", str(bad)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == "2.1.0"
        assert payload["runs"][0]["results"][0]["ruleId"] == "DMW001"

    def test_write_then_apply_baseline(self, tmp_path, capsys):
        bad = tmp_path / "src" / "repro" / "core" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import random\nrandom.random()\n")
        baseline = str(tmp_path / "baseline.json")
        assert lint_main(["--write-baseline", baseline, str(bad)]) == 0
        capsys.readouterr()
        assert lint_main(["--baseline", baseline, str(bad)]) == 0
        assert "1 baselined" in capsys.readouterr().out
        # A new finding is not absorbed by the baseline.
        bad.write_text("import random\nrandom.random()\n"
                       "random.randint(0, 9)\n")
        assert lint_main(["--baseline", baseline, str(bad)]) == 1
        capsys.readouterr()

    def test_default_scope_covers_example_trees(self, tmp_path, monkeypatch,
                                                capsys):
        core = tmp_path / "src" / "repro" / "core"
        core.mkdir(parents=True)
        (core / "bad.py").write_text("import random\nrandom.random()\n")
        bench = tmp_path / "benchmarks"
        bench.mkdir()
        (bench / "bench.py").write_text("import random\nrandom.random()\n")
        monkeypatch.chdir(tmp_path)
        assert lint_main([]) == 1
        out = capsys.readouterr().out
        assert "src" in out and "benchmarks" in out
        assert out.count("DMW001") == 2

    def test_repo_baseline_is_empty_and_loadable(self):
        path = os.path.join(REPO_ROOT, "dmwlint-baseline.json")
        assert load_baseline(path) == {}
