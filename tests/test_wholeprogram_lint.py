"""Tests for dmwlint's file discovery and command-line surface.

Covers what the per-rule fixtures in ``tests/test_dmwlint.py`` do not:
unknown paths and rule ids are usage errors, ``--ignore`` drops a rule,
the default rule sets hold the kept rules, and the default scope widens
to the example trees under the relaxed rule set.
"""

import pytest

from repro.analysis.static import UsageError, discover_files
from repro.analysis.static.cli import main as lint_main
from repro.analysis.static.rules import ALL_RULES, RELAXED_RULES


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


class TestProtocolFlowOnRealSource:
    def test_default_rule_set_has_eleven_rules(self):
        """The name is historical: the default set once held eleven
        rules.  Four remain for ``src/``, and the example trees get
        DMW001 alone; the protocol's round schedule is checked at
        runtime instead (``tests/test_rounds.py``)."""
        assert [rule.rule_id for rule in ALL_RULES] == [
            "DMW001", "DMW007", "DMW010", "DMW011"]
        assert [rule.rule_id for rule in RELAXED_RULES] == ["DMW001"]
