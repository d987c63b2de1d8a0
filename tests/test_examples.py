"""Smoke tests: every example script runs to completion.

Examples are part of the public API contract — they must keep working.
Each is executed in-process (``runpy``) with stdout captured; the
internal ``assert`` statements inside the examples double as checks.
``scaling_study.py`` is excluded here because it sweeps many protocol
sizes (it runs under the benchmark suite's time budget instead).
"""

import os
import runpy

import pytest

EXAMPLES_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "examples")

FAST_EXAMPLES = [
    "quickstart.py",
    "compute_market.py",
    "deviation_audit.py",
    "privacy_collusion.py",
    "transcript_audit.py",
    "related_machines.py",
    "fault_injection.py",
]


@pytest.mark.parametrize("script", FAST_EXAMPLES)
def test_example_runs(script, capsys):
    path = os.path.join(EXAMPLES_DIR, script)
    runpy.run_path(path, run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip(), "example produced no output"


def test_quickstart_proves_equivalence(capsys):
    runpy.run_path(os.path.join(EXAMPLES_DIR, "quickstart.py"),
                   run_name="__main__")
    out = capsys.readouterr().out
    assert "Outcomes identical" in out


def test_deviation_audit_reports_faithful(capsys):
    runpy.run_path(os.path.join(EXAMPLES_DIR, "deviation_audit.py"),
                   run_name="__main__")
    out = capsys.readouterr().out
    assert "FAITHFUL" in out
    assert "STRONG VOLUNTARY PARTICIPATION" in out


def test_transcript_audit_detects_forgeries(capsys):
    runpy.run_path(os.path.join(EXAMPLES_DIR, "transcript_audit.py"),
                   run_name="__main__")
    out = capsys.readouterr().out
    assert out.count("FAIL") >= 2
    assert "PASS" in out


def test_all_examples_are_covered():
    """Every example file is either smoke-tested here or bench-covered."""
    present = {name for name in os.listdir(EXAMPLES_DIR)
               if name.endswith(".py")}
    covered = set(FAST_EXAMPLES) | {"scaling_study.py"}
    assert present == covered, present.symmetric_difference(covered)
