"""Tests of the ledger itself: run with ``pytest benchmarks/ledger``.

The workload functions are called in-process with small per-block counts
(the CLI has no run-length flag for this).
"""

import json
import random
import shutil
import subprocess
import sys

import pytest

import layers
import run
import workloads

run._import_program()

import repro  # noqa: E402  (importable only after _import_program)
from repro.crypto import commitments  # noqa: E402
from repro.crypto.polynomials import Polynomial  # noqa: E402

with open(run.BENCHMARK_JSON) as handle:
    SPEC = json.load(handle)

NAMES = [workload.name for workload in workloads.WORKLOADS]


@pytest.fixture
def small_counts(monkeypatch):
    """Two executions per block instead of the ledger's fixed count."""
    monkeypatch.setattr(workloads.Workload, "per_block", 2)


def test_benchmark_json_matches_the_code():
    assert [entry["name"] for entry in SPEC["workloads"]] == NAMES
    assert SPEC["paths"] == ["benchmarks/ledger"]
    for entry in SPEC["end_to_end"]:
        assert run.END_TO_END[entry["name"]] == (entry["unit"],
                                                 entry["better"])
        assert 0 < entry["bound"] <= 0.25
    setup = next(e for e in SPEC["end_to_end"] if e["name"] == "setup_s")
    assert setup["bound"] == max(e["bound"] for e in SPEC["end_to_end"])
    assert len(SPEC["per_layer"]) <= 128


@pytest.mark.parametrize("name", NAMES)
def test_every_metric_is_emitted(name, small_counts):
    block = run.run_block(name, seed=3, seconds=None, trace=False)
    assert block["failed"] == 0, block["errors"]
    metrics, samples = run.end_to_end_metrics([block])
    assert samples == 2
    for entry in SPEC["end_to_end"]:
        assert metrics[entry["name"]]["unit"] == entry["unit"]
        assert metrics[entry["name"]]["value"] > 0

    traced = run.run_block(name, seed=3, seconds=None, trace=True)
    assert traced["failed"] == 0, traced["errors"]
    layer_values, checks = run.layer_metrics([traced])
    assert checks == []
    for entry in SPEC["per_layer"]:
        assert layer_values[entry["name"]]["unit"] == entry["unit"]
    assert layer_values["core.protocol.calls"]["value"] > 0


def test_tampered_reference_raises_error_rate(small_counts):
    def tamper(references):
        references[0]["schedule"] = list(reversed(
            references[0]["schedule"])) + [0]

    block = run.run_block("wide-seq", seed=3, seconds=None, trace=False,
                          references_hook=tamper)
    metrics, _ = run.end_to_end_metrics([block])
    assert block["failed"] > 0
    assert "differs from its reference" in block["errors"][0]
    assert metrics["error_rate"]["value"] > 0


def _batched_run(num_agents=4):
    parameters = repro.DMWParameters.generate(
        num_agents, share_verification_mode="batched")
    problem = repro.SchedulingProblem([[1, 2], [2, 1], [1, 1], [2, 2]])
    return repro.run_dmw(problem, parameters=parameters,
                         rng=random.Random(7))


def test_tracer_patches_aliases_and_restores_them():
    from repro.core import verification
    original = commitments.verify_share_batch
    original_random = Polynomial.__dict__["random"]
    tracer = layers.Tracer()
    with tracer:
        # `from ..crypto.commitments import verify_share_batch` copied the
        # function into core.verification; the alias must be wrapped too.
        assert verification.verify_share_batch is \
            commitments.verify_share_batch
        assert commitments.verify_share_batch is not original
        assert isinstance(Polynomial.__dict__["random"], classmethod)
        assert Polynomial.random(2, 101, random.Random(1)).degree == 2
        outcome = _batched_run()
    assert outcome.completed
    assert commitments.verify_share_batch is original
    assert verification.verify_share_batch is original
    assert Polynomial.__dict__["random"] is original_random

    summary = tracer.summary()
    functions = summary["functions"]
    assert functions["repro.crypto.commitments.verify_share_batch"][
        "calls"] > 0
    network = summary["layers"]["network"]
    assert network["step_calls"] == outcome.network_metrics.rounds
    self_sum = sum(tally["self_s"] for tally in summary["layers"].values())
    roots = sum(end - start for start, end in summary["roots"])
    assert self_sum == pytest.approx(roots, rel=1e-6)


def test_unresolved_table_entry_fails_loudly():
    table = layers.TABLE + (("crypto.fastexp", "repro.crypto.fastexp",
                             layers.TIMED, ("no_such_function",), None),)
    original = commitments.verify_share_batch
    with pytest.raises(layers.LayerTableError, match="no_such_function"):
        layers.Tracer(table).install()
    assert commitments.verify_share_batch is original


def test_covered_seconds_merges_overlaps():
    assert layers.covered_seconds([(0, 2), (1, 3), (5, 6)]) == 4
    assert layers.covered_seconds([]) == 0


@pytest.mark.parametrize("a,b,verdict", [
    (100.0, 100.0, "unchanged"), (100.0, 108.0, "unchanged"),
    (100.0, 115.0, "regressed"), (100.0, 85.0, "improved")])
def test_compare_verdicts(a, b, verdict):
    spec = {"bound": 0.1}
    entry_a = {"value": a, "blocks": [a, a, a]}
    entry_b = {"value": b, "blocks": [b, b, b]}
    assert run.verdict_for("latency_p50_ms", "lower", spec, entry_a,
                           entry_b) == verdict


def test_wide_block_spread_is_unresolved():
    spec = {"bound": 0.1}
    steady = {"value": 100.0, "blocks": [99.0, 100.0, 101.0]}
    noisy = {"value": 100.0, "blocks": [80.0, 100.0, 120.0]}
    assert run.verdict_for("latency_p50_ms", "lower", spec, steady,
                           noisy) == "unresolved"


def test_runner_fails_without_program_source(tmp_path):
    """In a directory holding only BENCHMARK.json and the ledger, the
    run exits non-zero without printing a result."""
    ledger = tmp_path / "benchmarks" / "ledger"
    shutil.copytree(run.HERE, ledger,
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    shutil.copy(run.BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    completed = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload",
         "wide-seq", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert completed.returncode != 0
    assert "correct" not in completed.stdout
