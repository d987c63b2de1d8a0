"""Run-history store: persistence, diff/trend analytics, and the CLI.

Contracts (docs/OBSERVABILITY.md, "Run history"):

* the store is append-only JSONL with stable config fingerprints;
* ``diff`` treats counters/network/outcome as divergences (exit 1) and
  wall-clock/provenance/config as informational — so a sequential run
  and a process-pool run of the same seed diff *clean*;
* ``trend`` flags Theorem 11 band violations, impossible round counts,
  and counter drift within a fingerprint.
"""

import json
import random

import pytest

from repro.cli import main as cli_main
from repro.core.agent import DMWAgent
from repro.core.protocol import DMWProtocol
from repro.obs import (
    HistoryStore,
    Recorder,
    config_fingerprint,
    diff_entries,
    entry_from_report,
    run_report,
    theorem11_message_bounds,
    trend_rows,
)
from repro.obs.history import entry_anomalies, make_entry


def report_for(params, problem, seed=0, parallel=False, workers=None):
    master = random.Random(seed)
    agents = [
        DMWAgent(index, params,
                 [int(problem.time(index, j))
                  for j in range(problem.num_tasks)],
                 rng=random.Random(master.getrandbits(64)))
        for index in range(params.num_agents)
    ]
    recorder = Recorder()
    protocol = DMWProtocol(params, agents, recorder=recorder)
    outcome = protocol.execute(problem.num_tasks, parallel=parallel,
                               workers=workers)
    return run_report(outcome, agents=agents, recorder=recorder,
                      parameters=params)


# ---------------------------------------------------------------------------
# Fingerprints and the Theorem 11 band
# ---------------------------------------------------------------------------

class TestFingerprint:
    def test_stable_and_order_independent(self):
        a = config_fingerprint({"num_agents": 5, "seed": 3})
        b = config_fingerprint({"seed": 3, "num_agents": 5})
        assert a == b and len(a) == 12

    def test_any_field_change_changes_it(self):
        base = {"num_agents": 5, "num_tasks": 3, "seed": 0}
        assert config_fingerprint(base) \
            != config_fingerprint({**base, "seed": 1})

    def test_theorem11_band_matches_fig2(self):
        # Paper figure 2 shape (n=5, m=2): fixed traffic 195, variable
        # disclosure/claim traffic between 2mn=20 and 2mn^2=100.
        lower, upper = theorem11_message_bounds(5, 2)
        assert (lower, upper) == (215, 295)

    def test_real_runs_land_inside_the_band(self, params5, problem53):
        document = report_for(params5, problem53)
        entry = entry_from_report(document, config={"seed": 0})
        assert entry_anomalies(entry) == []
        messages = entry["network"]["point_to_point_messages"]
        lower, upper = theorem11_message_bounds(5, 3)
        assert lower <= messages <= upper


# ---------------------------------------------------------------------------
# Store persistence
# ---------------------------------------------------------------------------

class TestStore:
    def test_append_load_round_trip(self, tmp_path):
        store = HistoryStore(str(tmp_path / "history.jsonl"))
        entry = make_entry({"num_agents": 4}, source="bench",
                           wall_clock_s=1.5, recorded_at=10.0)
        assert store.append(entry) == 1
        assert store.append(dict(entry)) == 2
        loaded = store.load()
        assert len(loaded) == 2
        assert loaded[0] == entry
        assert store.entry(2) == entry

    def test_missing_file_loads_empty(self, tmp_path):
        assert HistoryStore(str(tmp_path / "absent.jsonl")).load() == []

    def test_rejects_foreign_documents(self, tmp_path):
        store = HistoryStore(str(tmp_path / "history.jsonl"))
        with pytest.raises(ValueError):
            store.append({"type": "something_else"})

    def test_malformed_line_is_reported_with_position(self, tmp_path):
        path = tmp_path / "history.jsonl"
        path.write_text('{"type": "dmw_history_entry"}\nnot json\n')
        with pytest.raises(ValueError, match=":2"):
            HistoryStore(str(path)).load()

    def test_entry_index_bounds(self, tmp_path):
        store = HistoryStore(str(tmp_path / "history.jsonl"))
        with pytest.raises(IndexError):
            store.entry(1)


def _hammer_append(path, worker, count, queue):
    """Append ``count`` entries from one process (concurrency hammer)."""
    store = HistoryStore(path)
    indices = []
    for i in range(count):
        entry = make_entry({"num_agents": 4, "worker": worker, "i": i},
                           source="bench", wall_clock_s=float(worker),
                           recorded_at=float(i))
        indices.append(store.append(entry))
    queue.put(indices)


class TestStoreConcurrency:
    def test_eight_process_append_hammer(self, tmp_path):
        """Concurrent appenders never interleave partial JSONL lines.

        Eight processes append 25 entries each; afterwards every line
        must parse, all 200 entries must be present, and the lock-counted
        return indices must be a permutation of 1..200.
        """
        import multiprocessing

        path = str(tmp_path / "history.jsonl")
        per_worker = 25
        workers = 8
        context = multiprocessing.get_context("spawn")
        queue = context.Queue()
        processes = [
            context.Process(target=_hammer_append,
                            args=(path, worker, per_worker, queue))
            for worker in range(workers)
        ]
        for process in processes:
            process.start()
        indices = []
        for _ in processes:
            indices.extend(queue.get(timeout=60))
        for process in processes:
            process.join(timeout=60)
            assert process.exitcode == 0
        with open(path) as handle:
            lines = [line for line in handle if line.strip()]
        entries = [json.loads(line) for line in lines]  # every line parses
        assert len(entries) == workers * per_worker
        seen = {(e["config"]["worker"], e["config"]["i"]) for e in entries}
        assert len(seen) == workers * per_worker
        assert sorted(indices) == list(range(1, workers * per_worker + 1))
        # The store itself still loads clean through the validating path.
        assert len(HistoryStore(path).load()) == workers * per_worker


# ---------------------------------------------------------------------------
# diff: determinism is a divergence, environment is information
# ---------------------------------------------------------------------------

class TestDiff:
    def test_sequential_vs_pool_diffs_clean(self, params5, problem53):
        sequential = entry_from_report(
            report_for(params5, problem53),
            config={"seed": 0, "parallel": False, "workers": None})
        pooled = entry_from_report(
            report_for(params5, problem53, parallel=True, workers=2),
            config={"seed": 0, "parallel": True, "workers": 2})
        diff = diff_entries(sequential, pooled)
        assert diff["clean"], diff["divergences"]
        assert any("config.parallel" in line
                   for line in diff["informational"])

    def test_different_seed_diverges(self, params5, problem53,
                                     problem42, params4):
        a = entry_from_report(report_for(params5, problem53, seed=0),
                              config={"seed": 0})
        b = entry_from_report(report_for(params5, problem53, seed=1),
                              config={"seed": 1})
        diff = diff_entries(a, b)
        assert not diff["clean"]
        assert diff["divergences"]

    def test_tampered_counter_is_a_divergence(self, params5, problem53):
        entry = entry_from_report(report_for(params5, problem53),
                                  config={"seed": 0})
        tampered = json.loads(json.dumps(entry))
        tampered["counters"]["multiplications"] += 1
        diff = diff_entries(entry, tampered)
        assert not diff["clean"]
        assert any("counters.multiplications" in line
                   for line in diff["divergences"])

    def test_wall_clock_is_informational_only(self, params5, problem53):
        entry = entry_from_report(report_for(params5, problem53),
                                  config={"seed": 0})
        slower = json.loads(json.dumps(entry))
        slower["wall_clock_s"] = (slower["wall_clock_s"] or 1.0) * 100
        diff = diff_entries(entry, slower)
        assert diff["clean"]
        assert any("wall_clock_s" in line
                   for line in diff["informational"])


# ---------------------------------------------------------------------------
# trend: closed-form anomaly flags
# ---------------------------------------------------------------------------

class TestTrend:
    def _entry(self, messages=None, rounds=None, counters=None,
               config=None):
        network = {}
        if messages is not None:
            network["point_to_point_messages"] = messages
        if rounds is not None:
            network["rounds"] = rounds
        return make_entry(config or {"num_agents": 5, "num_tasks": 2},
                          source="run_report", network=network or None,
                          counters=counters, recorded_at=0.0)

    def test_out_of_band_messages_are_flagged(self):
        rows = trend_rows([self._entry(messages=296, rounds=9)])
        assert any("Theorem 11" in flag for row in rows
                   for flag in row["anomalies"])

    def test_in_band_run_is_clean(self):
        rows = trend_rows([self._entry(messages=250, rounds=9)])
        assert rows[0]["anomalies"] == []

    def test_impossible_round_counts_are_flagged(self):
        low = trend_rows([self._entry(messages=250, rounds=4)])
        high = trend_rows([self._entry(messages=250, rounds=16)])
        assert any("5-round" in flag for flag in low[0]["anomalies"])
        assert any("ceiling" in flag for flag in high[0]["anomalies"])

    def test_counter_drift_within_fingerprint_is_flagged(self):
        stable = self._entry(messages=250, rounds=9,
                             counters={"multiplications": 10})
        drifted = self._entry(messages=250, rounds=9,
                              counters={"multiplications": 11})
        rows = trend_rows([stable, drifted])
        assert any("counter drift" in flag
                   for flag in rows[1]["anomalies"])
        # Different fingerprints never cross-contaminate.
        other = self._entry(messages=250, rounds=9,
                            counters={"multiplications": 11},
                            config={"num_agents": 5, "num_tasks": 2,
                                    "seed": 9})
        rows = trend_rows([stable, other])
        assert all(row["anomalies"] == [] for row in rows)

    def test_entries_from_older_writers_still_trend(self):
        """Retired sources and unknown extra fields are tolerated."""
        entry = make_entry({"bench": "x"}, source="bench",
                           wall_clock_s=0.5, recorded_at=0.0)
        entry["retired_field"] = 0.05
        rows = trend_rows([entry])
        assert rows[0]["wall_clock_s"] == 0.5
        assert rows[0]["anomalies"] == []


# ---------------------------------------------------------------------------
# CLI: run --history plus the history subcommand
# ---------------------------------------------------------------------------

class TestHistoryCli:
    def _run(self, tmp_path, *extra):
        argv = ["run", "-n", "5", "-m", "3", "--instance",
                str(tmp_path / "instance.json"),
                "--history", str(tmp_path / "history.jsonl")]
        argv.extend(extra)
        return cli_main(argv)

    @pytest.fixture()
    def store_path(self, tmp_path, problem53, capsys):
        (tmp_path / "instance.json").write_text(
            json.dumps([[int(v) for v in row]
                        for row in problem53.times]))
        assert self._run(tmp_path, "--seed", "3") == 0
        assert self._run(tmp_path, "--seed", "3", "--parallel",
                         "--workers", "2") == 0
        assert self._run(tmp_path, "--seed", "4") == 0
        capsys.readouterr()
        return str(tmp_path / "history.jsonl")

    def test_run_appends_entries(self, store_path):
        entries = HistoryStore(store_path).load()
        assert len(entries) == 3
        assert entries[0]["config"]["seed"] == 3
        assert entries[1]["config"]["workers"] == 2
        assert entries[2]["config"]["seed"] == 4
        assert all(entry["source"] == "run_report" for entry in entries)
        assert all(entry["provenance"]["package_version"]
                   for entry in entries)

    def test_list_and_show(self, store_path, capsys):
        assert cli_main(["history", "list", "--store", store_path]) == 0
        out = capsys.readouterr().out
        assert "fingerprint" in out and "seed=4" in out
        assert cli_main(["history", "show", "2",
                         "--store", store_path]) == 0
        shown = json.loads(capsys.readouterr().out)
        assert shown["type"] == "dmw_history_entry"
        assert shown["config"]["workers"] == 2

    def test_diff_same_seed_clean_exit_0(self, store_path, capsys):
        assert cli_main(["history", "diff", "1", "2",
                         "--store", store_path]) == 0
        assert "clean" in capsys.readouterr().out

    def test_diff_different_seed_exit_1(self, store_path, capsys):
        assert cli_main(["history", "diff", "1", "3",
                         "--store", store_path]) == 1
        assert "DIVERGENT" in capsys.readouterr().out

    def test_trend_reports_no_anomalies(self, store_path, capsys):
        assert cli_main(["history", "trend", "--store", store_path]) == 0
        assert "0 anomaly flag(s)" in capsys.readouterr().out

    def test_store_is_required(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["history", "list"])
        assert exit_info.value.code == 2
        assert "--store" in capsys.readouterr().err
