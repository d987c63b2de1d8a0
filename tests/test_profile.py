"""Per-phase cProfile capture (repro.obs.profile).

Contracts (docs/OBSERVABILITY.md, "Phase profiler"):

* attaching a profiler to the span recorder brackets every *phase*
  span with a cProfile capture, folded per phase;
* the run report's ``profile`` section carries top-N hotspots per
  phase and validates under the v4 schema;
* process-pool workers profile their own shards and the parent merges
  the exported tables additively;
* profiling never changes outcomes or counted totals (wall-clock is
  explicitly exempt — cProfile has real overhead).
"""

import random

from repro.core.agent import DMWAgent
from repro.core.protocol import DMWProtocol
from repro.obs import (
    PhaseProfiler,
    Recorder,
    run_report,
    validate_run_report,
)
from repro.obs.recorder import PHASES


def _busy(n):
    total = 0
    for i in range(n):
        total += i * i
    return total


def profiled_run(params, problem, seed=0, parallel=False, workers=None,
                 top_n=10):
    master = random.Random(seed)
    agents = [
        DMWAgent(index, params,
                 [int(problem.time(index, j))
                  for j in range(problem.num_tasks)],
                 rng=random.Random(master.getrandbits(64)))
        for index in range(params.num_agents)
    ]
    recorder = Recorder()
    recorder.profiler = PhaseProfiler(top_n=top_n)
    protocol = DMWProtocol(params, agents, recorder=recorder)
    outcome = protocol.execute(problem.num_tasks, parallel=parallel,
                               workers=workers)
    return outcome, protocol, recorder


class TestProfilerUnit:
    def test_start_stop_folds_rows(self):
        profiler = PhaseProfiler(top_n=3)
        profiler.start("bidding")
        _busy(20000)
        profiler.stop("bidding")
        report = profiler.report()
        assert report["top_n"] == 3
        phase = report["phases"]["bidding"]
        assert phase["functions_profiled"] > 0
        assert phase["calls"] > 0
        assert len(phase["hotspots"]) <= 3
        assert any("_busy" in row["function"]
                   for row in phase["hotspots"])

    def test_hotspot_keys_are_machine_portable(self):
        profiler = PhaseProfiler()
        profiler.start("bidding")
        _busy(1000)
        profiler.stop("bidding")
        for row in profiler.report()["phases"]["bidding"]["hotspots"]:
            assert "/" not in row["function"].split("(")[0]

    def test_nested_start_is_ignored(self):
        # Phases never nest in DMW; a second start while capturing is a
        # no-op rather than a corrupted capture.
        profiler = PhaseProfiler()
        profiler.start("bidding")
        profiler.start("aggregation")
        _busy(1000)
        profiler.stop("aggregation")
        profiler.stop("bidding")
        assert set(profiler.report()["phases"]) == {"bidding"}

    def test_merge_is_additive(self):
        left, right = PhaseProfiler(), PhaseProfiler()
        for profiler in (left, right):
            profiler.start("bidding")
            _busy(5000)
            profiler.stop("bidding")
        solo_calls = left.report()["phases"]["bidding"]["calls"]
        left.merge(right.export())
        merged = left.report()["phases"]["bidding"]
        assert merged["calls"] == solo_calls \
            + right.report()["phases"]["bidding"]["calls"]

    def test_export_is_deep_copied(self):
        profiler = PhaseProfiler()
        profiler.start("bidding")
        _busy(1000)
        profiler.stop("bidding")
        exported = profiler.export()
        for rows in exported.values():
            for row in rows.values():
                row[0] += 999
        assert profiler.export() != exported


class TestProfiledRuns:
    def test_every_phase_is_profiled(self, params5, problem53):
        outcome, protocol, recorder = profiled_run(params5, problem53)
        assert outcome.completed
        report = recorder.profiler.report()
        assert set(report["phases"]) == set(PHASES) | {"payments"}
        for body in report["phases"].values():
            assert body["calls"] > 0
            assert body["time_s"] >= 0.0

    def test_report_v4_profile_section_validates(self, params5,
                                                 problem53):
        outcome, protocol, recorder = profiled_run(params5, problem53,
                                                   top_n=5)
        document = run_report(outcome, agents=protocol.agents,
                              recorder=recorder, parameters=params5)
        validate_run_report(document)
        assert document["profile"]["top_n"] == 5
        assert set(document["profile"]["phases"]) \
            == set(PHASES) | {"payments"}
        for body in document["profile"]["phases"].values():
            assert len(body["hotspots"]) <= 5

    def test_profiling_does_not_perturb_outcomes(self, params5,
                                                 problem53):
        master = random.Random(0)
        agents = [
            DMWAgent(index, params5,
                     [int(problem53.time(index, j))
                      for j in range(problem53.num_tasks)],
                     rng=random.Random(master.getrandbits(64)))
            for index in range(params5.num_agents)
        ]
        reference = DMWProtocol(params5, agents).execute(
            problem53.num_tasks)
        outcome, _, _ = profiled_run(params5, problem53)
        assert list(outcome.schedule.assignment) \
            == list(reference.schedule.assignment)
        assert list(outcome.payments) == list(reference.payments)
        assert outcome.network_metrics.as_dict() \
            == reference.network_metrics.as_dict()

    def test_pool_merges_worker_profiles(self, params5, problem53):
        outcome, protocol, recorder = profiled_run(params5, problem53,
                                                   parallel=True,
                                                   workers=2)
        assert outcome.parallelism["workers"] == 2
        report = recorder.profiler.report()
        # The per-auction phases ran inside the workers; their merged
        # tables must land in the parent's profile alongside the
        # parent-side payments phase.
        assert set(report["phases"]) == set(PHASES) | {"payments"}
        document = run_report(outcome, agents=protocol.agents,
                              recorder=recorder, parameters=params5)
        validate_run_report(document)
        assert set(document["profile"]["phases"]) \
            == set(PHASES) | {"payments"}

    def test_unprofiled_run_reports_empty_profile(self, params5,
                                                  problem53):
        master = random.Random(0)
        agents = [
            DMWAgent(index, params5,
                     [int(problem53.time(index, j))
                      for j in range(problem53.num_tasks)],
                     rng=random.Random(master.getrandbits(64)))
            for index in range(params5.num_agents)
        ]
        recorder = Recorder()
        protocol = DMWProtocol(params5, agents, recorder=recorder)
        outcome = protocol.execute(problem53.num_tasks)
        document = run_report(outcome, agents=agents, recorder=recorder,
                              parameters=params5)
        validate_run_report(document)
        assert document["profile"] == {}
