"""Process-pool execution engine: differential equivalence and resume.

The tentpole acceptance criteria (ISSUE 5):

* ``execute(parallel=True, workers=k)`` is **bit-identical** to the
  sequential driver for ``k`` in {1, 2, 4} — same schedule, payments,
  transcripts, per-agent operation counters, and network totals — on
  both a wide instance (n=12, m=2) and a task-heavy one (n=8, m=8);
* merged ``cache_stats`` are identical for every worker count (the
  deterministic per-task sums; see ``docs/PERFORMANCE.md`` for why they
  differ from the sequential shared-cache numbers);
* a parallel run killed between frontier checkpoints resumes to an
  outcome identical to the uninterrupted parallel run, ``cache_stats``
  included;
* the merged observability export passes ``validate_run_report`` —
  the ingested worker spans still partition the run totals exactly;
* the CLI reaches the pool driver (``--parallel --workers`` and the
  formerly rejected ``--parallel --checkpoint`` combination).
"""

import json
import random

import pytest

import repro.parallel as parallel_mod
from repro import serialization
from repro.cli import main as cli_main
from repro.core.agent import DMWAgent
from repro.core.exceptions import ParameterError
from repro.core.parameters import DMWParameters
from repro.core.protocol import DMWProtocol
from repro.crypto.groups import fixture_group
from repro.obs import Recorder, run_report
from repro.obs.export import validate_run_report
from repro.scheduling.problem import SchedulingProblem

#: The two acceptance shapes: wide (n=12, m=2) and task-heavy (n=8, m=8).
SHAPES = ((12, 2), (8, 8))

_PARAMS_CACHE = {}


def params_for(num_agents):
    if num_agents not in _PARAMS_CACHE:
        _PARAMS_CACHE[num_agents] = DMWParameters.generate(
            num_agents, fault_bound=1, group_parameters=fixture_group("small"))
    return _PARAMS_CACHE[num_agents]


def make_problem(params, num_tasks, seed=31):
    rng = random.Random(seed)
    width = len(params.bid_values)
    return SchedulingProblem([
        [rng.randrange(1, width + 1) for _ in range(num_tasks)]
        for _ in range(params.num_agents)
    ])


def build_protocol(params, problem, seed=7, recorder=None):
    master = random.Random(seed)
    agents = [
        DMWAgent(index, params,
                 [int(problem.time(index, task))
                  for task in range(problem.num_tasks)],
                 rng=random.Random(master.getrandbits(64)))
        for index in range(params.num_agents)
    ]
    return DMWProtocol(params, agents, recorder=recorder)


def outcome_signature(outcome):
    """Everything the differential comparison pins down bit-for-bit."""
    return (
        outcome.completed,
        list(outcome.schedule.assignment),
        list(outcome.payments),
        outcome.transcripts,
        outcome.agent_operations,
        outcome.network_metrics.as_dict(),
    )


class TestDifferentialEquivalence:
    @pytest.mark.parametrize("shape", SHAPES,
                             ids=["n12m2", "n8m8"])
    def test_pool_is_bit_identical_to_sequential(self, shape):
        num_agents, num_tasks = shape
        params = params_for(num_agents)
        problem = make_problem(params, num_tasks)
        sequential = build_protocol(params, problem).execute(num_tasks)
        expected = outcome_signature(sequential)
        cache_stats_by_workers = {}
        for workers in (1, 2, 4):
            pooled = build_protocol(params, problem).execute(
                num_tasks, parallel=True, workers=workers)
            assert outcome_signature(pooled) == expected
            assert pooled.parallelism["workers"] == workers
            assert pooled.parallelism["tasks_pooled"] == num_tasks
            cache_stats_by_workers[workers] = pooled.cache_stats
        # Merged cache statistics are the per-task sums — identical for
        # every worker count (though not equal to the sequential driver's
        # shared-cache numbers, which enjoy cross-task hits).
        assert (cache_stats_by_workers[1] == cache_stats_by_workers[2]
                == cache_stats_by_workers[4])

    def test_merged_trace_replays_the_sequential_event_log(self):
        params = params_for(5)
        problem = make_problem(params, 3)
        seq_recorder = Recorder()
        build_protocol(params, problem, recorder=seq_recorder).execute(3)
        pool_recorder = Recorder()
        build_protocol(params, problem, recorder=pool_recorder).execute(
            3, parallel=True, workers=2)

        def structural(recorder):
            # Wall-clock timestamps differ run to run, and a shard numbers
            # its barriers from 0; everything else — ids, order, kinds,
            # tasks, owning spans, details — must match.
            events = []
            for event in recorder.events:
                document = event.to_dict()
                del document["timestamp_s"]
                if event.kind == "network_round":
                    del document["detail"]["round"]
                events.append(document)
            return events

        assert structural(pool_recorder) == structural(seq_recorder)

    def test_round_index_sums_back_to_the_sequential_total(self):
        params = params_for(5)
        problem = make_problem(params, 3)
        sequential = build_protocol(params, problem)
        sequential.execute(3)
        pooled = build_protocol(params, problem)
        pooled.execute(3, parallel=True, workers=2)
        assert pooled.network.round_index == sequential.network.round_index


class TestKillAndResume:
    def test_killed_parallel_run_resumes_to_identical_outcome(
            self, tmp_path):
        """Crash after the second merged shard; resume must reproduce the
        uninterrupted parallel outcome exactly, merged cache_stats
        included."""
        params = params_for(8)
        problem = make_problem(params, 8)
        path = str(tmp_path / "cp.json")
        baseline = build_protocol(params, problem).execute(
            8, parallel=True, workers=2)

        class Crash(Exception):
            pass

        def crash_after_task_1(result):
            if result.task == 1:
                raise Crash()

        parallel_mod._POST_MERGE_HOOK = crash_after_task_1
        try:
            with pytest.raises(Crash):
                build_protocol(params, problem).execute(
                    8, parallel=True, workers=2, checkpoint_path=path)
        finally:
            parallel_mod._POST_MERGE_HOOK = None

        loaded = serialization.load_checkpoint(path)
        assert loaded.completed_set() == {0, 1}
        assert loaded.cache_state["stats"]
        resumed = build_protocol(params, problem).execute(
            8, parallel=True, workers=2, resume=loaded)
        assert outcome_signature(resumed) == outcome_signature(baseline)
        assert resumed.cache_stats == baseline.cache_stats

    def test_checkpoint_document_is_format_version_4(self, tmp_path):
        params = params_for(5)
        problem = make_problem(params, 3)
        path = str(tmp_path / "cp.json")
        build_protocol(params, problem).execute(
            3, parallel=True, workers=2, checkpoint_path=path)
        with open(path) as handle:
            document = json.load(handle)
        assert document["version"] == serialization.FORMAT_VERSION
        assert sorted(document["completed_tasks"]) == [0, 1, 2]
        assert document["cache_state"]["stats"]


class TestMergedObservability:
    def test_merged_run_report_validates(self):
        """The ingested worker spans must keep the phase-partition
        invariant: per-phase deltas sum exactly to the run totals."""
        params = params_for(5)
        problem = make_problem(params, 3)
        recorder = Recorder()
        protocol = build_protocol(params, problem, recorder=recorder)
        outcome = protocol.execute(3, parallel=True, workers=2)
        document = run_report(outcome, agents=protocol.agents,
                              recorder=recorder, parameters=params)
        validate_run_report(document)
        assert document["parallelism"]["workers"] == 2
        # One ingested task span (with its four phases) per auction, plus
        # the parent's run + payments spans.
        task_spans = [s for s in document["spans"] if s["kind"] == "task"]
        assert sorted(s["task"] for s in task_spans) == [0, 1, 2]
        phase_names = {s["name"] for s in document["spans"]
                       if s["kind"] == "phase"}
        assert phase_names == {"bidding", "aggregation", "disclosure",
                               "resolution", "payments"}

    def test_span_ids_are_unique_after_grafting(self):
        params = params_for(5)
        problem = make_problem(params, 3)
        recorder = Recorder()
        build_protocol(params, problem, recorder=recorder).execute(
            3, parallel=True, workers=2)
        ids = [span.span_id for span in recorder.spans]
        assert len(ids) == len(set(ids))
        by_id = {span.span_id: span for span in recorder.spans}
        for span in recorder.spans:
            assert span.end >= span.start
            if span.parent_id is not None:
                assert span.parent_id in by_id


class TestPoolValidation:
    def test_deviant_agents_are_rejected(self):
        params = params_for(5)
        problem = make_problem(params, 3)
        protocol = build_protocol(params, problem)

        class Deviant(DMWAgent):
            pass

        deviant = Deviant(0, params, protocol.agents[0].true_values,
                          rng=random.Random(1))
        protocol.agents[0] = deviant
        with pytest.raises(ParameterError):
            protocol.execute(3, parallel=True, workers=2)

    def test_fault_plans_are_rejected(self):
        from repro.network.faults import FaultPlan
        params = params_for(5)
        problem = make_problem(params, 3)
        protocol = build_protocol(params, problem)
        protocol.network.fault_plan = FaultPlan(crashed_from_round={0: 1})
        with pytest.raises(ParameterError):
            protocol.execute(3, parallel=True, workers=2)

    def test_delivery_recording_is_rejected(self):
        params = params_for(5)
        problem = make_problem(params, 3)
        protocol = build_protocol(params, problem)
        protocol.network.record_deliveries = True
        with pytest.raises(ParameterError):
            protocol.execute(3, parallel=True, workers=2)


class TestCLI:
    def test_cli_parallel_workers_matches_sequential(self, capsys):
        args = ["run", "-n", "5", "-m", "3", "--seed", "3"]
        assert cli_main(args) == 0
        sequential = capsys.readouterr().out
        assert cli_main(args + ["--parallel", "--workers", "2"]) == 0
        pooled = capsys.readouterr().out
        assert "process pool: 2 workers" in pooled

        def result_lines(text):
            return [line for line in text.splitlines()
                    if line.startswith(("schedule:", "payments:", "costs:"))]

        assert result_lines(pooled) == result_lines(sequential)

    def test_cli_parallel_checkpoint_regression(self, tmp_path, capsys):
        """The formerly CLI-unreachable combination: --parallel together
        with --checkpoint now routes through the pool (and --resume picks
        the run back up)."""
        path = str(tmp_path / "cp.json")
        args = ["run", "-n", "5", "-m", "3", "--seed", "3"]
        assert cli_main(args + ["--parallel", "--checkpoint", path]) == 0
        first = capsys.readouterr().out
        assert "process pool" in first
        loaded = serialization.load_checkpoint(path)
        assert loaded.completed_set() == {0, 1, 2}
        assert cli_main(args + ["--parallel", "--resume", path]) == 0
        resumed = capsys.readouterr().out
        assert "resuming from" in resumed

        def result_lines(text):
            return [line for line in text.splitlines()
                    if line.startswith(("schedule:", "payments:"))]

        assert result_lines(resumed) == result_lines(first)


class TestColdShards:
    def test_warm_cache_is_rejected_by_the_pool_driver(self, tmp_path):
        from repro.crypto.fastexp import PublicValueCache
        params = params_for(5)
        for route in ({"workers": 1},
                      {"checkpoint_path": str(tmp_path / "cp.json")}):
            protocol = build_protocol(params, make_problem(params, 3))
            with pytest.raises(ParameterError, match="warm_cache"):
                protocol.execute(3, parallel=True,
                                 warm_cache=PublicValueCache(), **route)
