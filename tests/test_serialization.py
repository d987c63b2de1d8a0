"""Tests for repro.serialization (JSON round-trips)."""

import json
import random

import pytest

from repro import serialization
from repro.core.protocol import run_dmw
from repro.scheduling.problem import SchedulingProblem
from repro.scheduling.schedule import Schedule


class TestProblemRoundTrip:
    def test_roundtrip(self, problem53):
        text = serialization.dumps(problem53)
        restored = serialization.loads(text)
        assert restored == problem53

    def test_requirements_preserved(self):
        problem = SchedulingProblem.from_speeds([4, 8], [[1], [2]])
        restored = serialization.loads(serialization.dumps(problem))
        assert restored.tasks[1].processing_requirement == 8

    def test_is_valid_json(self, problem53):
        document = json.loads(serialization.dumps(problem53))
        assert document["type"] == "scheduling_problem"
        assert document["version"] == serialization.FORMAT_VERSION


class TestScheduleRoundTrip:
    def test_roundtrip(self):
        schedule = Schedule([0, 2, 1], num_agents=3)
        restored = serialization.loads(serialization.dumps(schedule))
        assert restored == schedule


class TestOutcomeRoundTrip:
    @pytest.fixture()
    def outcome(self, params5, problem53):
        return run_dmw(problem53, parameters=params5,
                       rng=random.Random(0))

    def test_completed_outcome(self, outcome, problem53):
        restored = serialization.loads(serialization.dumps(outcome))
        assert restored.completed
        assert restored.schedule == outcome.schedule
        assert restored.payments == outcome.payments
        assert len(restored.transcripts) == len(outcome.transcripts)
        for a, b in zip(restored.transcripts, outcome.transcripts):
            assert (a.task, a.first_price, a.winner, a.second_price) == \
                (b.task, b.first_price, b.winner, b.second_price)

    def test_metrics_preserved(self, outcome):
        restored = serialization.loads(serialization.dumps(outcome))
        assert restored.network_metrics.as_dict() == \
            outcome.network_metrics.as_dict()

    def test_utilities_computable_after_roundtrip(self, outcome, problem53):
        restored = serialization.loads(serialization.dumps(outcome))
        for agent in range(5):
            assert restored.utility(agent, problem53) == \
                outcome.utility(agent, problem53)

    def test_aborted_outcome(self, params5):
        problem = SchedulingProblem([[1], [1], [1], [1], [1]])
        from repro.core.deviant import WithholdSharesAgent
        from repro.analysis.faithfulness import run_with_agents, \
            honest_factory

        def withholder(index, parameters, true_values, rng):
            return WithholdSharesAgent(index, parameters, true_values,
                                       victims=[1], rng=rng)

        outcome = run_with_agents(params5,
                                  [withholder] + [honest_factory] * 4,
                                  problem)
        assert not outcome.completed
        restored = serialization.loads(serialization.dumps(outcome))
        assert not restored.completed
        assert restored.abort.phase == outcome.abort.phase
        assert restored.abort.offender == outcome.abort.offender
        assert restored.schedule is None


class TestFiles:
    def test_save_load(self, tmp_path, problem53):
        path = tmp_path / "problem.json"
        serialization.save(problem53, str(path))
        assert serialization.load(str(path)) == problem53


class TestErrors:
    def test_unknown_artifact(self):
        with pytest.raises(serialization.SerializationError):
            serialization.dumps(object())

    def test_unknown_document_type(self):
        with pytest.raises(serialization.SerializationError):
            serialization.loads('{"type": "mystery", "version": 1}')

    def test_non_string_document_type(self):
        with pytest.raises(serialization.SerializationError,
                           match="unknown document type"):
            serialization.loads('{"type": ["schedule"]}')

    def test_not_a_document(self):
        with pytest.raises(serialization.SerializationError):
            serialization.loads('[1, 2, 3]')

    def test_wrong_version(self, problem53):
        document = json.loads(serialization.dumps(problem53))
        document["version"] = 99
        with pytest.raises(serialization.SerializationError):
            serialization.loads(json.dumps(document))

    @pytest.mark.parametrize("kind, key", [("dmw_checkpoint", "num_tasks"),
                                           ("dmw_outcome", "network_metrics")])
    def test_missing_key_names_type_and_key(self, kind, key):
        text = json.dumps({"type": kind,
                           "version": serialization.FORMAT_VERSION})
        with pytest.raises(serialization.SerializationError,
                           match="%s document lacks key '%s'" % (kind, key)):
            serialization.loads(text)

    def test_invalid_json(self):
        with pytest.raises(serialization.SerializationError,
                           match="not valid JSON"):
            serialization.loads('{"type": "schedule", "vers')

    def test_type_mismatch(self, problem53):
        document = json.loads(serialization.dumps(problem53))
        document["type"] = "schedule"
        with pytest.raises(Exception):
            serialization.loads(json.dumps(document))


class TestCacheStatsRoundTrip:
    def test_cache_stats_preserved(self, params5, problem53):
        outcome = run_dmw(problem53, parameters=params5,
                          rng=random.Random(0))
        assert outcome.cache_stats  # the shared cache saw traffic
        restored = serialization.loads(serialization.dumps(outcome))
        assert restored.cache_stats == outcome.cache_stats


class TestTraceEmbedding:
    @pytest.fixture()
    def traced(self, params5, problem53):
        from repro.obs import Recorder
        recorder = Recorder()
        outcome = run_dmw(problem53, parameters=params5,
                          rng=random.Random(0), recorder=recorder)
        return outcome, recorder

    def test_save_and_load_trace(self, tmp_path, traced):
        outcome, recorder = traced
        path = tmp_path / "outcome.json"
        serialization.save(outcome, str(path), recorder=recorder)
        restored = serialization.load(str(path))
        assert restored.completed
        restored_trace = serialization.load_trace(str(path))
        assert restored_trace is not None
        assert restored_trace == recorder.events

    def test_outcome_without_trace_loads_none(self, tmp_path, traced):
        outcome, _ = traced
        path = tmp_path / "outcome.json"
        serialization.save(outcome, str(path))
        assert serialization.load_trace(str(path)) is None

    def test_trace_requires_outcome_artifact(self, problem53, traced):
        _, recorder = traced
        with pytest.raises(serialization.SerializationError):
            serialization.dumps(problem53, recorder=recorder)

    def test_load_trace_rejects_non_outcome(self, tmp_path, problem53):
        path = tmp_path / "problem.json"
        serialization.save(problem53, str(path))
        with pytest.raises(serialization.SerializationError):
            serialization.load_trace(str(path))


class TestVersionCompatibility:
    def test_version_1_outcome_is_rejected(self, params5, problem53):
        """Documents written before trace/cache_stats existed are no
        longer read."""
        outcome = run_dmw(problem53, parameters=params5,
                          rng=random.Random(0))
        document = json.loads(serialization.dumps(outcome))
        document["version"] = 1
        del document["cache_stats"]
        del document["trace"]
        with pytest.raises(serialization.SerializationError,
                           match="version 1"):
            serialization.loads(json.dumps(document))

    def test_current_documents_carry_version_5(self, problem53):
        document = json.loads(serialization.dumps(problem53))
        assert document["version"] == serialization.FORMAT_VERSION == 5
        assert serialization.SUPPORTED_VERSIONS == (5,)


class TestNaiveOutcomeRoundTrip:
    def test_naive_outcome_serializes(self, problem53):
        from repro.core.naive import run_naive
        outcome = run_naive(problem53)
        restored = serialization.loads(serialization.dumps(outcome))
        assert restored.completed
        assert restored.schedule == outcome.schedule
        assert restored.payments == outcome.payments
        assert restored.transcripts == []
