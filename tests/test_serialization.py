"""Tests for repro.serialization (JSON round-trips)."""

import json
import random

import pytest

from repro import serialization
from repro.core import DMWAgent, DMWProtocol, ProtocolCheckpoint
from repro.core.protocol import run_dmw
from repro.obs import Recorder
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

    @pytest.mark.parametrize("decoder, kind, key", [
        (serialization.checkpoint_from_dict, "dmw_checkpoint", "num_tasks"),
        (serialization.outcome_from_dict, "dmw_outcome", "network_metrics"),
        (serialization.problem_from_dict, "scheduling_problem",
         "requirements"),
        (serialization.trace_from_dict, "dmw_outcome", "trace"),
        (serialization.schedule_from_dict, "schedule", "assignment"),
    ])
    def test_public_decoder_names_missing_key(self, decoder, kind, key):
        """Called directly, not through ``loads``, each decoder still
        raises ``SerializationError``, never a bare ``KeyError``."""
        stub = {"type": kind, "version": serialization.FORMAT_VERSION}
        with pytest.raises(serialization.SerializationError,
                           match="%s document lacks key '%s'$" % (kind, key)):
            decoder(stub)

    def test_public_decoders_round_trip(self, params5, problem53):
        from repro.obs import Recorder
        recorder = Recorder()
        outcome = run_dmw(problem53, parameters=params5,
                          rng=random.Random(0), recorder=recorder)
        document = json.loads(serialization.dumps(outcome,
                                                  recorder=recorder))
        restored = serialization.outcome_from_dict(document)
        assert restored.schedule == outcome.schedule
        assert restored.payments == outcome.payments
        assert serialization.trace_from_dict(document) == recorder.events
        problem_document = serialization.problem_to_dict(problem53)
        assert serialization.problem_from_dict(problem_document) == problem53

    def test_nested_schedule_names_its_missing_key(self, params5,
                                                   problem53):
        outcome = run_dmw(problem53, parameters=params5,
                          rng=random.Random(0))
        document = json.loads(serialization.dumps(outcome))
        del document["schedule"]["assignment"]
        with pytest.raises(serialization.SerializationError,
                           match="schedule document lacks key "
                                 "'assignment'$"):
            serialization.loads(json.dumps(document))

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


class TestEverySingleFieldMutation:
    """Each single-field mutation of a real checkpoint and of a real
    traced outcome either loads or raises ``SerializationError``, never a
    bare exception (the ``single_field_mutants`` fixture)."""

    def _assert_loads_or_named(self, document, mutants):
        outcomes = {"loaded": 0, "rejected": 0}
        for _ in mutants(document):
            try:
                serialization.loads(json.dumps(document))
                outcomes["loaded"] += 1
            except serialization.SerializationError:
                outcomes["rejected"] += 1
        serialization.loads(json.dumps(document))
        assert outcomes["loaded"] and outcomes["rejected"], outcomes

    def test_checkpoint(self, params5, problem53, single_field_mutants):
        master = random.Random(7)
        agents = [DMWAgent(index, params5,
                           [int(problem53.time(index, task))
                            for task in range(problem53.num_tasks)],
                           rng=random.Random(master.getrandbits(64)))
                  for index in range(params5.num_agents)]
        protocol = DMWProtocol(params5, agents)
        assert protocol._run_auction(0) is None
        checkpoint = ProtocolCheckpoint.capture(protocol,
                                                problem53.num_tasks, 1)
        self._assert_loads_or_named(
            json.loads(serialization.dumps(checkpoint)), single_field_mutants)

    def test_traced_outcome(self, params5, problem53,
                            single_field_mutants):
        recorder = Recorder()
        outcome = run_dmw(problem53, parameters=params5,
                          rng=random.Random(0), recorder=recorder)
        self._assert_loads_or_named(
            json.loads(serialization.dumps(outcome, recorder=recorder)),
            single_field_mutants)
