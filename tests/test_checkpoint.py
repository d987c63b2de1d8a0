"""Checkpoint/resume: serialize protocol state at auction boundaries.

An execution interrupted after auction ``k`` and resumed from its
checkpoint in a *fresh* process produces an outcome identical to the
uninterrupted run: schedule, payments, transcripts, per-agent operation
counters and network metrics all match exactly.  A format version 5
checkpoint holds protocol state only, no public-value cache, so a
resumed run's ``cache_stats`` describe the resuming process alone and
are not compared.  Process-pool checkpointing is covered by
``tests/test_process_pool.py``.
"""

import json
import os
import random
import subprocess
import sys

import pytest

from repro import serialization
from repro.core import (
    DMWAgent,
    DMWProtocol,
    ProtocolCheckpoint,
)
from repro.core.checkpoint import decode_rng_state, encode_rng_state
from repro.core.exceptions import ParameterError
from repro.obs import Recorder, run_report, validate_run_report
from repro.scheduling.problem import SchedulingProblem


@pytest.fixture()
def problem():
    return SchedulingProblem([
        [1, 2, 3],
        [2, 1, 3],
        [3, 2, 1],
        [1, 3, 2],
        [2, 2, 2],
    ])


def make_agents(params, problem, seed=7):
    master = random.Random(seed)
    return [
        DMWAgent(i, params,
                 [int(problem.time(i, j))
                  for j in range(problem.num_tasks)],
                 rng=random.Random(master.getrandbits(64)))
        for i in range(5)
    ]


@pytest.fixture()
def baseline(params5, problem):
    protocol = DMWProtocol(params5, make_agents(params5, problem))
    return protocol.execute(problem.num_tasks)


#: Every key of a version 5 checkpoint document: protocol state only.
CHECKPOINT_KEYS = {
    "type", "version", "num_tasks", "next_task", "degraded", "num_agents",
    "transcripts", "task_aborts", "agent_rng_states", "agent_operations",
    "network_metrics", "round_index", "timeout_state", "completed_tasks",
}


def checkpoint_after(params, problem, completed_tasks, path):
    """Run auctions 0..completed_tasks-1 and checkpoint (a simulated
    crash right after the boundary)."""
    protocol = DMWProtocol(params, make_agents(params, problem))
    for task in range(completed_tasks):
        assert protocol._run_auction(task) is None
    checkpoint = ProtocolCheckpoint.capture(protocol, problem.num_tasks,
                                            completed_tasks)
    serialization.save_checkpoint(checkpoint, path)
    return checkpoint


class TestRngStateCodec:
    def test_round_trip_preserves_the_stream(self):
        rng = random.Random(12345)
        rng.random()  # advance past the seed state
        encoded = encode_rng_state(rng.getstate())
        expected = [rng.random() for _ in range(5)]
        fresh = random.Random()
        fresh.setstate(decode_rng_state(encoded))
        assert [fresh.random() for _ in range(5)] == expected

    def test_encoded_state_is_json_serializable(self):
        encoded = encode_rng_state(random.Random(1).getstate())
        assert json.loads(json.dumps(encoded)) == encoded


class TestCheckpointDocument:
    def test_round_trip_through_json(self, params5, problem, tmp_path):
        path = str(tmp_path / "cp.json")
        checkpoint = checkpoint_after(params5, problem, 1, path)
        loaded = serialization.load_checkpoint(path)
        assert loaded.num_tasks == checkpoint.num_tasks
        assert loaded.next_task == 1
        assert loaded.degraded == checkpoint.degraded
        assert loaded.num_agents == 5
        assert loaded.agent_rng_states == checkpoint.agent_rng_states
        assert loaded.agent_operations == checkpoint.agent_operations
        assert loaded.network_metrics == checkpoint.network_metrics
        assert loaded.completed_tasks == checkpoint.completed_tasks
        assert loaded.completed_set() == {0}

    def test_version3_document_is_rejected(self, params5, problem,
                                           tmp_path):
        """Pre-frontier documents are no longer read."""
        path = str(tmp_path / "cp.json")
        checkpoint_after(params5, problem, 2, path)
        with open(path) as handle:
            document = json.load(handle)
        assert document["version"] == 5
        assert set(document) == CHECKPOINT_KEYS
        document["version"] = 3
        document.pop("completed_tasks")
        with pytest.raises(serialization.SerializationError,
                           match="version 3"):
            serialization.checkpoint_from_dict(document)

    @pytest.mark.parametrize("kind", ["checkpoint", "outcome"])
    def test_version4_document_is_rejected(self, params5, problem,
                                           tmp_path, kind):
        """Version 4 documents (whose checkpoints embedded the
        public-value cache) are no longer read, whatever they carry."""
        if kind == "checkpoint":
            path = str(tmp_path / "cp.json")
            checkpoint_after(params5, problem, 1, path)
            with open(path) as handle:
                document = json.load(handle)
        else:
            outcome = DMWProtocol(params5, make_agents(
                params5, problem)).execute(problem.num_tasks)
            document = json.loads(serialization.dumps(outcome))
        document["version"] = 4
        with pytest.raises(serialization.SerializationError,
                           match="version 4"):
            serialization.loads(json.dumps(document))

    def test_document_is_versioned(self, params5, problem, tmp_path):
        path = str(tmp_path / "cp.json")
        checkpoint_after(params5, problem, 1, path)
        with open(path) as handle:
            document = json.load(handle)
        assert document["type"] == "dmw_checkpoint"
        assert document["version"] == serialization.FORMAT_VERSION

    def test_checkpoint_write_is_atomic(self, params5, problem, tmp_path):
        """No stray temp file is left next to the checkpoint."""
        path = str(tmp_path / "cp.json")
        checkpoint_after(params5, problem, 1, path)
        assert sorted(os.listdir(tmp_path)) == ["cp.json"]


class TestResume:
    def test_checkpointing_run_matches_plain_run(self, params5, problem,
                                                 baseline, tmp_path):
        path = str(tmp_path / "cp.json")
        protocol = DMWProtocol(params5, make_agents(params5, problem))
        outcome = protocol.execute(problem.num_tasks, checkpoint_path=path)
        assert outcome.schedule.assignment == baseline.schedule.assignment
        assert list(outcome.payments) == list(baseline.payments)
        assert outcome.agent_operations == baseline.agent_operations
        assert outcome.network_metrics.as_dict() == \
            baseline.network_metrics.as_dict()
        assert os.path.exists(path)

    @pytest.mark.parametrize("boundary", [1, 2])
    def test_resumed_run_is_identical_to_uninterrupted(
            self, params5, problem, baseline, tmp_path, boundary):
        path = str(tmp_path / "cp.json")
        checkpoint_after(params5, problem, boundary, path)
        loaded = serialization.load_checkpoint(path)
        fresh = DMWProtocol(params5, make_agents(params5, problem))
        outcome = fresh.execute(problem.num_tasks, resume=loaded)
        assert outcome.completed
        assert outcome.schedule.assignment == baseline.schedule.assignment
        assert list(outcome.payments) == list(baseline.payments)
        assert outcome.transcripts == baseline.transcripts
        assert outcome.agent_operations == baseline.agent_operations
        assert outcome.network_metrics.as_dict() == \
            baseline.network_metrics.as_dict()

    def test_resume_at_final_boundary_runs_zero_auctions(
            self, params5, problem, baseline, tmp_path):
        path = str(tmp_path / "cp.json")
        checkpoint_after(params5, problem, problem.num_tasks, path)
        loaded = serialization.load_checkpoint(path)
        fresh = DMWProtocol(params5, make_agents(params5, problem))
        outcome = fresh.execute(problem.num_tasks, resume=loaded)
        assert outcome.completed
        assert outcome.transcripts == baseline.transcripts
        assert list(outcome.payments) == list(baseline.payments)

    @pytest.mark.parametrize("boundary", [1, 2])
    def test_crashed_run_resumes_to_identical_results(self, params5,
                                                      problem, baseline,
                                                      tmp_path, boundary):
        """A run crashed inside ``execute`` resumes exactly from the
        checkpoint it wrote, which holds no public-value cache: every
        protocol result matches, and ``cache_stats`` (a diagnostic of
        one process) are not compared."""
        path = str(tmp_path / "cp.json")
        crash = DMWProtocol(params5, make_agents(params5, problem))
        original = crash._run_auction
        completed = []

        def interrupted(task):
            if len(completed) == boundary:
                raise RuntimeError("simulated crash")
            completed.append(task)
            return original(task)

        crash._run_auction = interrupted
        with pytest.raises(RuntimeError):
            crash.execute(problem.num_tasks, checkpoint_path=path)
        with open(path) as handle:
            assert set(json.load(handle)) == CHECKPOINT_KEYS
        loaded = serialization.load_checkpoint(path)
        assert loaded.completed_set() == set(range(boundary))
        fresh = DMWProtocol(params5, make_agents(params5, problem))
        outcome = fresh.execute(problem.num_tasks, resume=loaded)
        assert outcome.completed
        assert outcome.transcripts == baseline.transcripts
        assert list(outcome.payments) == list(baseline.payments)
        assert outcome.agent_operations == baseline.agent_operations
        assert outcome.network_metrics.as_dict() == \
            baseline.network_metrics.as_dict()


class TestResumedReport:
    """A resumed run's report validates: one ``restored`` phase span
    carries the checkpoint's totals, so the phase spans still sum to the
    grand totals."""

    @pytest.mark.parametrize("workers", [None, 1],
                             ids=["sequential", "pool"])
    def test_resumed_report_validates(self, params5, problem, tmp_path,
                                      workers):
        path = str(tmp_path / "cp.json")
        checkpoint_after(params5, problem, 1, path)
        loaded = serialization.load_checkpoint(path)
        agents = make_agents(params5, problem)
        recorder = Recorder()
        outcome = DMWProtocol(params5, agents, recorder=recorder).execute(
            problem.num_tasks, resume=loaded, parallel=workers is not None,
            workers=workers)
        assert outcome.completed
        document = run_report(outcome, agents=agents, recorder=recorder,
                              parameters=params5)
        validate_run_report(document)
        phases = [span for span in document["spans"]
                  if span["kind"] == "phase"]
        assert phases[0]["name"] == "restored"
        assert phases[0]["network"] == loaded.network_metrics
        totals = document["totals"]
        for key, total in totals["network"].items():
            assert sum(span["network"].get(key, 0)
                       for span in phases) == total
        for key, total in totals["operations"].items():
            assert sum(span["operations"].get(key, 0)
                       for span in phases) == total


class TestResumeValidation:
    def test_workers_without_parallel_is_rejected(self, params5, problem):
        protocol = DMWProtocol(params5, make_agents(params5, problem))
        with pytest.raises(ParameterError):
            protocol.execute(problem.num_tasks, workers=2)

    def test_nonpositive_workers_is_rejected(self, params5, problem):
        protocol = DMWProtocol(params5, make_agents(params5, problem))
        with pytest.raises(ParameterError):
            protocol.execute(problem.num_tasks, parallel=True, workers=0)

    def test_parallel_with_checkpoint_uses_the_pool(self, params5, problem,
                                                    baseline, tmp_path):
        """Previously rejected; now routed through the process pool."""
        path = str(tmp_path / "cp.json")
        protocol = DMWProtocol(params5, make_agents(params5, problem))
        outcome = protocol.execute(problem.num_tasks, parallel=True,
                                   workers=1, checkpoint_path=path)
        assert outcome.completed
        assert outcome.parallelism["workers"] == 1
        assert outcome.transcripts == baseline.transcripts
        loaded = serialization.load_checkpoint(path)
        assert loaded.completed_set() == set(range(problem.num_tasks))

    def test_num_tasks_mismatch_is_rejected(self, params5, problem,
                                            tmp_path):
        path = str(tmp_path / "cp.json")
        checkpoint_after(params5, problem, 1, path)
        loaded = serialization.load_checkpoint(path)
        protocol = DMWProtocol(params5, make_agents(params5, problem))
        with pytest.raises(ParameterError):
            protocol.execute(problem.num_tasks + 1, resume=loaded)

    def test_degraded_mismatch_is_rejected(self, params5, problem,
                                           tmp_path):
        path = str(tmp_path / "cp.json")
        checkpoint_after(params5, problem, 1, path)
        loaded = serialization.load_checkpoint(path)
        protocol = DMWProtocol(params5, make_agents(params5, problem))
        with pytest.raises(ParameterError):
            protocol.execute(problem.num_tasks, degraded=True, resume=loaded)

    def test_agent_count_mismatch_is_rejected(self, params4, params5,
                                              problem, problem42, tmp_path):
        path = str(tmp_path / "cp.json")
        checkpoint_after(params5, problem, 1, path)
        loaded = serialization.load_checkpoint(path)
        master = random.Random(7)
        agents = [
            DMWAgent(i, params4,
                     [int(problem42.time(i, j)) for j in range(2)],
                     rng=random.Random(master.getrandbits(64)))
            for i in range(4)
        ]
        protocol = DMWProtocol(params4, agents)
        with pytest.raises(ParameterError):
            loaded.apply(protocol)

    @pytest.mark.parametrize("field", ["agent_rng_states",
                                       "agent_operations"])
    def test_short_per_agent_list_is_rejected(self, params5, problem,
                                              tmp_path, field):
        """A per-agent list that misses agents raises before any state
        is touched; ``zip`` would otherwise skip the agents past its
        end and the run would complete with wrong counters."""
        path = str(tmp_path / "cp.json")
        checkpoint_after(params5, problem, 1, path)
        with open(path) as handle:
            document = json.load(handle)
        document[field] = document[field][:2]
        loaded = serialization.checkpoint_from_dict(document)
        agents = make_agents(params5, problem)
        before = [(agent.rng.getstate(), agent.counter.snapshot())
                  for agent in agents]
        protocol = DMWProtocol(params5, agents)
        with pytest.raises(ParameterError, match="for 5 agents"):
            protocol.execute(problem.num_tasks, resume=loaded)
        assert [(agent.rng.getstate(), agent.counter.snapshot())
                for agent in agents] == before
        assert protocol._transcripts == []


class TestCompactCheckpoint:
    def test_checkpoint_is_one_line_that_round_trips(self, params5, problem,
                                                     tmp_path):
        """No ``indent``: the C JSON encoder writes the whole document."""
        path = str(tmp_path / "cp.json")
        checkpoint = checkpoint_after(params5, problem, 2, path)
        with open(path) as handle:
            text = handle.read()
        assert text.endswith("\n") and text.count("\n") == 1
        assert serialization.load_checkpoint(path) == checkpoint


class TestMalformedCheckpoint:
    """A truncated or wrong-typed checkpoint fails with a
    ``SerializationError`` naming the document type and the key, and
    ``dmw run --resume`` turns it into one line on stderr."""

    def document(self, params5, problem, tmp_path):
        path = str(tmp_path / "cp.json")
        checkpoint_after(params5, problem, 1, path)
        with open(path) as handle:
            return path, json.load(handle)

    def test_wrong_typed_field_names_the_key(self, params5, problem,
                                             tmp_path):
        path, document = self.document(params5, problem, tmp_path)
        document["transcripts"] = 3
        message = "dmw_checkpoint document is malformed at field 'transcripts'"
        with pytest.raises(serialization.SerializationError, match=message):
            serialization.loads(json.dumps(document))
        with open(path, "w") as handle:
            json.dump(document, handle)
        with pytest.raises(serialization.SerializationError, match=message):
            serialization.load_checkpoint(path)

    @pytest.mark.parametrize("field,value", [
        ("num_tasks", "3"),
        ("next_task", "1"),
        ("num_agents", 5.0),
        ("round_index", True),
        ("degraded", "no"),
    ])
    def test_wrong_typed_scalar_names_the_key(self, params5, problem,
                                              tmp_path, field, value):
        """Counts and indices must be JSON integers and ``degraded`` a
        JSON boolean; anything else would fail later, far from the
        document, or (``"no"``) decode silently as true."""
        _, document = self.document(params5, problem, tmp_path)
        document[field] = value
        with pytest.raises(serialization.SerializationError,
                           match="dmw_checkpoint document is malformed at "
                                 "field '%s'" % field):
            serialization.loads(json.dumps(document))

    def test_nested_missing_key_names_its_field(self, params5, problem,
                                                tmp_path):
        _, document = self.document(params5, problem, tmp_path)
        del document["transcripts"][0]["winner"]
        with pytest.raises(serialization.SerializationError,
                           match="lacks key 'winner' in field "
                                 "'transcripts'"):
            serialization.loads(json.dumps(document))

    @pytest.mark.parametrize("edit,message", [
        (lambda d: d["agent_operations"].__setitem__(
            0, {"multiplications": 3}),
         "lacks key 'additions' in field 'agent_operations'"),
        (lambda d: d["agent_operations"][1].__setitem__("additions", "7"),
         "is malformed at field 'agent_operations': expected an integer, "
         "got '7'"),
        (lambda d: d["agent_rng_states"].__setitem__(0, [3, [1, 2], None]),
         "is malformed at field 'agent_rng_states': state vector is the "
         "wrong size"),
        (lambda d: d["agent_rng_states"][2][1].__setitem__(0, -1),
         "is malformed at field 'agent_rng_states'"),
        (lambda d: d["agent_rng_states"][3].__setitem__(2, "0.5"),
         "is malformed at field 'agent_rng_states': expected a float or "
         "null"),
    ], ids=["counter-missing", "counter-string", "short-state",
            "negative-word", "gauss-string"])
    def test_wrong_shaped_agent_entry_names_the_field(self, params5, problem,
                                                      tmp_path, edit,
                                                      message):
        """Each agent's counters must be the five JSON integers and its
        rng state one ``random`` accepts; otherwise the resume would end
        in a traceback, at once or mid-run."""
        _, document = self.document(params5, problem, tmp_path)
        edit(document)
        with pytest.raises(serialization.SerializationError,
                           match="dmw_checkpoint document " + message):
            serialization.loads(json.dumps(document))

    def test_cli_resume_with_other_agent_count(self, tmp_path):
        """A checkpoint that does not fit the run is one line on stderr;
        any other ``ParameterError`` keeps its own message."""
        path = tmp_path / "cp.json"
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        command = [sys.executable, "-m", "repro", "run", "--tasks", "3"]
        env = {**os.environ, "PYTHONPATH": os.path.join(root, "src")}
        subprocess.run(command + ["--agents", "4", "--checkpoint", str(path)],
                       cwd=root, capture_output=True, check=True, env=env)
        result = subprocess.run(
            command + ["--agents", "5", "--resume", str(path)], cwd=root,
            capture_output=True, text=True, env=env)
        assert result.returncode != 0
        assert result.stderr.splitlines() == [
            "cannot resume from %s: checkpoint was taken with 4 agents, "
            "protocol has 5" % path]
        result = subprocess.run(
            command + ["--agents", "4", "--resume", str(path), "--parallel",
                       "--workers", "0"], cwd=root, capture_output=True,
            text=True, env=env)
        assert result.returncode != 0
        assert "cannot resume" not in result.stderr
        assert result.stderr.splitlines()[-1] == (
            "repro.core.exceptions.ParameterError: workers must be >= 1, "
            "got 0")

    def test_cut_file_is_not_valid_json(self, params5, problem, tmp_path):
        path, _ = self.document(params5, problem, tmp_path)
        with open(path) as handle:
            text = handle.read()
        with open(path, "w") as handle:
            handle.write(text[:len(text) // 2])
        with pytest.raises(serialization.SerializationError,
                           match="not valid JSON"):
            serialization.load_checkpoint(path)

    def test_cli_resume_from_truncated_checkpoint(self, tmp_path):
        path = tmp_path / "trunc.json"
        path.write_text('{"type": "dmw_checkpoint", "version": 5}')
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        result = subprocess.run(
            [sys.executable, "-m", "repro", "run", "--agents", "4",
             "--tasks", "2", "--resume", str(path)],
            cwd=root, capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": os.path.join(root, "src")})
        assert result.returncode != 0
        assert result.stderr.splitlines() == [
            "cannot resume from %s: dmw_checkpoint document lacks key "
            "'num_tasks'" % path]

    def test_cli_resume_from_wrong_typed_checkpoint(self, tmp_path):
        path = tmp_path / "cp.json"
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        command = [sys.executable, "-m", "repro", "run", "--agents", "4",
                   "--tasks", "3"]
        env = {**os.environ, "PYTHONPATH": os.path.join(root, "src")}
        subprocess.run(command + ["--checkpoint", str(path)], cwd=root,
                       capture_output=True, check=True, env=env)
        document = json.loads(path.read_text())
        document["next_task"] = "1"
        path.write_text(json.dumps(document))
        result = subprocess.run(command + ["--resume", str(path)], cwd=root,
                                capture_output=True, text=True, env=env)
        assert result.returncode != 0
        assert result.stderr.splitlines() == [
            "cannot resume from %s: dmw_checkpoint document is malformed "
            "at field 'next_task': expected an integer, got '1'" % path]
