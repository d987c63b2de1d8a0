"""JSON serialization of instances, schedules, and outcomes.

A downstream user of the library needs to persist and exchange three
kinds of artifacts: problem instances (to rerun experiments), schedules
and payments (the outcome a market actually executes), and full outcome
records including transcripts and cost metrics (for audits and reports).
This module provides stable, versioned JSON encodings for all of them.

Cryptographic material (polynomials, shares, commitments) is deliberately
*not* serializable: persisting secret shares would break the privacy
model, and public commitments are only meaningful inside a live protocol
run (the auditor consumes them in-process via
:func:`repro.core.audit.audit_protocol_run`).
"""

from __future__ import annotations

import functools
import json
import random
from typing import Any, Callable, Dict, List, Optional, TypeVar

from .core.checkpoint import ProtocolCheckpoint, decode_rng_state
from .core.outcome import AuctionTranscript, DMWOutcome
from .crypto.modular import OperationCounter
from .crypto.secret import secret_json_default
from .network.metrics import NetworkMetrics
from .obs.recorder import Event, Recorder
from .scheduling.problem import SchedulingProblem, Task
from .scheduling.schedule import PartialSchedule, Schedule

#: Bumped whenever an encoding changes shape.  Version 5 carries the
#: outcome's ``trace``, ``cache_stats``, ``degraded``/``task_aborts`` and
#: ``parallelism`` fields, partial schedules (``null`` assignment entries
#: for quarantined tasks), and the ``dmw_checkpoint`` document with its
#: completed-auction frontier (``completed_tasks``).  Version 4
#: checkpoints also embedded the public-value cache; version 5 carries
#: protocol state only, and version 4 documents are no longer read.
FORMAT_VERSION = 5

#: Document versions :func:`loads` accepts.
SUPPORTED_VERSIONS = (5,)


class SerializationError(ValueError):
    """Raised on malformed or wrong-version documents."""


class _Fields(dict):
    """A document's top-level fields, remembering the last key read so a
    decoding error can name the field it came from."""

    last: Optional[str] = None

    def __getitem__(self, key: str) -> Any:
        self.last = key
        return super().__getitem__(key)


def _parse(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as error:
        raise SerializationError("not valid JSON: %s" % error) from None


_T = TypeVar("_T")


def _reader(decoder: Callable[[Dict[str, Any]], _T]) -> Callable[[Any], _T]:
    """Make ``decoder`` a public reader: a document that is not an object,
    lacks a key or has a wrong-typed field raises a
    :class:`SerializationError` naming the document type and the key."""

    @functools.wraps(decoder)
    def read(document: Any) -> _T:
        if not isinstance(document, dict):
            raise SerializationError("expected a JSON object")
        fields = _Fields(document)
        kind = document.get("type")
        try:
            return decoder(fields)
        except SerializationError:
            raise
        except KeyError as error:
            key = error.args[0] if error.args else None
            where = "" if key == fields.last else " in field %r" % fields.last
            raise SerializationError("%s document lacks key %r%s"
                                     % (kind, key, where)) from None
        except (TypeError, ValueError, AttributeError,
                OverflowError) as error:
            raise SerializationError(
                "%s document is malformed at field %r: %s"
                % (kind, fields.last, error)) from None
    return read


def _integer(value: Any) -> int:
    """``value``, which must be a JSON integer (``true`` is not one)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError("expected an integer, got %r" % (value,))
    return value


def _flag(value: Any) -> bool:
    """``value``, which must be a JSON boolean."""
    if not isinstance(value, bool):
        raise TypeError("expected true or false, got %r" % (value,))
    return value


def _operations(snapshot: Any) -> Dict[str, int]:
    """An agent's counter snapshot: the five counters, JSON integers."""
    return {key: _integer(snapshot[key])
            for key in OperationCounter.__slots__}


def _rng_state(encoded: Any) -> List[Any]:
    """An agent's encoded ``random`` state, which ``Random.setstate`` must
    accept."""
    if not isinstance(encoded, list):
        raise TypeError("expected a list, got %r" % (encoded,))
    state = decode_rng_state(encoded)
    if not (state[2] is None or isinstance(state[2], float)):
        raise TypeError("expected a float or null, got %r" % (state[2],))
    random.Random(0).setstate(state)
    return list(encoded)


def _check(document: Dict[str, Any], expected_type: str) -> None:
    if document.get("type") != expected_type:
        raise SerializationError(
            "expected type %r, got %r" % (expected_type,
                                          document.get("type"))
        )
    if document.get("version") not in SUPPORTED_VERSIONS:
        raise SerializationError(
            "unsupported format version %r" % document.get("version")
        )


# -- problems -----------------------------------------------------------------

def problem_to_dict(problem: SchedulingProblem) -> Dict[str, Any]:
    """Encode an instance (time matrix + task requirements)."""
    return {
        "type": "scheduling_problem",
        "version": FORMAT_VERSION,
        "times": [list(row) for row in problem.times],
        "requirements": [task.processing_requirement
                         for task in problem.tasks],
    }


@_reader
def problem_from_dict(document: Dict[str, Any]) -> SchedulingProblem:
    """Decode an instance encoded by :func:`problem_to_dict`."""
    _check(document, "scheduling_problem")
    tasks = [Task(index=j, processing_requirement=r)
             for j, r in enumerate(document["requirements"])]
    return SchedulingProblem(document["times"], tasks)


# -- schedules -----------------------------------------------------------------

def schedule_to_dict(schedule) -> Dict[str, Any]:
    """Encode a schedule as its assignment vector.

    Accepts both :class:`~repro.scheduling.schedule.Schedule` and
    :class:`~repro.scheduling.schedule.PartialSchedule`; a partial
    schedule's quarantined tasks appear as ``null`` entries.
    """
    return {
        "type": "schedule",
        "version": FORMAT_VERSION,
        "assignment": list(schedule.assignment),
        "num_agents": schedule.num_agents,
    }


@_reader
def schedule_from_dict(document: Dict[str, Any]):
    """Decode a schedule; ``null`` entries yield a ``PartialSchedule``."""
    _check(document, "schedule")
    assignment = document["assignment"]
    if any(entry is None for entry in assignment):
        return PartialSchedule(assignment, document["num_agents"])
    return Schedule(assignment, document["num_agents"])


# -- outcomes -------------------------------------------------------------------

def _transcript_to_dict(transcript: AuctionTranscript) -> Dict[str, Any]:
    return {
        "task": transcript.task,
        "first_price": transcript.first_price,
        "winner": transcript.winner,
        "second_price": transcript.second_price,
        "valid_aggregate_publishers":
            list(transcript.valid_aggregate_publishers),
        "valid_disclosers": list(transcript.valid_disclosers),
    }


def _transcript_from_dict(document: Dict[str, Any]) -> AuctionTranscript:
    return AuctionTranscript(
        task=document["task"],
        first_price=document["first_price"],
        winner=document["winner"],
        second_price=document["second_price"],
        valid_aggregate_publishers=tuple(
            document["valid_aggregate_publishers"]),
        valid_disclosers=tuple(document["valid_disclosers"]),
    )


def outcome_to_dict(outcome: DMWOutcome,
                    recorder: Optional[Recorder] = None) -> Dict[str, Any]:
    """Encode an outcome: result, transcripts, and cost metrics.

    Abort details are flattened to strings (exception objects do not
    round-trip); metrics keep their full per-kind breakdown.  When a
    :class:`~repro.obs.recorder.Recorder` is supplied, its protocol
    events are embedded (``trace`` key) and survive the round trip —
    recover them with :func:`trace_from_dict`.
    """
    return {
        "type": "dmw_outcome",
        "version": FORMAT_VERSION,
        "completed": outcome.completed,
        "schedule": (schedule_to_dict(outcome.schedule)
                     if outcome.schedule is not None else None),
        "payments": (list(outcome.payments)
                     if outcome.payments is not None else None),
        "transcripts": [_transcript_to_dict(t) for t in outcome.transcripts],
        "abort": (_abort_to_dict(outcome.abort)
                  if outcome.abort is not None else None),
        "network_metrics": outcome.network_metrics.as_dict(),
        "agent_operations": list(outcome.agent_operations),
        "cache_stats": dict(outcome.cache_stats),
        "degraded": outcome.degraded,
        "task_aborts": {str(task): _abort_to_dict(abort)
                        for task, abort in sorted(
                            outcome.task_aborts.items())},
        "parallelism": dict(outcome.parallelism),
        "trace": ([event.to_dict() for event in recorder.events]
                  if recorder is not None else None),
    }


def _abort_to_dict(abort) -> Dict[str, Any]:
    return {
        "reason": abort.reason,
        "phase": abort.phase,
        "task": abort.task,
        "detected_by": abort.detected_by,
        "offender": abort.offender,
    }


def _abort_from_dict(raw: Dict[str, Any]):
    from .core.exceptions import ProtocolAbort
    return ProtocolAbort(reason=raw["reason"], phase=raw["phase"],
                         task=raw["task"], detected_by=raw["detected_by"],
                         offender=raw["offender"])


@_reader
def outcome_from_dict(document: Dict[str, Any]) -> DMWOutcome:
    """Decode an outcome.

    The network metrics are restored as totals (per-kind counts included);
    an abort record is restored as a plain
    :class:`~repro.core.exceptions.ProtocolAbort`.
    """
    _check(document, "dmw_outcome")
    metrics = NetworkMetrics.from_dict(document["network_metrics"])

    abort = None
    if document["abort"] is not None:
        abort = _abort_from_dict(document["abort"])

    return DMWOutcome(
        completed=document["completed"],
        schedule=(schedule_from_dict(document["schedule"])
                  if document["schedule"] is not None else None),
        payments=(tuple(document["payments"])
                  if document["payments"] is not None else None),
        transcripts=[_transcript_from_dict(t)
                     for t in document["transcripts"]],
        abort=abort,
        network_metrics=metrics,
        agent_operations=list(document["agent_operations"]),
        cache_stats=dict(document["cache_stats"]),
        degraded=bool(document["degraded"]),
        task_aborts={int(task): _abort_from_dict(raw)
                     for task, raw in document["task_aborts"].items()},
        parallelism=dict(document["parallelism"]),
    )


@_reader
def trace_from_dict(document: Dict[str, Any]) -> Optional[List[Event]]:
    """Recover the embedded protocol events from an outcome document.

    Returns ``None`` when the document was written without them.
    """
    _check(document, "dmw_outcome")
    events = document["trace"]
    if events is None:
        return None
    return [Event.from_dict(event) for event in events]


# -- checkpoints ----------------------------------------------------------------

def checkpoint_to_dict(checkpoint: ProtocolCheckpoint) -> Dict[str, Any]:
    """Encode a :class:`~repro.core.checkpoint.ProtocolCheckpoint`.

    The rng states are the JSON encodings produced by
    :func:`repro.core.checkpoint.encode_rng_state`; no cryptographic
    secret appears in the document (see the module docstring of
    :mod:`repro.core.checkpoint`).
    """
    return {
        "type": "dmw_checkpoint",
        "version": FORMAT_VERSION,
        "num_tasks": checkpoint.num_tasks,
        "next_task": checkpoint.next_task,
        "degraded": checkpoint.degraded,
        "num_agents": checkpoint.num_agents,
        "transcripts": [_transcript_to_dict(t)
                        for t in checkpoint.transcripts],
        "task_aborts": {str(task): _abort_to_dict(abort)
                        for task, abort in sorted(
                            checkpoint.task_aborts.items())},
        "agent_rng_states": [list(state)
                             for state in checkpoint.agent_rng_states],
        "agent_operations": list(checkpoint.agent_operations),
        "network_metrics": dict(checkpoint.network_metrics),
        "round_index": checkpoint.round_index,
        "timeout_state": dict(checkpoint.timeout_state),
        "completed_tasks": list(checkpoint.completed_tasks),
    }


@_reader
def checkpoint_from_dict(document: Dict[str, Any]) -> ProtocolCheckpoint:
    """Decode a checkpoint document written by :func:`checkpoint_to_dict`."""
    _check(document, "dmw_checkpoint")
    return ProtocolCheckpoint(
        num_tasks=_integer(document["num_tasks"]),
        next_task=_integer(document["next_task"]),
        degraded=_flag(document["degraded"]),
        num_agents=_integer(document["num_agents"]),
        transcripts=[_transcript_from_dict(t)
                     for t in document["transcripts"]],
        task_aborts={int(task): _abort_from_dict(raw)
                     for task, raw in document["task_aborts"].items()},
        agent_rng_states=[_rng_state(state)
                          for state in document["agent_rng_states"]],
        agent_operations=[_operations(snapshot)
                          for snapshot in document["agent_operations"]],
        network_metrics=dict(document["network_metrics"]),
        round_index=_integer(document["round_index"]),
        timeout_state=dict(document["timeout_state"]),
        completed_tasks=list(document["completed_tasks"]),
    )


def save_checkpoint(checkpoint: ProtocolCheckpoint, path: str) -> None:
    """Write a checkpoint document to ``path`` (atomic via temp+rename,
    so a crash mid-write never corrupts the previous checkpoint).

    Compact, one line: without ``indent`` the C JSON encoder runs, and a
    checkpoint is rewritten after every task."""
    import os
    text = json.dumps(checkpoint_to_dict(checkpoint), sort_keys=True,
                      default=secret_json_default)
    temp_path = path + ".tmp"
    with open(temp_path, "w") as handle:
        handle.write(text + "\n")
    os.replace(temp_path, path)


def load_checkpoint(path: str) -> ProtocolCheckpoint:
    """Load a checkpoint document written by :func:`save_checkpoint`.

    Raises :class:`SerializationError` for anything but a well-formed
    current-version checkpoint, and ``OSError`` when the file cannot be
    read.
    """
    with open(path) as handle:
        return checkpoint_from_dict(_parse(handle.read()))


# -- file helpers -----------------------------------------------------------------

_ENCODERS = {
    SchedulingProblem: problem_to_dict,
    Schedule: schedule_to_dict,
    PartialSchedule: schedule_to_dict,
    DMWOutcome: outcome_to_dict,
    ProtocolCheckpoint: checkpoint_to_dict,
}

_DECODERS = {
    "scheduling_problem": problem_from_dict,
    "schedule": schedule_from_dict,
    "dmw_outcome": outcome_from_dict,
    "dmw_checkpoint": checkpoint_from_dict,
}


def dumps(artifact, recorder: Optional[Recorder] = None) -> str:
    """Serialize any supported artifact to a JSON string.

    ``recorder`` embeds its protocol events into outcome documents;
    passing it with any other artifact type is an error.
    """
    if recorder is not None and not isinstance(artifact, DMWOutcome):
        raise SerializationError(
            "trace embedding is only supported for DMWOutcome artifacts")
    for kind, encoder in _ENCODERS.items():
        if isinstance(artifact, kind):
            if isinstance(artifact, DMWOutcome):
                document = outcome_to_dict(artifact, recorder=recorder)
            else:
                document = encoder(artifact)
            # default=secret_json_default turns an accidental Secret in a
            # document into SecretLeakError instead of a bare TypeError.
            return json.dumps(document, indent=2, sort_keys=True,
                              default=secret_json_default)
    raise SerializationError("cannot serialize %r" % type(artifact).__name__)


def loads(text: str):
    """Deserialize a JSON string produced by :func:`dumps`.

    Raises :class:`SerializationError` for invalid JSON, an unknown or
    wrong-version document, a missing key or a wrong-typed field.
    """
    document = _parse(text)
    if not isinstance(document, dict) or "type" not in document:
        raise SerializationError("not a repro document")
    kind = document["type"]
    decoder = _DECODERS.get(kind) if isinstance(kind, str) else None
    if decoder is None:
        raise SerializationError("unknown document type %r" % (kind,))
    return decoder(document)


def save(artifact, path: str,
         recorder: Optional[Recorder] = None) -> None:
    """Serialize ``artifact`` to a file (``recorder`` as for :func:`dumps`)."""
    with open(path, "w") as handle:
        handle.write(dumps(artifact, recorder=recorder) + "\n")


def load(path: str):
    """Load an artifact serialized by :func:`save`."""
    with open(path) as handle:
        return loads(handle.read())


def load_trace(path: str) -> Optional[List[Event]]:
    """Load the embedded events of a saved outcome (``None`` if absent)."""
    with open(path) as handle:
        return trace_from_dict(_parse(handle.read()))
