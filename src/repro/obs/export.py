"""The exporters: every artefact that leaves the process is a view of one
:class:`~repro.obs.recorder.Recorder`.

* :func:`run_report` — one JSON document per ``execute()`` with a stable,
  versioned schema (``type: "dmw_run_report"``): outcome summary, grand
  totals, cache statistics, the metrics registry dump, and the recorder's
  spans and protocol events, each stored once.
  :func:`validate_run_report` checks a document against the schema —
  used by tests, the service and the CI obs smoke job, with no external
  dependency.
* :func:`MetricsRegistry.to_prometheus` (re-exported here as
  :func:`to_prometheus`) — the text exposition format;
  :func:`parse_prometheus` is the matching round-trip parser used by
  tests and the CI format check.
* :func:`to_chrome_trace` — a Chrome Trace Event document (loadable in
  Perfetto or ``chrome://tracing``): spans as duration events and
  protocol events as instants on the protocol track, message events as
  instants on per-agent tracks.

Schema documentation lives in ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
from typing import Any, Dict, List, Optional, Tuple

from ..crypto import backend as crypto_backend
from .metrics import MetricsRegistry, registry_for_run
from .recorder import KIND_PHASE, MESSAGE_EVENT_TYPES, Recorder

#: Bumped whenever the run-report schema changes shape.  Version 5 stores
#: each record once: one ``events`` list holds every protocol event, the
#: ``spans`` list holds every span (the phase partition is read from its
#: phase-kind spans), and the v4 ``trace`` and ``phases`` copies are gone.
#: ``resilience`` (retry/quarantine accounting, exact zeros on fault-free
#: runs), ``parallelism`` (process-pool driver metadata, empty for the
#: in-process drivers), ``flight_summary`` (the message-event tallies,
#: empty when messages were not recorded), ``profile`` (per-phase
#: cProfile hotspots, empty without ``--profile``) and ``provenance``
#: (package version, arithmetic backend, git commit when available) are
#: as in version 4.
REPORT_VERSION = 5

#: Versions :func:`validate_run_report` accepts.
_ACCEPTED_VERSIONS = (5,)


def _sum_operations(agent_operations) -> Dict[str, int]:
    totals: Dict[str, int] = {}
    for snapshot in agent_operations:
        for key, value in snapshot.items():
            totals[key] = totals.get(key, 0) + value
    return totals


def run_report(outcome: Any,
               agents: Optional[Any] = None,
               recorder: Optional[Recorder] = None,
               registry: Optional[MetricsRegistry] = None,
               parameters: Optional[Any] = None,
               audit_report: Optional[Any] = None) -> Dict[str, Any]:
    """Build the JSON run-report document for one finished execution.

    Only ``outcome`` is required; every other source enriches the report
    when available.  When ``registry`` is omitted one is built via
    :func:`~repro.obs.metrics.registry_for_run` from the same inputs.
    """
    if registry is None:
        registry = registry_for_run(outcome, agents=agents,
                                    recorder=recorder,
                                    audit_report=audit_report)
    profiler = recorder.profiler if recorder is not None else None
    return {
        "type": "dmw_run_report",
        "version": REPORT_VERSION,
        "params": _params_summary(parameters, outcome),
        "completed": outcome.completed,
        "abort": ({
            "reason": outcome.abort.reason,
            "phase": outcome.abort.phase,
            "task": outcome.abort.task,
            "detected_by": outcome.abort.detected_by,
            "offender": outcome.abort.offender,
        } if outcome.abort is not None else None),
        "schedule": (list(outcome.schedule.assignment)
                     if outcome.schedule is not None else None),
        "payments": (list(outcome.payments)
                     if outcome.payments is not None else None),
        "totals": {
            "operations": _sum_operations(outcome.agent_operations),
            "operations_per_agent": [dict(snapshot) for snapshot
                                     in outcome.agent_operations],
            "network": outcome.network_metrics.as_dict(),
        },
        "cache": dict(getattr(outcome, "cache_stats", None) or {}),
        "resilience": resilience_summary(outcome),
        "parallelism": dict(getattr(outcome, "parallelism", None) or {}),
        "spans": ([span.to_dict() for span in recorder.spans]
                  if recorder is not None else []),
        "events": ([event.to_dict() for event in recorder.events]
                   if recorder is not None else []),
        "metrics": registry.as_dict(),
        "flight_summary": (recorder.message_summary()
                           if recorder is not None
                           and recorder.records_messages else {}),
        "profile": profiler.report() if profiler is not None else {},
        "provenance": provenance_summary(),
    }


_GIT_COMMIT_CACHE: List[Optional[str]] = []


def _git_commit() -> Optional[str]:
    """The current git commit hash, or ``None`` outside a work tree.

    Memoized per process: provenance is stamped on every report and a
    subprocess per call would dominate small runs.
    """
    if not _GIT_COMMIT_CACHE:
        commit: Optional[str] = None
        try:
            result = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=os.path.dirname(os.path.abspath(__file__)),
                capture_output=True, text=True, timeout=5, check=False)
            if result.returncode == 0 and result.stdout.strip():
                commit = result.stdout.strip()
        except Exception:
            commit = None
        _GIT_COMMIT_CACHE.append(commit)
    return _GIT_COMMIT_CACHE[0]


def provenance_summary() -> Dict[str, Any]:
    """The ``provenance`` section: who/what produced this document.

    ``package_version`` and ``arithmetic_backend`` are always present;
    ``git_commit`` appears when the package runs from a git work tree.
    """
    try:
        # Imported lazily: ``repro.__version__`` is assigned after the
        # package's re-exports, so a module-level import here would see a
        # partially-initialized package during startup.
        from .. import __version__ as package_version
    except Exception:
        package_version = "unknown"
    provenance: Dict[str, Any] = {
        "package_version": package_version,
        "arithmetic_backend": crypto_backend.ACTIVE.name,
        "python_version": platform.python_version(),
    }
    commit = _git_commit()
    if commit is not None:
        provenance["git_commit"] = commit
    return provenance


def resilience_summary(outcome: Any) -> Dict[str, Any]:
    """The resilience section of the run report (``docs/RESILIENCE.md``).

    Every field is exactly zero/false/empty on a fault-free run, so
    retries and quarantines can never silently leak into the headline
    Theorem 11/12 accounting.
    """
    metrics = outcome.network_metrics
    task_aborts = getattr(outcome, "task_aborts", {}) or {}
    return {
        "retransmissions": getattr(metrics, "retransmissions", 0),
        "recovered_messages": getattr(metrics, "recovered_messages", 0),
        "degraded": bool(getattr(outcome, "degraded", False)),
        "quarantined_tasks": sorted(task_aborts),
        "task_aborts": {
            str(task): {
                "reason": abort.reason,
                "phase": abort.phase,
                "detected_by": abort.detected_by,
                "offender": abort.offender,
            }
            for task, abort in sorted(task_aborts.items())
        },
    }


def _params_summary(parameters: Optional[Any],
                    outcome: Any) -> Dict[str, Any]:
    summary: Dict[str, Any] = {
        "num_agents": len(outcome.agent_operations) or None,
        "num_tasks": len(outcome.transcripts) or None,
    }
    if parameters is not None:
        summary.update({
            "num_agents": parameters.num_agents,
            "fault_bound": parameters.fault_bound,
            "bid_values": list(parameters.bid_values),
            "sigma": parameters.sigma,
            "p_bits": parameters.group.p_bits,
            "verification_mode": parameters.verification_mode,
            "share_verification_mode": parameters.share_verification_mode,
        })
    # Execution-environment provenance: which arithmetic engine computed
    # the (backend-invariant) values of this run.
    summary["arithmetic_backend"] = crypto_backend.ACTIVE.name
    return summary


def write_run_report(path: str, document: Dict[str, Any]) -> None:
    """Serialize a run-report document to ``path`` (pretty, sorted keys)."""
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


# ---------------------------------------------------------------------------
# Schema validation (dependency-free)
# ---------------------------------------------------------------------------

class ReportSchemaError(ValueError):
    """Raised when a run-report document violates the schema."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ReportSchemaError(message)


_COUNTER_KEYS = ("additions", "multiplications", "inversions",
                 "exponentiations", "multiplication_work")
_NETWORK_KEYS = ("point_to_point_messages", "broadcast_events",
                 "field_elements", "rounds")
_SPAN_KEYS = ("span_id", "parent_id", "name", "kind", "task", "start_s",
              "end_s", "duration_s", "attributes", "operations", "network")
_EVENT_KEYS = ("seq", "kind", "task", "span_id", "timestamp_s", "detail")


def validate_run_report(document: Any) -> None:
    """Validate a run-report document; raises :class:`ReportSchemaError`.

    Checks structural shape *and* the accounting invariant: the deltas of
    the phase-kind spans must sum exactly to the run's grand totals
    whenever phase spans are present.  A value of the wrong type deep in
    a section (an event that is not an object, a span whose ``network``
    is ``null``) also raises :class:`ReportSchemaError`, naming the
    top-level field it sits in.
    """
    _require(isinstance(document, dict), "report must be a JSON object")
    field = "type"
    try:
        _require(document.get("type") == "dmw_run_report",
                 "type must be 'dmw_run_report'")
        _require(document.get("version") in _ACCEPTED_VERSIONS,
                 "unsupported report version %r" % document.get("version"))
        for key in ("params", "completed", "totals", "cache", "resilience",
                    "spans", "events", "metrics"):
            _require(key in document, "missing key %r" % key)
        for key in ("parallelism", "flight_summary", "profile",
                    "provenance"):
            _require(key in document, "missing key %r" % key)
            _require(isinstance(document[key], dict),
                     "%s must be an object" % key)
        for key in ("schedule", "payments"):
            _require(key in document, "missing key %r" % key)
            _require(document[key] is None
                     or isinstance(document[key], list),
                     "%s must be a list or null" % key)
        field = "provenance"
        provenance = document["provenance"]
        for key in ("package_version", "arithmetic_backend"):
            _require(key in provenance, "provenance missing %r" % key)
        field = "flight_summary"
        flight_summary = document["flight_summary"]
        if flight_summary:
            for key in ("events_recorded", "events_retained", "capacity",
                        "messages", "by_type", "by_kind"):
                _require(key in flight_summary,
                         "flight_summary missing %r" % key)
            _require(flight_summary["events_retained"]
                     <= flight_summary["events_recorded"],
                     "flight_summary retains more events than recorded")
            _require(sum(flight_summary["by_type"].values())
                     == flight_summary["events_recorded"],
                     "flight_summary.by_type must sum to events_recorded")
            _require(sum(flight_summary["by_kind"].values())
                     == flight_summary["events_recorded"],
                     "flight_summary.by_kind must sum to events_recorded")
        field = "profile"
        profile = document["profile"]
        if profile:
            _require("phases" in profile and "top_n" in profile,
                     "profile must carry phases and top_n")
            for phase_name, body in profile["phases"].items():
                for key in ("functions_profiled", "calls", "time_s",
                            "hotspots"):
                    _require(key in body, "profile phase %r missing %r"
                             % (phase_name, key))
        _require(isinstance(document["completed"], bool),
                 "completed must be a bool")

        field = "resilience"
        resilience = document["resilience"]
        _require(isinstance(resilience, dict),
                 "resilience must be an object")
        for key in ("retransmissions", "recovered_messages", "degraded",
                    "quarantined_tasks", "task_aborts"):
            _require(key in resilience, "resilience missing %r" % key)
        _require(isinstance(resilience["degraded"], bool),
                 "resilience.degraded must be a bool")
        for key in ("retransmissions", "recovered_messages"):
            _require(type(resilience[key]) is int and resilience[key] >= 0,
                     "resilience.%s must be a non-negative int" % key)
        _require(sorted(int(task) for task in resilience["task_aborts"])
                 == list(resilience["quarantined_tasks"]),
                 "resilience.quarantined_tasks must mirror task_aborts keys")

        field = "totals"
        totals = document["totals"]
        _require(isinstance(totals, dict), "totals must be an object")
        for key in ("operations", "operations_per_agent", "network"):
            _require(key in totals, "totals missing %r" % key)
        for key in _COUNTER_KEYS:
            _require(key in totals["operations"],
                     "totals.operations missing %r" % key)
        for key in _NETWORK_KEYS:
            _require(key in totals["network"],
                     "totals.network missing %r" % key)

        per_agent = totals["operations_per_agent"]
        _require(isinstance(per_agent, list),
                 "operations_per_agent must be a list")
        for key in _COUNTER_KEYS:
            summed = sum(snapshot.get(key, 0) for snapshot in per_agent)
            _require(summed == totals["operations"][key],
                     "per-agent %s sum %d != total %d"
                     % (key, summed, totals["operations"][key]))

        field = "spans"
        _require(isinstance(document["spans"], list), "spans must be a list")
        for span in document["spans"]:
            for key in _SPAN_KEYS:
                _require(key in span, "span entry missing %r" % key)
            _require(span["end_s"] >= span["start_s"],
                     "span %r ends before it starts" % span.get("name"))
        field = "events"
        _require(isinstance(document["events"], list),
                 "events must be a list")
        for event in document["events"]:
            for key in _EVENT_KEYS:
                _require(key in event, "event entry missing %r" % key)
            _require(type(event["seq"]) is int, "event seq must be an int")

        # Accounting invariant: the phase spans partition the run exactly.
        field = "spans"
        phases = [span for span in document["spans"]
                  if span["kind"] == KIND_PHASE]
        if phases:
            for key in _COUNTER_KEYS:
                attributed = sum(phase["operations"].get(key, 0)
                                 for phase in phases)
                _require(attributed == totals["operations"][key],
                         "phase %s sum %d != grand total %d"
                         % (key, attributed, totals["operations"][key]))
            for key in _NETWORK_KEYS:
                attributed = sum(phase["network"].get(key, 0)
                                 for phase in phases)
                _require(attributed == totals["network"][key],
                         "phase network %s sum %d != grand total %d"
                         % (key, attributed, totals["network"][key]))

        field = "metrics"
        metrics = document["metrics"]
        _require(isinstance(metrics, dict), "metrics must be an object")
        for name, body in metrics.items():
            _require(isinstance(body, dict) and "type" in body
                     and "samples" in body,
                     "metric %r must carry type and samples" % name)
    except ReportSchemaError:
        raise
    except (TypeError, ValueError, AttributeError) as error:
        raise ReportSchemaError("report field %r is malformed: %s"
                                % (field, error)) from None


# ---------------------------------------------------------------------------
# Prometheus text-format round-trip parser
# ---------------------------------------------------------------------------

class PrometheusParseError(ValueError):
    """Raised on malformed exposition text."""


def parse_prometheus(text: str
                     ) -> Dict[Tuple[str, Tuple[Tuple[str, str], ...]],
                               float]:
    """Parse Prometheus text exposition into ``{(name, labels): value}``.

    ``labels`` is a sorted tuple of ``(label, value)`` pairs.  The parser
    validates ``# HELP``/``# TYPE`` comment structure and sample syntax;
    it exists for round-trip testing of :meth:`MetricsRegistry.to_prometheus`
    and the CI smoke job, not as a general scrape client.
    """
    samples: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float] = {}
    typed: Dict[str, str] = {}
    # Split on "\n" only: the exposition format's line separator.  Using
    # str.splitlines() here would also break lines at \r, \v, \f, \x85,
    #   ... — characters _escape_label leaves raw inside quoted
    # label values — truncating such a sample mid-line and breaking the
    # to_prometheus round-trip.
    for line_number, raw in enumerate(text.split("\n"), 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) < 3 or parts[1] not in ("HELP", "TYPE"):
                raise PrometheusParseError(
                    "line %d: malformed comment %r" % (line_number, raw))
            if parts[1] == "TYPE":
                type_value = parts[3] if len(parts) > 3 else ""
                if type_value not in ("counter", "gauge", "histogram",
                                      "summary", "untyped"):
                    raise PrometheusParseError(
                        "line %d: unknown metric type %r"
                        % (line_number, type_value))
                typed[parts[2]] = type_value
            continue
        name, labels, value = _parse_sample(line, line_number)
        key = (name, labels)
        if key in samples:
            raise PrometheusParseError(
                "line %d: duplicate sample %r" % (line_number, key))
        samples[key] = value
    for name in typed:
        base_names = {sample_name.rsplit("_bucket", 1)[0]
                      .rsplit("_sum", 1)[0].rsplit("_count", 1)[0]
                      for sample_name, _ in samples}
        sample_names = {sample_name for sample_name, _ in samples}
        if name not in sample_names and name not in base_names:
            raise PrometheusParseError(
                "TYPE declared for %r but no samples present" % name)
    return samples


def _parse_sample(line: str, line_number: int
                  ) -> Tuple[str, Tuple[Tuple[str, str], ...], float]:
    label_pairs: List[Tuple[str, str]] = []
    if "{" in line:
        brace_open = line.index("{")
        brace_close = line.rfind("}")
        if brace_close < brace_open:
            raise PrometheusParseError("line %d: mismatched braces"
                                       % line_number)
        name = line[:brace_open]
        body = line[brace_open + 1:brace_close]
        rest = line[brace_close + 1:].strip()
        index = 0
        while index < len(body):
            equals = body.index("=", index)
            label_name = body[index:equals].strip()
            if body[equals + 1] != '"':
                raise PrometheusParseError(
                    "line %d: unquoted label value" % line_number)
            cursor = equals + 2
            value_chars: List[str] = []
            while cursor < len(body):
                char = body[cursor]
                if char == "\\":
                    escape = body[cursor + 1]
                    value_chars.append(
                        {"\\": "\\", '"': '"', "n": "\n"}.get(escape,
                                                              escape))
                    cursor += 2
                    continue
                if char == '"':
                    break
                value_chars.append(char)
                cursor += 1
            else:
                raise PrometheusParseError(
                    "line %d: unterminated label value" % line_number)
            label_pairs.append((label_name, "".join(value_chars)))
            index = cursor + 1
            if index < len(body) and body[index] == ",":
                index += 1
    else:
        parts = line.split(None, 1)
        if len(parts) != 2:
            raise PrometheusParseError("line %d: malformed sample %r"
                                       % (line_number, line))
        name, rest = parts
    if not rest:
        raise PrometheusParseError("line %d: sample missing value"
                                   % line_number)
    value_text = rest.split()[0]
    if value_text == "+Inf":
        value = float("inf")
    elif value_text == "-Inf":
        value = float("-inf")
    else:
        try:
            value = float(value_text)
        except ValueError:
            raise PrometheusParseError(
                "line %d: bad sample value %r"
                % (line_number, value_text)) from None
    if not name or not all(c.isalnum() or c in "_:" for c in name):
        raise PrometheusParseError("line %d: bad metric name %r"
                                   % (line_number, name))
    return name, tuple(sorted(label_pairs)), value


def to_prometheus(registry: MetricsRegistry) -> str:
    """Convenience alias for :meth:`MetricsRegistry.to_prometheus`."""
    return registry.to_prometheus()


# ---------------------------------------------------------------------------
# Chrome Trace Event (Perfetto) exporter
# ---------------------------------------------------------------------------

#: Chrome-trace track (tid) of the spans and protocol events; agent
#: ``i``'s message track is ``i + _AGENT_TRACK_BASE``.
_PROTOCOL_TRACK = 0
_AGENT_TRACK_BASE = 1


def to_chrome_trace(recorder: Recorder, label: str = "dmw"
                    ) -> Dict[str, Any]:
    """Build a Chrome Trace Event document from one recorder.

    Spans become complete (``ph: "X"``) events and protocol events
    instant (``ph: "i"``, ``cat: "event"``) events on the protocol track,
    one instant per entry of the run report's ``events``.  Message events
    become instants on the *sender's* track: ``cat: "message"`` for the
    types in :data:`~repro.obs.recorder.MESSAGE_EVENT_TYPES` — exactly one
    per point-to-point message counted by
    :class:`~repro.network.metrics.NetworkMetrics` — and
    ``cat: "delivery"`` for the rest.  Timestamps are microseconds from
    the recorder epoch.
    """
    events: List[Dict[str, Any]] = [
        {"ph": "M", "pid": 0, "tid": _PROTOCOL_TRACK,
         "name": "process_name", "args": {"name": label}},
        {"ph": "M", "pid": 0, "tid": _PROTOCOL_TRACK,
         "name": "thread_name", "args": {"name": "protocol"}},
    ]
    for span in recorder.spans:
        events.append({
            "ph": "X", "pid": 0, "tid": _PROTOCOL_TRACK,
            "name": span.name, "cat": "span,%s" % span.kind,
            "ts": span.start * 1e6,
            "dur": max((span.end - span.start) * 1e6, 0.0),
            "args": {"span_id": span.span_id, "task": span.task,
                     "operations": dict(span.operations),
                     "network": dict(span.network)},
        })
    for event in recorder.events:
        events.append({
            "ph": "i", "pid": 0, "tid": _PROTOCOL_TRACK,
            "name": event.kind, "cat": "event", "s": "t",
            "ts": event.timestamp * 1e6,
            "args": dict(event.detail, seq=event.seq, task=event.task),
        })
    named_tracks = set()
    for message in recorder.messages:
        track = message.sender + _AGENT_TRACK_BASE
        if track not in named_tracks:
            named_tracks.add(track)
            events.append({
                "ph": "M", "pid": 0, "tid": track, "name": "thread_name",
                "args": {"name": "agent %d" % message.sender},
            })
        args = message.to_dict()
        del args["timestamp_s"], args["detail"]
        events.append({
            "ph": "i", "pid": 0, "tid": track,
            "name": "%s %s" % (message.type, message.kind),
            "cat": ("message" if message.type in MESSAGE_EVENT_TYPES
                    else "delivery"),
            "s": "t", "ts": message.timestamp * 1e6, "args": args,
        })
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"source": "repro.obs"},
    }


def write_chrome_trace(path: str, recorder: Recorder,
                       label: str = "dmw") -> None:
    """Serialize :func:`to_chrome_trace` to ``path``."""
    with open(path, "w") as handle:
        json.dump(to_chrome_trace(recorder, label=label), handle)
        handle.write("\n")
