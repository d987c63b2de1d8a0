"""One recorder for a DMW execution: spans, protocol events, messages.

A :class:`Recorder` holds three kinds of record, all drawing their ids
from one counter:

* **spans** (:class:`Span`) — named, timestamped intervals ``run -> task
  -> phase``: the four auction phases (:data:`PHASES`) plus the run-level
  :data:`PAYMENTS_PHASE`.  Each span carries the enter->exit deltas of
  the summed per-agent :class:`~repro.crypto.modular.OperationCounter`
  totals and of :meth:`~repro.network.metrics.NetworkMetrics.as_dict`.
  Every counted operation and every message of a run happens inside one
  phase span, so the phase spans partition the run's grand totals
  exactly — the invariant :func:`~repro.obs.export.validate_run_report`
  checks;
* **protocol events** (:class:`Event`) — what the driver and the network
  decided, when, and under which span: ``auction_start``,
  ``network_round``, ``aggregates_published``, ``disclosures_published``,
  ``complaints``, ``auction_resolved``, ``task_quarantined``,
  ``checkpoint_written``, ``resumed``, ``payments_dispensed`` and
  ``abort``;
* **message events** (:class:`MessageEvent`) — one per unicast copy at
  each lifecycle step, recorded only when the recorder is built with a
  nonzero ``message_capacity``:

  - ``send`` — a copy charged to the network metrics (a broadcast counts
    as its expanded copies, the unit Theorem 11 counts);
  - ``deliver`` — the copy reached the recipient's inbox;
  - ``drop`` — the copy was lost (a fault-plan drop, or declared withheld
    after the retry budget);
  - ``late`` — the copy missed its barrier and entered the grace
    sub-rounds;
  - ``retransmit`` — a grace sub-round re-send (also charged, so
    ``send + retransmit`` events equal ``point_to_point_messages``);
  - ``recovery`` — a re-sent copy arrived inside its grace window.

  Retry-path events carry ``link``, the id of the original ``send``.
  Message events live in a ring buffer of ``message_capacity`` records;
  the per-type and per-kind tallies keep counting past eviction, so
  :meth:`Recorder.message_summary` stays exact.  Spans and protocol
  events are never evicted: the phase-partition check needs every
  phase span.

One id space makes the process-pool merge one step: a shard exports its
whole recording as one document (:meth:`Recorder.export`) and the parent
ingests it with one id shift and one time offset
(:meth:`Recorder.ingest`).

Recording is opt-in and never changes counted totals, transcripts or
outcomes.  :data:`NULL_RECORDER`, the default everywhere, records
nothing: its :meth:`~Recorder.span` returns one shared no-op context,
its :meth:`~Recorder.event` discards the call, and the networks capture
message events only when :attr:`Recorder.records_messages` is set.

See ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import json
import time
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional

#: Span kinds in nesting order.
KIND_RUN = "run"
KIND_TASK = "task"
KIND_PHASE = "phase"

#: The protocol phase names, in execution order within one auction.
PHASES = ("bidding", "aggregation", "disclosure", "resolution")
#: The run-level phase that follows all auctions.
PAYMENTS_PHASE = "payments"

#: Message event types, in message-lifecycle order.
EVENT_SEND = "send"
EVENT_DELIVER = "deliver"
EVENT_DROP = "drop"
EVENT_LATE = "late"
EVENT_RETRANSMIT = "retransmit"
EVENT_RECOVERY = "recovery"

#: The message event types that each stand for one point-to-point message
#: charged to :class:`~repro.network.metrics.NetworkMetrics`.
MESSAGE_EVENT_TYPES = (EVENT_SEND, EVENT_RETRANSMIT)


@dataclass
class Span:
    """One finished span.

    ``start``/``end`` are seconds since the recorder epoch.
    ``operations`` and ``network`` hold the enter->exit deltas described
    in the module docstring.
    """

    span_id: int
    parent_id: Optional[int]
    name: str
    kind: str
    task: Optional[int]
    start: float
    end: float
    attributes: Dict[str, Any] = field(default_factory=dict)
    operations: Dict[str, int] = field(default_factory=dict)
    network: Dict[str, int] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Wall-clock seconds spent inside the span."""
        return self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly encoding (the run report's ``spans`` entries)."""
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "kind": self.kind,
            "task": self.task,
            "start_s": self.start,
            "end_s": self.end,
            "duration_s": self.duration,
            "attributes": dict(self.attributes),
            "operations": dict(self.operations),
            "network": dict(self.network),
        }

    @classmethod
    def from_dict(cls, document: Dict[str, Any]) -> "Span":
        """Decode a span encoded by :meth:`to_dict`."""
        return cls(
            span_id=document["span_id"],
            parent_id=document["parent_id"],
            name=document["name"],
            kind=document["kind"],
            task=document["task"],
            start=document["start_s"],
            end=document["end_s"],
            attributes=dict(document["attributes"]),
            operations=dict(document["operations"]),
            network=dict(document["network"]),
        )


@dataclass(frozen=True)
class Event:
    """One protocol event, attached to the span open when it fired.

    ``task`` names the auction the event belongs to (``None`` for
    run-level events); ``detail`` is the kind-specific, JSON-friendly
    payload.
    """

    seq: int
    kind: str
    task: Optional[int]
    span_id: Optional[int]
    timestamp: float
    detail: Dict[str, Any]

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly encoding (the run report's ``events`` entries)."""
        return {
            "seq": self.seq,
            "kind": self.kind,
            "task": self.task,
            "span_id": self.span_id,
            "timestamp_s": self.timestamp,
            "detail": dict(self.detail),
        }

    @classmethod
    def from_dict(cls, document: Dict[str, Any]) -> "Event":
        """Decode an event encoded by :meth:`to_dict`."""
        return cls(seq=document["seq"], kind=document["kind"],
                   task=document["task"], span_id=document["span_id"],
                   timestamp=document["timestamp_s"],
                   detail=dict(document["detail"]))

    def render(self, seq_width: int = 3) -> str:
        """One-line human-readable form; ``seq_width`` pads the id."""
        scope = "task %s" % self.task if self.task is not None else "run"
        pairs = ", ".join("%s=%s" % (key, value)
                          for key, value in sorted(self.detail.items()))
        return "[%0*d] %-8s %-24s %s" % (seq_width, self.seq, scope,
                                         self.kind, pairs)


@dataclass(frozen=True)
class MessageEvent:
    """One message-lifecycle event.

    ``task`` and ``span_id`` come from the innermost span open when the
    event fired; ``link`` is the ``seq`` of the original ``send`` for
    retry-path events.
    """

    seq: int
    type: str
    round: int
    kind: str
    sender: int
    receiver: Optional[int]
    field_elements: int
    task: Optional[int]
    span_id: Optional[int]
    timestamp: float
    attempt: int = 0
    link: Optional[int] = None
    detail: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly encoding (the flight dump's ``events`` entries)."""
        return {
            "seq": self.seq,
            "type": self.type,
            "round": self.round,
            "kind": self.kind,
            "sender": self.sender,
            "receiver": self.receiver,
            "field_elements": self.field_elements,
            "task": self.task,
            "span_id": self.span_id,
            "timestamp_s": self.timestamp,
            "attempt": self.attempt,
            "link": self.link,
            "detail": self.detail,
        }

    @classmethod
    def from_dict(cls, document: Dict[str, Any]) -> "MessageEvent":
        """Decode an event encoded by :meth:`to_dict`."""
        return cls(
            seq=document["seq"], type=document["type"],
            round=document["round"], kind=document["kind"],
            sender=document["sender"], receiver=document["receiver"],
            field_elements=document["field_elements"],
            task=document["task"], span_id=document["span_id"],
            timestamp=document["timestamp_s"], attempt=document["attempt"],
            link=document["link"], detail=document["detail"],
        )


def _dict_delta(after: Dict[str, int], before: Dict[str, int]
                ) -> Dict[str, int]:
    """Per-key ``after - before`` (missing keys count as zero)."""
    delta: Dict[str, int] = {}
    for key, value in after.items():
        change = value - before.get(key, 0)
        if change:
            delta[key] = change
    return delta


class _SpanContext:
    """Context manager produced by :meth:`Recorder.span`."""

    __slots__ = ("_recorder", "_span", "_ops_before", "_net_before")

    def __init__(self, recorder: "Recorder", span: Span) -> None:
        self._recorder = recorder
        self._span = span
        self._ops_before: Dict[str, int] = {}
        self._net_before: Dict[str, int] = {}

    def __enter__(self) -> Span:
        recorder = self._recorder
        span = self._span
        if recorder._ops_source is not None:
            self._ops_before = recorder._ops_source()
        if recorder._net_source is not None:
            self._net_before = recorder._net_source()
        span.start = recorder.clock() - recorder.epoch
        recorder._stack.append(span)
        if recorder.profiler is not None and span.kind == KIND_PHASE:
            recorder.profiler.start(span.name)
        return span

    def __exit__(self, exc_type, exc, tb) -> None:
        recorder = self._recorder
        span = self._span
        if recorder.profiler is not None and span.kind == KIND_PHASE:
            recorder.profiler.stop(span.name)
        span.end = recorder.clock() - recorder.epoch
        if recorder._ops_source is not None:
            span.operations = _dict_delta(recorder._ops_source(),
                                          self._ops_before)
        if recorder._net_source is not None:
            span.network = _dict_delta(recorder._net_source(),
                                       self._net_before)
        if exc_type is not None:
            span.attributes["error"] = exc_type.__name__
        recorder._stack.pop()
        recorder.spans.append(span)
        return None  # never swallow exceptions


class Recorder:
    """Spans, protocol events and message events of one or more runs.

    Parameters
    ----------
    message_capacity:
        Size of the message-event ring buffer; ``0`` (the default)
        records no message events.
    clock:
        Timestamp source; every timestamp is seconds since the clock's
        value at construction.

    The protocol binds the two delta sources at the start of
    ``execute()`` (:meth:`bind`).  One recorder can observe several
    consecutive executions; ids stay unique and timestamps share one
    epoch.
    """

    #: Real recorders record; the null recorder advertises False so hot
    #: paths can skip building event payloads entirely.
    enabled = True

    def __init__(self, message_capacity: int = 0,
                 clock: Callable[[], float] = time.perf_counter) -> None:
        if message_capacity < 0:
            raise ValueError("message capacity must be non-negative")
        self.clock = clock
        self.epoch = clock()
        self.spans: List[Span] = []
        self.events: List[Event] = []
        self.message_capacity = message_capacity
        #: Whether the networks should report message events at all.
        self.records_messages = message_capacity > 0
        self.messages: Deque[MessageEvent] = deque(maxlen=message_capacity)
        #: All-time message tallies (never reduced by ring eviction).
        self.by_type: Counter = Counter()
        self.by_kind: Counter = Counter()
        self._stack: List[Span] = []
        self._next_id = 0
        self._ops_source: Optional[Callable[[], Dict[str, int]]] = None
        self._net_source: Optional[Callable[[], Dict[str, int]]] = None
        #: Optional :class:`~repro.obs.profile.PhaseProfiler`; when set,
        #: every phase-kind span runs under a cProfile capture keyed by
        #: the phase name (``--profile`` on the CLI).
        self.profiler: Optional[Any] = None
        #: When set, the protocol dumps the message log to this path on
        #: abort or quarantine (the degraded-run post-mortem).
        self.dump_on_abort: Optional[str] = None
        #: Paths written by :meth:`abort_dump`, in order.
        self.abort_dumps: List[str] = []

    # -- wiring ---------------------------------------------------------------
    def bind(self, ops_source: Optional[Callable[[], Dict[str, int]]],
             net_source: Optional[Callable[[], Dict[str, int]]]) -> None:
        """Install the operation/network snapshot sources of span deltas."""
        self._ops_source = ops_source
        self._net_source = net_source

    # -- recording ------------------------------------------------------------
    def span(self, name: str, kind: str = KIND_PHASE,
             task: Optional[int] = None,
             **attributes: Any) -> _SpanContext:
        """Open a span; use as ``with recorder.span("bidding", task=0):``."""
        span_id = self._next_id
        self._next_id = span_id + 1
        parent = self._stack[-1].span_id if self._stack else None
        return _SpanContext(self, Span(
            span_id=span_id, parent_id=parent, name=name, kind=kind,
            task=task, start=0.0, end=0.0, attributes=attributes))

    def event(self, kind: str, task: Optional[int] = None,
              **detail: Any) -> None:
        """Record one protocol event under the innermost open span."""
        seq = self._next_id
        self._next_id = seq + 1
        self.events.append(Event(
            seq=seq, kind=kind, task=task,
            span_id=self._stack[-1].span_id if self._stack else None,
            timestamp=self.clock() - self.epoch, detail=detail))

    def message(self, event_type: str, *, round_index: int, kind: str,
                sender: int, receiver: Optional[int],
                field_elements: int = 1, attempt: int = 0,
                link: Optional[int] = None,
                detail: Optional[str] = None) -> Optional[int]:
        """Record one message event; returns its ``seq`` (for ``link``).

        A recorder built without a message capacity records nothing and
        returns ``None``; the networks check :attr:`records_messages`
        once per barrier so they skip building the arguments too.
        """
        if not self.records_messages:
            return None
        seq = self._next_id
        self._next_id = seq + 1
        span = self._stack[-1] if self._stack else None
        self.messages.append(MessageEvent(
            seq=seq, type=event_type, round=round_index, kind=kind,
            sender=sender, receiver=receiver, field_elements=field_elements,
            task=span.task if span is not None else None,
            span_id=span.span_id if span is not None else None,
            timestamp=self.clock() - self.epoch, attempt=attempt,
            link=link, detail=detail))
        self.by_type[event_type] += 1
        self.by_kind[kind] += 1
        return seq

    # -- queries --------------------------------------------------------------
    def find_spans(self, kind: Optional[str] = None,
                   name: Optional[str] = None,
                   task: Optional[int] = None) -> List[Span]:
        """Finished spans filtered by kind, name and task."""
        return [span for span in self.spans
                if (kind is None or span.kind == kind)
                and (name is None or span.name == name)
                and (task is None or span.task == task)]

    def phase_spans(self) -> List[Span]:
        """Every phase-kind span, in completion order."""
        return self.find_spans(kind=KIND_PHASE)

    def find_events(self, kind: Optional[str] = None,
                    task: Optional[int] = None) -> List[Event]:
        """Protocol events filtered by kind and task."""
        return [event for event in self.events
                if (kind is None or event.kind == kind)
                and (task is None or event.task == task)]

    def message_summary(self) -> Dict[str, Any]:
        """The run report's ``flight_summary`` (exact past eviction)."""
        return {
            "events_recorded": sum(self.by_type.values()),
            "events_retained": len(self.messages),
            "capacity": self.message_capacity,
            "messages": sum(self.by_type[t] for t in MESSAGE_EVENT_TYPES),
            "by_type": {name: self.by_type[name]
                        for name in sorted(self.by_type)},
            "by_kind": {name: self.by_kind[name]
                        for name in sorted(self.by_kind)},
        }

    # -- views ----------------------------------------------------------------
    def render_events(self) -> str:
        """The protocol events as text, one line each (``--trace``)."""
        if not self.events:
            return ""
        width = max(3, len(str(self.events[-1].seq)))
        return "\n".join(event.render(width) for event in self.events)

    def render_timeline(self) -> str:
        """The spans as an indented timeline (``--trace``)."""
        lines: List[str] = []
        by_parent: Dict[Optional[int], List[Span]] = {}
        for span in self.spans:
            by_parent.setdefault(span.parent_id, []).append(span)
        for bucket in by_parent.values():
            bucket.sort(key=lambda s: (s.start, s.span_id))

        def walk(parent: Optional[int], depth: int) -> None:
            for span in by_parent.get(parent, []):
                scope = ("task %d" % span.task
                         if span.task is not None else span.kind)
                ops = span.operations.get("multiplication_work", 0)
                msgs = span.network.get("point_to_point_messages", 0)
                lines.append(
                    "%s%-12s %-10s %9.3fms  work=%-8d msgs=%d"
                    % ("  " * depth, span.name, scope,
                       span.duration * 1e3, ops, msgs))
                walk(span.span_id, depth + 1)

        walk(None, 0)
        return "\n".join(lines)

    def dump(self, path: str, reason: Optional[str] = None) -> None:
        """Write the message log (``dmw_flight_dump``) to ``path``."""
        document = {
            "type": "dmw_flight_dump",
            "version": 1,
            "reason": reason,
            "summary": self.message_summary(),
            "events": [event.to_dict() for event in self.messages],
        }
        with open(path, "w") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")

    def abort_dump(self, reason: str) -> Optional[str]:
        """Write the on-abort dump if :attr:`dump_on_abort` is set."""
        if not self.dump_on_abort:
            return None
        self.dump(self.dump_on_abort, reason=reason)
        self.abort_dumps.append(self.dump_on_abort)
        return self.dump_on_abort

    # -- the pool merge -------------------------------------------------------
    def export(self) -> Dict[str, Any]:
        """The whole recording as one picklable document (a pool shard's
        half of :meth:`ingest`)."""
        return {
            "next_id": self._next_id,
            "exported_s": self.clock() - self.epoch,
            "spans": [span.to_dict() for span in self.spans],
            "events": [event.to_dict() for event in self.events],
            "messages": [event.to_dict() for event in self.messages],
            "by_type": dict(self.by_type),
            "by_kind": dict(self.by_kind),
            "profile": (self.profiler.export()
                        if self.profiler is not None else {}),
        }

    def ingest(self, document: Dict[str, Any]) -> None:
        """Merge another recorder's :meth:`export` under the open span.

        Every id in the document moves by one shift (this recorder's next
        id), so span, event and message ids stay unique and every
        ``parent_id``/``span_id``/``link`` keeps pointing at the same
        record.  Every timestamp moves by one offset, chosen so the
        document's export instant lands on the merge instant: the
        records keep their own durations and gaps, and end no later than
        now.  Records that had no parent are attached to the innermost
        open span.  Message tallies add the source's all-time counts, so
        summaries stay exact when the source ring evicted.
        """
        base = self._next_id
        offset = self.clock() - self.epoch - document["exported_s"]
        parent = self._stack[-1].span_id if self._stack else None

        def shift(ref: Optional[int]) -> Optional[int]:
            return base + ref if ref is not None else parent

        for raw in document["spans"]:
            self.spans.append(Span.from_dict(dict(
                raw, span_id=base + raw["span_id"],
                parent_id=shift(raw["parent_id"]),
                start_s=raw["start_s"] + offset,
                end_s=raw["end_s"] + offset)))
        for raw in document["events"]:
            self.events.append(Event.from_dict(dict(
                raw, seq=base + raw["seq"], span_id=shift(raw["span_id"]),
                timestamp_s=raw["timestamp_s"] + offset)))
        for raw in document["messages"]:
            link = raw["link"]
            self.messages.append(MessageEvent.from_dict(dict(
                raw, seq=base + raw["seq"], span_id=shift(raw["span_id"]),
                link=base + link if link is not None else None,
                timestamp_s=raw["timestamp_s"] + offset)))
        self.by_type.update(document["by_type"])
        self.by_kind.update(document["by_kind"])
        if document["profile"] and self.profiler is not None:
            self.profiler.merge(document["profile"])
        self._next_id = base + document["next_id"]


class _NullRecorder(Recorder):
    """Records nothing; the default when observability is off."""

    enabled = False

    def __init__(self) -> None:
        super().__init__(clock=lambda: 0.0)

    def bind(self, ops_source, net_source) -> None:
        pass

    def span(self, name: str, kind: str = KIND_PHASE,
             task: Optional[int] = None, **attributes: Any):
        return _NULL_SPAN_CONTEXT

    def event(self, kind: str, task: Optional[int] = None,
              **detail: Any) -> None:
        pass


class _NullSpanContext:
    """Shared, reusable no-op span context (no per-call allocation)."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL_SPAN_CONTEXT = _NullSpanContext()

#: The process-wide disabled recorder.
NULL_RECORDER = _NullRecorder()
