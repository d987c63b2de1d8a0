"""Message events on the one recorder: dumps, the pool merge, the
Chrome trace.

Four contracts (docs/OBSERVABILITY.md, "Message events"):

1. **Message accounting** — ``send`` + ``retransmit`` events equal
   ``NetworkMetrics.point_to_point_messages`` exactly, run for run, and
   the Chrome-trace exporter emits exactly one ``cat: "message"``
   instant per counted message.
2. **Zero perturbation** — recording messages changes no schedule,
   payment, counter, or network total.
3. **Driver equivalence** — the process-pool driver merges its workers'
   message logs into summaries identical to the sequential driver's.
4. **Post-mortem completeness** — a degraded run's dump-on-abort
   document contains the quarantined auction's final message events,
   and retry-path events link back to the original send.
"""

import json
import random

import pytest

from repro.core.agent import DMWAgent
from repro.core.protocol import DMWProtocol
from repro.network.asynchronous import RetryPolicy, TimeoutNetwork
from repro.network.faults import FaultPlan
from repro.network.latency import LatencyModel
from repro.network.simulator import SynchronousNetwork
from repro.obs import (
    NULL_RECORDER,
    MessageEvent,
    Recorder,
    run_report,
    to_chrome_trace,
    validate_run_report,
    write_chrome_trace,
)
from repro.obs.recorder import (
    EVENT_DELIVER,
    EVENT_DROP,
    EVENT_RECOVERY,
    EVENT_RETRANSMIT,
    EVENT_SEND,
    KIND_RUN,
    KIND_TASK,
    MESSAGE_EVENT_TYPES,
)

#: The CLI's default ``--flight-buffer``.
CAPACITY = 65536


def make_agents(params, problem, seed=0):
    master = random.Random(seed)
    return [
        DMWAgent(index, params,
                 [int(problem.time(index, j))
                  for j in range(problem.num_tasks)],
                 rng=random.Random(master.getrandbits(64)))
        for index in range(params.num_agents)
    ]


def flight_run(params, problem, seed=0, parallel=False, workers=None,
               network=None, degraded=False):
    recorder = Recorder(message_capacity=CAPACITY)
    protocol = DMWProtocol(params, make_agents(params, problem, seed),
                           network=network, recorder=recorder)
    outcome = protocol.execute(problem.num_tasks, parallel=parallel,
                               workers=workers, degraded=degraded)
    return outcome, protocol, recorder


def sends(recorder):
    return [event for event in recorder.messages
            if event.type in MESSAGE_EVENT_TYPES]


def of_type(recorder, event_type):
    return [event for event in recorder.messages if event.type == event_type]


# ---------------------------------------------------------------------------
# Recorder unit behaviour
# ---------------------------------------------------------------------------

class TestRecorder:
    def test_record_and_round_trip(self):
        recorder = Recorder(message_capacity=8, clock=lambda: 1.0)
        seq = recorder.message(EVENT_SEND, round_index=3, kind="bid",
                               sender=0, receiver=2, field_elements=4)
        event = recorder.messages[-1]
        assert seq == event.seq == 0 and event.task is None
        assert MessageEvent.from_dict(event.to_dict()) == event

    def test_rejects_negative_capacity(self):
        with pytest.raises(ValueError):
            Recorder(message_capacity=-1)
        # Capacity 0 (the default) records spans and events only.
        assert Recorder().records_messages is False
        assert Recorder(message_capacity=1).records_messages is True

    def test_ring_eviction_keeps_tallies_exact(self):
        recorder = Recorder(message_capacity=3, clock=lambda: 0.0)
        for index in range(10):
            recorder.message(EVENT_SEND, round_index=index, kind="bid",
                             sender=0, receiver=1)
        assert len(recorder.messages) == 3
        assert [event.seq for event in recorder.messages] == [7, 8, 9]
        summary = recorder.message_summary()
        assert summary["events_recorded"] == 10
        assert summary["events_retained"] == 3
        assert summary["by_type"] == {EVENT_SEND: 10}
        assert summary["messages"] == 10

    def test_task_attribution_and_find(self):
        recorder = Recorder(message_capacity=8, clock=lambda: 0.0)
        with recorder.span("task", kind=KIND_TASK, task=4) as span:
            recorder.message(EVENT_SEND, round_index=0, kind="bid",
                             sender=1, receiver=2)
        recorder.message(EVENT_SEND, round_index=1, kind="payment_claim",
                         sender=1, receiver=None)
        assert [e.task for e in recorder.messages] == [4, None]
        assert [e.span_id for e in recorder.messages] == [span.span_id, None]
        assert [e.kind for e in recorder.messages] == ["bid", "payment_claim"]

    def test_null_flight_records_nothing(self, params5, problem53):
        assert not NULL_RECORDER.enabled
        assert not NULL_RECORDER.records_messages
        assert NULL_RECORDER.message(EVENT_SEND, round_index=0, kind="bid",
                                     sender=0, receiver=1) is None
        DMWProtocol(params5, make_agents(params5, problem53)).execute(
            problem53.num_tasks)
        assert len(NULL_RECORDER.messages) == 0
        assert NULL_RECORDER.message_summary()["events_recorded"] == 0

    def test_ingest_remaps_seq_link_and_span(self):
        ticks = iter([0.0, 5.0, 6.0, 7.0, 8.0])
        parent = Recorder(message_capacity=16, clock=lambda: next(ticks))
        parent.message(EVENT_SEND, round_index=0, kind="bid",
                       sender=0, receiver=1)                  # seq 0 @ 5
        worker = Recorder(message_capacity=16, clock=lambda: 0.5)
        with worker.span("task", kind=KIND_TASK, task=2):
            worker.event("auction_start", task=2)
            sent = worker.message(EVENT_SEND, round_index=1, kind="bid",
                                  sender=1, receiver=2)
            worker.message(EVENT_RETRANSMIT, round_index=1, kind="bid",
                           sender=1, receiver=2, attempt=1, link=sent)
        document = worker.export()
        with parent.span("run", kind=KIND_RUN) as run:      # id 1, @ 6
            parent.ingest(document)                         # now = 7
        # One id shift (the parent's next id, 2) for every record.
        task_span = parent.find_spans(kind=KIND_TASK)[0]
        assert task_span.span_id == 2 and task_span.parent_id == run.span_id
        assert parent.events[0].seq == 3
        assert parent.events[0].span_id == task_span.span_id
        events = list(parent.messages)
        assert [event.seq for event in events] == [0, 4, 5]
        assert events[2].link == events[1].seq
        assert events[1].span_id == task_span.span_id
        # One time offset: the export instant lands on the merge instant.
        assert task_span.end == parent.events[0].timestamp == 7.0
        assert parent.message_summary()["messages"] == 3
        assert parent._next_id == 2 + document["next_id"]


# ---------------------------------------------------------------------------
# Contract 1 + 2: accounting and zero perturbation (sequential driver)
# ---------------------------------------------------------------------------

class TestSequentialRun:
    def test_message_events_match_network_metrics(self, params5,
                                                  problem53):
        outcome, protocol, recorder = flight_run(params5, problem53)
        assert outcome.completed
        counted = outcome.network_metrics.point_to_point_messages
        summary = recorder.message_summary()
        assert summary["messages"] == counted
        assert len(sends(recorder)) == counted
        assert summary["by_type"][EVENT_SEND] == counted
        # Fault-free synchronous run: every send is delivered.
        assert summary["by_type"][EVENT_DELIVER] == counted
        # by_kind tallies events (send + deliver); the *send* events per
        # kind reproduce NetworkMetrics' per-kind message counts.
        sends_by_kind = {}
        for event in of_type(recorder, EVENT_SEND):
            sends_by_kind[event.kind] = sends_by_kind.get(event.kind,
                                                          0) + 1
        assert sends_by_kind == dict(outcome.network_metrics.by_kind)

    def test_flight_recording_does_not_perturb(self, params5, problem53):
        bare = DMWProtocol(params5, make_agents(params5, problem53))
        reference = bare.execute(problem53.num_tasks)
        outcome, _, _ = flight_run(params5, problem53)
        assert list(outcome.schedule.assignment) \
            == list(reference.schedule.assignment)
        assert list(outcome.payments) == list(reference.payments)
        assert outcome.network_metrics.as_dict() \
            == reference.network_metrics.as_dict()

    def test_events_carry_task_and_span_attribution(self, params5,
                                                    problem53):
        outcome, protocol, recorder = flight_run(params5, problem53)
        tasks = {event.task for event in recorder.messages}
        assert set(range(problem53.num_tasks)) <= tasks
        assert None in tasks  # run-level payment claims
        span_ids = {span.span_id for span in recorder.spans}
        assert all(event.span_id in span_ids for event in recorder.messages)

    def test_report_v5_flight_summary(self, params5, problem53):
        outcome, protocol, recorder = flight_run(params5, problem53)
        document = run_report(outcome, agents=protocol.agents,
                              recorder=recorder, parameters=params5)
        validate_run_report(document)
        assert document["version"] == 5
        assert document["flight_summary"] == recorder.message_summary()


# ---------------------------------------------------------------------------
# Contract 3: process-pool equivalence
# ---------------------------------------------------------------------------

class TestPoolEquivalence:
    def test_pool_flight_summary_matches_sequential(self, params5,
                                                    problem53):
        seq_outcome, _, seq_recorder = flight_run(params5, problem53)
        pool_outcome, _, pool_recorder = flight_run(
            params5, problem53, parallel=True, workers=2)
        assert list(seq_outcome.schedule.assignment) \
            == list(pool_outcome.schedule.assignment)
        assert list(seq_outcome.payments) == list(pool_outcome.payments)
        assert seq_recorder.message_summary() \
            == pool_recorder.message_summary()

    def test_pool_merge_keeps_seqs_unique_and_links_resolvable(
            self, params5, problem53):
        _, _, recorder = flight_run(params5, problem53, parallel=True,
                                    workers=2)
        seqs = [event.seq for event in recorder.messages]
        assert len(seqs) == len(set(seqs))
        known = set(seqs)
        assert all(event.link in known for event in recorder.messages
                   if event.link is not None)

    def test_pool_flight_spans_reference_grafted_spans(self, params5,
                                                       problem53):
        _, _, recorder = flight_run(params5, problem53, parallel=True,
                                    workers=2)
        span_ids = {span.span_id for span in recorder.spans}
        dangling = [event for event in recorder.messages
                    if event.span_id is not None
                    and event.span_id not in span_ids]
        assert dangling == []


# ---------------------------------------------------------------------------
# Contract 4a: degraded-run post-mortem dump (resilience integration)
# ---------------------------------------------------------------------------

def drop_task1_aggregates(message):
    if message.kind == "lambda_psi" and message.payload[0] == 1:
        return None
    return message


def task1_fault_plan(num_agents=5):
    links = {(s, r): drop_task1_aggregates
             for s in range(num_agents)
             for r in range(num_agents + 1) if s != r}
    return FaultPlan(corruptors=links)


class TestDegradedDump:
    def test_quarantine_dumps_the_faulty_auctions_events(
            self, params5, problem53, tmp_path):
        dump_path = tmp_path / "crash.json"
        network = SynchronousNetwork(5, fault_plan=task1_fault_plan(),
                                     extra_participants=1)
        recorder = Recorder(message_capacity=CAPACITY)
        recorder.dump_on_abort = str(dump_path)
        protocol = DMWProtocol(params5,
                               make_agents(params5, problem53),
                               network=network, recorder=recorder)
        outcome = protocol.execute(problem53.num_tasks, degraded=True)
        assert outcome.quarantined_tasks == (1,)
        assert recorder.abort_dumps == [str(dump_path)]
        dump = json.loads(dump_path.read_text())
        assert dump["type"] == "dmw_flight_dump"
        assert "task_quarantined" in dump["reason"]
        assert "task 1" in dump["reason"]
        task1 = [event for event in dump["events"]
                 if event["task"] == 1]
        assert task1, "dump must contain the quarantined auction's events"
        # The auction died on its withheld aggregation round: the dump
        # shows the fault plan eating task 1's lambda_psi copies.
        drops = [event for event in task1
                 if event["type"] == EVENT_DROP
                 and event["kind"] == "lambda_psi"
                 and event["detail"] == "fault_plan"]
        assert drops, "the fatal lambda_psi drops must be in the dump"

    def test_fault_free_run_writes_no_dump(self, params5, problem53,
                                           tmp_path):
        dump_path = tmp_path / "never.json"
        recorder = Recorder(message_capacity=CAPACITY)
        recorder.dump_on_abort = str(dump_path)
        protocol = DMWProtocol(params5,
                               make_agents(params5, problem53),
                               recorder=recorder)
        outcome = protocol.execute(problem53.num_tasks)
        assert outcome.completed
        assert not dump_path.exists()
        assert recorder.abort_dumps == []


# ---------------------------------------------------------------------------
# Contract 4b: retry-path events link back to the original send
# ---------------------------------------------------------------------------

class TestRetryLinks:
    def _slow_link_network(self, seed=0):
        # Link (0, 1) delays exactly 0.15s: over the 0.1 barrier but
        # inside the first grace window (matching tests/test_retry.py).
        model = LatencyModel(random.Random(seed), base=0.001, jitter=0.0,
                             per_link_scale={(0, 1): 150.0})
        return TimeoutNetwork(3, model, round_timeout=0.1,
                              retry_policy=RetryPolicy(max_attempts=2))

    def test_retransmission_chain_is_linked(self):
        network = self._slow_link_network()
        recorder = Recorder(message_capacity=CAPACITY)
        network.recorder = recorder
        network.send(0, 1, "x", None)
        assert network.deliver() == 1
        sent = of_type(recorder, EVENT_SEND)
        retransmits = of_type(recorder, EVENT_RETRANSMIT)
        recoveries = of_type(recorder, EVENT_RECOVERY)
        assert len(sent) == len(retransmits) == len(recoveries) == 1
        assert retransmits[0].link == sent[0].seq
        assert retransmits[0].attempt == 1
        assert recoveries[0].link == sent[0].seq
        # send + retransmit both charge the metrics (full price).
        assert recorder.message_summary()["messages"] \
            == network.metrics.point_to_point_messages == 2
        assert network.metrics.retransmissions == 1

    def test_exhausted_retries_end_in_a_linked_drop(self):
        model = LatencyModel(random.Random(0), base=0.001, jitter=0.0,
                             per_link_scale={(0, 1): 100000.0})
        network = TimeoutNetwork(3, model, round_timeout=0.1,
                                 retry_policy=RetryPolicy(max_attempts=2))
        recorder = Recorder(message_capacity=CAPACITY)
        network.recorder = recorder
        network.send(0, 1, "x", None)
        assert network.deliver() == 0
        sent = of_type(recorder, EVENT_SEND)
        drops = of_type(recorder, EVENT_DROP)
        assert len(sent) == 1 and len(drops) == 1
        assert drops[0].link == sent[0].seq
        assert drops[0].detail == "late"
        assert of_type(recorder, EVENT_RECOVERY) == []


# ---------------------------------------------------------------------------
# Chrome trace exporter
# ---------------------------------------------------------------------------

class TestChromeTrace:
    def test_one_message_instant_per_counted_message(self, params5,
                                                     problem53):
        outcome, protocol, recorder = flight_run(params5, problem53)
        trace = to_chrome_trace(recorder)
        events = trace["traceEvents"]
        assert isinstance(events, list) and events
        messages = [e for e in events if e.get("cat") == "message"]
        assert len(messages) \
            == outcome.network_metrics.point_to_point_messages
        assert all(e["args"]["type"] in MESSAGE_EVENT_TYPES
                   for e in messages)
        # One protocol-event instant per entry of the report's events.
        instants = [e for e in events if e.get("cat") == "event"]
        assert [e["args"]["seq"] for e in instants] \
            == [event.seq for event in recorder.events]

    def test_spans_render_on_the_protocol_track(self, params5,
                                                problem53):
        _, _, recorder = flight_run(params5, problem53)
        trace = to_chrome_trace(recorder)
        complete = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert len(complete) == len(recorder.spans)
        assert all(e["tid"] == 0 for e in complete)
        assert all(e["dur"] >= 0 for e in complete)
        # Message instants ride the sender's per-agent track.
        instants = [e for e in trace["traceEvents"]
                    if e.get("cat") in ("message", "delivery")]
        assert all(e["tid"] == e["args"]["sender"] + 1 for e in instants)

    def test_written_file_is_valid_trace_event_json(self, params5,
                                                    problem53, tmp_path):
        _, _, recorder = flight_run(params5, problem53)
        path = tmp_path / "trace.json"
        write_chrome_trace(str(path), recorder)
        document = json.loads(path.read_text())
        assert isinstance(document["traceEvents"], list)
        names = {e["name"] for e in document["traceEvents"]
                 if e["ph"] == "M"}
        assert {"process_name", "thread_name"} <= names
