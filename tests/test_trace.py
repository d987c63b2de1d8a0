"""Protocol events on the one recorder (repro.obs.recorder)."""

import random

import pytest

from repro.core.agent import DMWAgent
from repro.core.deviant import WrongAggregatesAgent
from repro.core.protocol import DMWProtocol
from repro.obs.recorder import NULL_RECORDER, Event, Recorder
from repro.scheduling.problem import SchedulingProblem


def run_traced(params, problem, deviant_index=None, seed=0):
    master = random.Random(seed)
    agents = []
    for index in range(params.num_agents):
        rng = random.Random(master.getrandbits(64))
        values = [int(problem.time(index, j))
                  for j in range(problem.num_tasks)]
        if index == deviant_index:
            agents.append(WrongAggregatesAgent(index, params, values,
                                               rng=rng))
        else:
            agents.append(DMWAgent(index, params, values, rng=rng))
    recorder = Recorder()
    protocol = DMWProtocol(params, agents, recorder=recorder)
    outcome = protocol.execute(problem.num_tasks)
    return outcome, recorder


@pytest.fixture()
def problem():
    return SchedulingProblem([
        [3, 2],
        [2, 3],
        [3, 3],
        [2, 2],
        [3, 3],
    ])


class TestTraceObject:
    def test_record_and_query(self):
        recorder = Recorder()
        recorder.event("phase", task=0, name="bidding")
        recorder.event("phase", task=1, name="bidding")
        recorder.event("abort", reason="x")
        assert len(recorder.events) == 3
        assert len(recorder.find_events(kind="phase")) == 2
        assert len(recorder.find_events(task=1)) == 1
        assert [event.kind for event in recorder.events] == \
            ["phase", "phase", "abort"]

    def test_render(self):
        recorder = Recorder()
        recorder.event("winner", task=2, agent=4)
        text = recorder.render_events()
        assert "task 2" in text
        assert "winner" in text
        assert "agent=4" in text

    def test_null_trace_discards(self):
        NULL_RECORDER.event("anything", task=0)
        assert NULL_RECORDER.events == []

    def test_event_sequence_monotone(self):
        recorder = Recorder()
        for _ in range(5):
            recorder.event("e")
        assert [event.seq for event in recorder.events] == list(range(5))


class TestEventEncoding:
    def test_to_dict_from_dict_round_trip(self):
        event = Event(seq=7, kind="winner", task=2, span_id=3,
                      timestamp=1.25, detail={"agent": 4, "price": 3})
        encoded = event.to_dict()
        assert encoded == {
            "seq": 7,
            "kind": "winner",
            "task": 2,
            "span_id": 3,
            "timestamp_s": 1.25,
            "detail": {"agent": 4, "price": 3},
        }
        assert Event.from_dict(encoded) == event

    def test_trace_list_round_trip(self):
        recorder = Recorder()
        recorder.event("phase", task=0, name="bidding")
        recorder.event("abort", reason="x")
        restored = [Event.from_dict(event.to_dict())
                    for event in recorder.events]
        assert restored == recorder.events

    def test_recorded_timestamps_are_monotone(self):
        recorder = Recorder()
        for _ in range(4):
            recorder.event("e")
        stamps = [event.timestamp for event in recorder.events]
        assert stamps == sorted(stamps)
        assert all(stamp >= 0.0 for stamp in stamps)


def _bare(seq):
    return Event(seq=seq, kind="e", task=None, span_id=None, timestamp=0.0,
                 detail={})


class TestRenderWidth:
    def test_default_width_is_three(self):
        assert _bare(0).render().startswith("[000]")

    def test_render_honours_explicit_width(self):
        assert _bare(1234).render(seq_width=5).startswith("[01234]")

    def test_long_trace_widens_sequence_column(self):
        recorder = Recorder()
        for _ in range(1001):  # ids 0..1000: four digits
            recorder.event("e")
        lines = recorder.render_events().splitlines()
        assert lines[0].startswith("[0000]")
        assert lines[-1].startswith("[1000]")
        # Every line keeps the same column width, so the timeline aligns.
        assert len({line.index("]") for line in lines}) == 1

    def test_empty_trace_renders_empty(self):
        assert Recorder().render_events() == ""


class TestProtocolIntegration:
    def test_honest_run_event_structure(self, params5, problem):
        outcome, recorder = run_traced(params5, problem)
        assert outcome.completed
        # One start + one resolution per task, one payments event, no
        # complaints or aborts.
        assert len(recorder.find_events(kind="auction_start")) == 2
        assert len(recorder.find_events(kind="auction_resolved")) == 2
        assert len(recorder.find_events(kind="payments_dispensed")) == 1
        assert recorder.find_events(kind="complaints") == []
        assert recorder.find_events(kind="abort") == []

    def test_resolution_details_match_outcome(self, params5, problem):
        outcome, recorder = run_traced(params5, problem)
        for transcript in outcome.transcripts:
            events = recorder.find_events(kind="auction_resolved",
                                          task=transcript.task)
            assert len(events) == 1
            detail = events[0].detail
            assert detail["first_price"] == transcript.first_price
            assert detail["winner"] == transcript.winner
            assert detail["second_price"] == transcript.second_price

    def test_deviant_run_records_complaints(self, params5, problem):
        # Min bid 2 leaves resolution slack, so the run completes after
        # complaints exclude the corrupted aggregates.
        outcome, recorder = run_traced(params5, problem, deviant_index=4)
        assert outcome.completed
        complaint_events = recorder.find_events(kind="complaints")
        assert complaint_events
        assert all(4 in event.detail["accused"]
                   for event in complaint_events)

    def test_aborted_run_records_abort(self, params5):
        problem = SchedulingProblem([[1], [2], [3], [2], [3]])
        outcome, recorder = run_traced(params5, problem, deviant_index=2)
        assert not outcome.completed
        aborts = recorder.find_events(kind="abort")
        assert len(aborts) == 1
        assert aborts[0].detail["phase"] == "allocating"
        # No payments event after an abort.
        assert recorder.find_events(kind="payments_dispensed") == []

    def test_complaints_precede_resolution(self, params5, problem):
        _, recorder = run_traced(params5, problem, deviant_index=4)
        for task in range(2):
            kinds = [event.kind for event in recorder.find_events(task=task)]
            if "complaints" in kinds and "auction_resolved" in kinds:
                assert kinds.index("complaints") < \
                    kinds.index("auction_resolved")

    def test_tracing_off_by_default(self, params5, problem):
        master = random.Random(0)
        agents = [DMWAgent(i, params5,
                           [int(problem.time(i, j)) for j in range(2)],
                           rng=random.Random(master.getrandbits(64)))
                  for i in range(5)]
        protocol = DMWProtocol(params5, agents)
        protocol.execute(2)
        assert protocol.recorder is NULL_RECORDER
        assert NULL_RECORDER.events == []
