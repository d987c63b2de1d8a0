"""Tests for repro.network.latency (rounds -> wall-clock timelines)."""

import random

import pytest

from repro.core.agent import DMWAgent
from repro.core.protocol import DMWProtocol
from repro.network.latency import (
    LatencyModel,
    estimate_protocol_latency,
    timeline_for_rounds,
)
from repro.network.message import BROADCAST, Message
from repro.network.simulator import SynchronousNetwork


class TestLatencyModel:
    def test_sample_within_bounds(self, rng):
        model = LatencyModel(rng, base=0.01, jitter=0.02)
        for _ in range(100):
            delay = model.sample(0, 1)
            assert 0.01 <= delay <= 0.03

    def test_per_link_scaling(self, rng):
        model = LatencyModel(rng, base=0.01, jitter=0.0,
                             per_link_scale={(0, 1): 10.0})
        assert model.sample(0, 1) == pytest.approx(0.1)
        assert model.sample(1, 0) == pytest.approx(0.01)

    def test_negative_delays_rejected(self, rng):
        with pytest.raises(ValueError):
            LatencyModel(rng, base=-1)
        with pytest.raises(ValueError):
            LatencyModel(rng, jitter=-1)


class TestTimeline:
    def make_messages(self):
        return [
            Message(0, 1, "a", None, round_sent=0),
            Message(1, 0, "b", None, round_sent=0),
            Message(0, 2, "c", None, round_sent=1),
        ]

    def test_round_duration_is_slowest_message(self, rng):
        model = LatencyModel(rng, base=0.01, jitter=0.0,
                             per_link_scale={(1, 0): 5.0})
        timeline = timeline_for_rounds(self.make_messages(), 2, model, 3)
        assert timeline.round_durations[0] == pytest.approx(0.05)
        assert timeline.round_durations[1] == pytest.approx(0.01)
        assert timeline.total_seconds == pytest.approx(0.06)
        assert timeline.slowest_round == 0

    def test_broadcast_expansion(self, rng):
        model = LatencyModel(rng, base=0.01, jitter=0.0,
                             per_link_scale={(0, 2): 7.0})
        messages = [Message(0, BROADCAST, "x", None, round_sent=0)]
        timeline = timeline_for_rounds(messages, 1, model, 3)
        # Slowest copy is the scaled 0 -> 2 link.
        assert timeline.round_durations[0] == pytest.approx(0.07)

    def test_out_of_range_rounds_ignored(self, rng):
        model = LatencyModel(rng, base=0.01, jitter=0.0)
        messages = [Message(0, 1, "a", None, round_sent=99)]
        timeline = timeline_for_rounds(messages, 2, model, 2)
        assert timeline.total_seconds == 0.0

    def test_empty_round_duration(self, rng):
        model = LatencyModel(rng)
        timeline = timeline_for_rounds([], 3, model, 2,
                                       empty_round_duration=0.5)
        assert timeline.total_seconds == pytest.approx(1.5)


class TestProtocolLatency:
    def run_dmw_recorded(self, params5, problem):
        master = random.Random(0)
        agents = [
            DMWAgent(i, params5,
                     [int(problem.time(i, j))
                      for j in range(problem.num_tasks)],
                     rng=random.Random(master.getrandbits(64)))
            for i in range(5)
        ]
        protocol = DMWProtocol(params5, agents, record_deliveries=True)
        outcome = protocol.execute(problem.num_tasks)
        assert outcome.completed
        return protocol, outcome

    def test_dmw_latency_has_one_duration_per_round(self, params5,
                                                    problem53):
        protocol, outcome = self.run_dmw_recorded(params5, problem53)
        model = LatencyModel(random.Random(1), base=0.01, jitter=0.01)
        timeline = estimate_protocol_latency(protocol.network, model)
        assert len(timeline.round_durations) == \
            outcome.network_metrics.rounds
        assert all(d > 0 for d in timeline.round_durations)

    def test_dmw_latency_dominates_centralized(self, params5, problem53):
        """DMW pays 4m + 1 barriers vs the centralized mechanism's 2."""
        protocol, outcome = self.run_dmw_recorded(params5, problem53)
        model = LatencyModel(random.Random(1), base=0.01, jitter=0.0)
        dmw_timeline = estimate_protocol_latency(protocol.network, model)
        # Centralized: bids in (1 round), outcome out (1 round).
        network = SynchronousNetwork(5, extra_participants=1,
                                     record_deliveries=True)
        for agent in range(5):
            network.send(agent, 5, "bid", None)
        network.deliver()
        for agent in range(5):
            network.send(5, agent, "outcome", None)
        network.deliver()
        centralized = estimate_protocol_latency(network, model)
        ratio = dmw_timeline.total_seconds / centralized.total_seconds
        # 13 rounds vs 2 at equal per-round cost.
        assert ratio == pytest.approx(13 / 2, rel=0.01)

    def test_slow_link_dominates_timeline(self, params5, problem53):
        protocol, _ = self.run_dmw_recorded(params5, problem53)
        slow = {(0, k): 100.0 for k in range(1, 6)}
        model = LatencyModel(random.Random(1), base=0.01, jitter=0.0,
                             per_link_scale=slow)
        timeline = estimate_protocol_latency(protocol.network, model)
        # Agent 0 transmits in most rounds; the slow link dominates.
        assert max(timeline.round_durations) == pytest.approx(1.0)

    def test_fallback_to_bulletin_board(self, params5, problem53):
        """Without delivery recording the estimate still covers every
        round that carried published traffic."""
        master = random.Random(0)
        agents = [
            DMWAgent(i, params5,
                     [int(problem53.time(i, j)) for j in range(3)],
                     rng=random.Random(master.getrandbits(64)))
            for i in range(5)
        ]
        protocol = DMWProtocol(params5, agents)
        outcome = protocol.execute(3)
        model = LatencyModel(random.Random(1), base=0.01, jitter=0.0)
        timeline = estimate_protocol_latency(protocol.network, model)
        assert len(timeline.round_durations) == \
            outcome.network_metrics.rounds
        assert timeline.total_seconds > 0
