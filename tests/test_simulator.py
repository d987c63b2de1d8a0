"""Unit tests for repro.network (messages, metrics, simulator)."""

import pytest

from repro.network.message import BROADCAST, Message, estimate_bytes
from repro.network.metrics import NetworkMetrics
from repro.network.simulator import SynchronousNetwork


class TestMessage:
    def test_broadcast_detection(self):
        unicast = Message(sender=0, recipient=1, kind="x", payload=None)
        broadcast = Message(sender=0, recipient=BROADCAST, kind="x",
                            payload=None)
        assert not unicast.is_broadcast
        assert broadcast.is_broadcast

    def test_estimate_bytes(self):
        assert estimate_bytes(10, p_bits=56) == 70
        assert estimate_bytes(1, p_bits=1) == 1


class TestMetrics:
    def test_unicast_counts_once(self):
        metrics = NetworkMetrics()
        metrics.record(Message(0, 1, "share", None, field_elements=4),
                       num_agents=5)
        assert metrics.point_to_point_messages == 1
        assert metrics.field_elements == 4
        assert metrics.by_kind["share"] == 1

    def test_broadcast_expands_to_n_minus_one(self):
        metrics = NetworkMetrics()
        metrics.record(Message(0, BROADCAST, "commit", None,
                               field_elements=3), num_agents=5)
        assert metrics.point_to_point_messages == 4
        assert metrics.broadcast_events == 1
        assert metrics.field_elements == 12

    def test_merge(self):
        a, b = NetworkMetrics(), NetworkMetrics()
        a.record(Message(0, 1, "x", None), num_agents=3)
        b.record(Message(1, 0, "y", None), num_agents=3)
        b.record_round()
        a.merge(b)
        assert a.point_to_point_messages == 2
        assert a.rounds == 1

    def test_as_dict_stable_keys(self):
        metrics = NetworkMetrics()
        metrics.record(Message(0, 1, "b", None), num_agents=2)
        metrics.record(Message(0, 1, "a", None), num_agents=2)
        keys = list(metrics.as_dict())
        assert keys.index("messages[a]") < keys.index("messages[b]")


class TestSimulator:
    def test_point_to_point_delivery(self):
        network = SynchronousNetwork(3)
        network.send(0, 2, "greeting", "hi")
        assert network.deliver() == 1
        inbox = network.receive(2)
        assert len(inbox) == 1
        assert inbox[0].payload == "hi"
        assert network.receive(2) == []  # drained

    def test_no_delivery_before_deliver(self):
        network = SynchronousNetwork(2)
        network.send(0, 1, "x", None)
        assert network.peek(1) == ()

    def test_broadcast_reaches_everyone_else(self):
        network = SynchronousNetwork(4)
        network.publish(1, "announce", 42)
        network.deliver()
        for agent in (0, 2, 3):
            messages = network.receive(agent)
            assert len(messages) == 1
            assert messages[0].payload == 42
        assert network.receive(1) == []  # not delivered to self

    def test_bulletin_board_retains_history(self):
        network = SynchronousNetwork(3)
        network.publish(0, "a", 1)
        network.publish(1, "b", 2)
        network.deliver()
        assert len(network.published()) == 2
        assert [m.payload for m in network.published("a")] == [1]

    def test_filtered_receive_leaves_other_kinds(self):
        network = SynchronousNetwork(2)
        network.send(0, 1, "x", 1)
        network.send(0, 1, "y", 2)
        network.deliver()
        assert len(network.receive(1, "x")) == 1
        assert len(network.receive(1, "y")) == 1

    def test_rounds_advance(self):
        network = SynchronousNetwork(2)
        network.send(0, 1, "x", None)
        network.deliver()
        network.send(1, 0, "y", None)
        network.deliver()
        assert network.round_index == 2
        assert network.metrics.rounds == 2

    def test_self_send_rejected(self):
        network = SynchronousNetwork(2)
        with pytest.raises(ValueError):
            network.send(0, 0, "x", None)

    def test_invalid_participants_rejected(self):
        network = SynchronousNetwork(2)
        with pytest.raises(ValueError):
            network.send(0, 5, "x", None)
        with pytest.raises(ValueError):
            network.send(-1, 0, "x", None)
        with pytest.raises(ValueError):
            network.receive(9)

    def test_extra_participant_can_communicate(self):
        network = SynchronousNetwork(2, extra_participants=1)
        network.send(0, 2, "claim", "data")
        network.deliver()
        assert network.receive(2)[0].payload == "data"

    def test_extra_participant_excluded_from_broadcast_by_default(self):
        # The documented contract: extras have full send/receive rights
        # but do not change the broadcast fan-out unless opted in, and
        # the metrics charge n - 1 copies (the Theorem 11 unit).
        network = SynchronousNetwork(2, extra_participants=1)
        network.publish(0, "announce", 1)
        network.deliver()
        assert len(network.receive(1)) == 1
        assert len(network.receive(2)) == 0
        assert network.metrics.point_to_point_messages == 1

    def test_extra_participant_included_when_opted_in(self):
        network = SynchronousNetwork(2, extra_participants=1,
                                     broadcast_to_extras=True)
        network.publish(0, "announce", 1)
        network.deliver()
        assert len(network.receive(1)) == 1
        assert len(network.receive(2)) == 1
        assert network.metrics.point_to_point_messages == 2

    def test_extra_participant_broadcast_reaches_all_agents(self):
        # An extra-participant *sender* publishing with extras excluded
        # still reaches every agent, and the metrics charge the actual
        # recipient count (n copies here, not n - 1).
        network = SynchronousNetwork(2, extra_participants=1)
        network.publish(2, "outcome", 1)
        network.deliver()
        assert len(network.receive(0)) == 1
        assert len(network.receive(1)) == 1
        assert network.metrics.point_to_point_messages == 2

    def test_metrics_track_broadcast_expansion(self):
        network = SynchronousNetwork(5)
        network.publish(0, "x", None, field_elements=2)
        network.deliver()
        assert network.metrics.point_to_point_messages == 4
        assert network.metrics.field_elements == 8

    def test_needs_one_agent(self):
        with pytest.raises(ValueError):
            SynchronousNetwork(0)
        with pytest.raises(ValueError):
            SynchronousNetwork(2, extra_participants=-1)
