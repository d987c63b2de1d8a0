"""Unit tests for repro.network.faults."""

import random

import pytest

from repro.network.faults import FaultPlan, obedient_plan
from repro.network.message import Message
from repro.network.simulator import SynchronousNetwork


def make_message(sender=0, recipient=1):
    return Message(sender=sender, recipient=recipient, kind="x", payload="p")


class TestFaultPlan:
    def test_obedient_plan_passes_everything(self):
        plan = obedient_plan()
        message = make_message()
        assert plan.transform(message, 0) is message

    def test_crash_stop_from_round(self):
        plan = FaultPlan(crashed_from_round={0: 2})
        assert not plan.sender_is_crashed(0, 1)
        assert plan.sender_is_crashed(0, 2)
        assert plan.sender_is_crashed(0, 5)
        assert not plan.sender_is_crashed(1, 5)

    def test_crashed_sender_messages_dropped(self):
        plan = FaultPlan(crashed_from_round={0: 0})
        assert plan.transform(make_message(), 0) is None

    def test_dropped_link(self):
        plan = FaultPlan(dropped_links={(0, 1)})
        assert plan.transform(make_message(0, 1), 0) is None
        assert plan.transform(make_message(1, 0), 0) is not None

    def test_probabilistic_drop_requires_rng(self):
        with pytest.raises(ValueError):
            FaultPlan(drop_probability=0.5)

    def test_probability_bounds(self):
        with pytest.raises(ValueError):
            FaultPlan(drop_probability=1.5, rng=random.Random(0))

    def test_probabilistic_drop_rate(self):
        plan = FaultPlan(drop_probability=0.5, rng=random.Random(7))
        survived = sum(
            1 for _ in range(400)
            if plan.transform(make_message(), 0) is not None
        )
        assert 140 < survived < 260

    def test_corruptor_rewrites(self):
        def corrupt(message):
            return Message(sender=message.sender, recipient=message.recipient,
                           kind=message.kind, payload="corrupted")

        plan = FaultPlan(corruptors={(0, 1): corrupt})
        assert plan.transform(make_message(0, 1), 0).payload == "corrupted"
        assert plan.transform(make_message(1, 0), 0).payload == "p"


class TestSimulatorIntegration:
    def test_crashed_agent_sends_nothing(self):
        plan = FaultPlan(crashed_from_round={0: 0})
        network = SynchronousNetwork(3, fault_plan=plan)
        network.send(0, 1, "x", None)
        network.send(2, 1, "y", None)
        network.deliver()
        inbox = network.receive(1)
        assert [m.sender for m in inbox] == [2]

    def test_crashed_broadcast_not_counted(self):
        plan = FaultPlan(crashed_from_round={0: 0})
        network = SynchronousNetwork(3, fault_plan=plan)
        network.publish(0, "x", None)
        network.deliver()
        assert network.metrics.point_to_point_messages == 0

    def test_dropped_link_still_counted_as_sent(self):
        plan = FaultPlan(dropped_links={(0, 1)})
        network = SynchronousNetwork(2, fault_plan=plan)
        network.send(0, 1, "x", None)
        delivered = network.deliver()
        assert delivered == 0
        assert network.metrics.point_to_point_messages == 1

    def test_broadcast_with_one_dropped_link_partially_delivers(self):
        plan = FaultPlan(dropped_links={(0, 1)})
        network = SynchronousNetwork(3, fault_plan=plan)
        network.publish(0, "x", None)
        network.deliver()
        assert network.receive(1) == []
        assert len(network.receive(2)) == 1

    def test_agent_crashing_mid_run(self):
        plan = FaultPlan(crashed_from_round={0: 1})
        network = SynchronousNetwork(2, fault_plan=plan)
        network.send(0, 1, "early", None)
        network.deliver()   # round 0: delivered
        network.send(0, 1, "late", None)
        network.deliver()   # round 1: crashed
        kinds = [m.kind for m in network.receive(1)]
        assert kinds == ["early"]


def _synchronous(num_agents, plan):
    return SynchronousNetwork(num_agents, fault_plan=plan)


def _timeout(num_agents, plan):
    from repro.network.asynchronous import TimeoutNetwork
    from repro.network.latency import LatencyModel
    return TimeoutNetwork(num_agents,
                          LatencyModel(random.Random(0), base=0.0,
                                       jitter=0.0),
                          round_timeout=1.0, fault_plan=plan)


def _corrupt(message):
    return Message(sender=message.sender, recipient=message.recipient,
                   kind=message.kind, payload="corrupted",
                   field_elements=message.field_elements,
                   round_sent=message.round_sent)


class TestFaultsAddedBetweenBarriers:
    """The networks ask ``has_faults()`` once per barrier and skip the
    per-copy fault calls on an empty plan; a fault added to the plan
    after one barrier still applies at the next."""

    def test_has_faults(self):
        assert not obedient_plan().has_faults()
        assert FaultPlan(crashed_from_round={0: 3}).has_faults()
        assert FaultPlan(dropped_links={(0, 1)}).has_faults()
        assert FaultPlan(drop_probability=0.5,
                         rng=random.Random(0)).has_faults()
        assert FaultPlan(corruptors={(0, 1): _corrupt}).has_faults()

    @pytest.mark.parametrize("make_network", [_synchronous, _timeout])
    @pytest.mark.parametrize("fault", ["crash", "drop", "corrupt"])
    def test_fault_added_between_two_deliveries(self, make_network, fault):
        plan = FaultPlan()
        network = make_network(3, plan)
        network.send(0, 1, "x", "before")
        network.publish(0, "y", "before")
        assert network.deliver() == 3
        assert [m.payload for m in network.receive(1)] == ["before"] * 2
        assert [m.payload for m in network.receive(2)] == ["before"]
        if fault == "crash":
            plan.crashed_from_round[0] = network.round_index
        elif fault == "drop":
            plan.dropped_links.add((0, 1))
        else:
            plan.corruptors[(0, 1)] = _corrupt
        assert plan.has_faults()
        network.send(0, 1, "x", "after")
        network.publish(0, "y", "after")
        network.send(2, 1, "z", "after")
        network.deliver()
        to_one = [(m.sender, m.payload) for m in network.receive(1)]
        to_two = [(m.sender, m.payload) for m in network.receive(2)]
        if fault == "crash":
            assert to_one == [(2, "after")]
            assert to_two == []
        elif fault == "drop":
            assert to_one == [(2, "after")]
            assert to_two == [(0, "after")]
        else:
            assert to_one == [(0, "corrupted"), (0, "corrupted"),
                              (2, "after")]
            assert to_two == [(0, "after")]
