"""The lean message path: tuple records, stamping when queued, and
order-keeping receives.

``Message`` and the share and commitment records it carries are
immutable ``NamedTuple``s that define no ``__reduce__``.  None of them
crosses a network as itself: the socket transport sends a message as the
plain tuple of its fields, the agent machines send each bidding record
as the plain tuple of its fields (commitment vectors are bare element
tuples, with no group), and the receiving end rebuilds each in C.  Every
network stamps a message with its round when it is queued, so each inbox
copy and each bulletin-board entry carries the round it was sent in, a
copy recovered by a retransmission included.  A filtered ``receive``
splits the inbox in one pass and keeps arrival order in both halves.
"""

import copy
import pickle
import pickletools
import random

import pytest

from repro.core.agent import DMWAgent
from repro.core.bidding import (AgentCommitments, ShareBundle,
                                as_commitments, as_share_bundle, encode_bid)
from repro.core.machine import AgentMachine
from repro.crypto.commitments import PolynomialCommitment
from repro.network import asyncio_transport
from repro.network.asynchronous import RetryPolicy, TimeoutNetwork
from repro.network.latency import LatencyModel
from repro.network.message import Message
from repro.network.simulator import SynchronousNetwork
from repro.network.transport import create_transport

CLONES = {
    "pickle-%d" % protocol: (
        lambda record, protocol=protocol: pickle.loads(
            pickle.dumps(record, protocol=protocol)))
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1)
}
CLONES["copy"] = copy.copy
CLONES["deepcopy"] = copy.deepcopy


@pytest.fixture()
def records(params5):
    """A message carrying a share bundle's wire form, the bundle, the
    agent's commitments and one vector as its committer returns it."""
    package = encode_bid(params5, 2, random.Random(1))
    bundle = package.share_bundle_for(params5.pseudonyms[1])
    message = Message(0, 1, "share_bundle", (3, tuple(bundle)), 4, 2)
    commitments = package.commitments
    vector = PolynomialCommitment(params5.group_parameters,
                                  commitments.o_vector)
    return [message, bundle, commitments, vector]


class TestTupleRecords:
    @pytest.mark.parametrize("clone", sorted(CLONES))
    def test_round_trip_keeps_type_and_fields(self, records, clone):
        for record in records:
            restored = CLONES[clone](record)
            assert type(restored) is type(record)
            assert restored == record
            assert list(map(type, restored)) == list(map(type, record))

    def test_records_define_no_reduce(self, records):
        """Each record crosses a socket as the plain tuple of its fields,
        so none needs a Python-level pickling hook."""
        for record in records:
            assert "__reduce__" not in vars(type(record))

    @pytest.mark.parametrize("clone", sorted(CLONES))
    def test_wire_round_trip_keeps_type_and_fields(self, records, clone):
        """The bidding records' wire forms are plain tuples of builtins,
        and the C rebuild restores the record, field types included."""
        _, bundle, commitments, _ = records
        for record, rebuild in ((bundle, as_share_bundle),
                                (commitments, as_commitments)):
            wire = CLONES[clone](tuple(record))
            assert type(wire) is tuple
            restored = rebuild(wire)
            assert type(restored) is type(record)
            assert restored == record
            assert list(map(type, restored)) == list(map(type, record))

    def test_records_are_immutable(self, records):
        for record in records:
            with pytest.raises(AttributeError):
                setattr(record, record._fields[0], None)


def _exact_model(scale):
    """Deterministic delays: ``scale * 1 ms`` per listed link, 1 ms else."""
    return LatencyModel(random.Random(0), base=0.001, jitter=0.0,
                        per_link_scale=scale)


#: The link 0 -> 1 takes 0.15 s: late for the 0.1 s barrier, recovered in
#: the first 0.2 s grace window.
SLOW_LINK = {(0, 1): 150.0}


def _synchronous():
    return SynchronousNetwork(3, extra_participants=1), 0


def _timeout_with_retry():
    return TimeoutNetwork(3, _exact_model(SLOW_LINK), round_timeout=0.1,
                          extra_participants=1,
                          retry_policy=RetryPolicy(max_attempts=2)), 1


def _asyncio_with_retry():
    return create_transport("asyncio", 3, latency_model=_exact_model(
        SLOW_LINK), round_timeout=0.1,
        retry_policy=RetryPolicy(max_attempts=2)), 1


def _step(network):
    """One barrier: ``deliver`` on a network, ``step`` on a transport."""
    if isinstance(network, SynchronousNetwork):
        return network.deliver()
    return network.step()


NETWORKS = {"synchronous": _synchronous,
            "timeout-retry": _timeout_with_retry,
            "asyncio-retry": _asyncio_with_retry}


class TestStampedWhenQueued:
    @pytest.mark.parametrize("name", sorted(NETWORKS))
    def test_every_copy_carries_its_queue_round(self, name):
        network, recovered = NETWORKS[name]()
        try:
            for round_index in range(3):
                network.send(0, 1, "unicast", round_index)
                network.send(3, 2, "claim", round_index)
                network.publish(2, "broadcast", round_index)
                assert _step(network) == 4
                for agent in range(network.num_participants):
                    for message in network.receive(agent):
                        assert message.round_sent == message.payload \
                            == round_index
                assert getattr(network, "recovered", 0) == \
                    recovered * (round_index + 1)
            assert [(m.payload, m.round_sent)
                    for m in network.published("broadcast")] == [
                (0, 0), (1, 1), (2, 2)]
        finally:
            if hasattr(network, "close"):
                network.close()


class TestReceiveKeepsOrder:
    @pytest.mark.parametrize("name", ["synchronous", "asyncio-retry"])
    def test_filtered_receive_keeps_arrival_order(self, name):
        network, _ = NETWORKS[name]()
        try:
            kinds = ["a", "b", "a", "c", "b", "a", "a", "c"]
            for position, kind in enumerate(kinds):
                network.send(1 + position % 2, 0, kind, position)
            _step(network)
            arrived = network.peek(0)
            assert [m.payload for m in arrived] == list(range(len(kinds)))
            matched = network.receive(0, "a")
            assert matched == [m for m in arrived if m.kind == "a"]
            assert list(network.peek(0)) == [m for m in arrived
                                             if m.kind != "a"]
            assert network.receive(0, "missing") == []
            assert [m.payload for m in network.receive(0)] == [1, 3, 4, 7]
        finally:
            if hasattr(network, "close"):
                network.close()


#: What no socket frame may name: every payload is plain data.
RECORD_NAMES = ("GroupParameters", "SchnorrGroup", "PolynomialCommitment",
                "AgentCommitments", "ShareBundle")


def _bidding_round(params, transport, task=0):
    """One task's bidding round over ``transport``: every machine sends,
    the transport steps one barrier, every machine receives."""
    agents = [DMWAgent(index, params, [1 + index % 3] * (task + 1),
                       rng=random.Random(index))
              for index in range(params.num_agents)]
    machines = [AgentMachine(agent) for agent in agents]
    for machine in machines:
        machine.send_bidding(task, transport)
    transport.step()
    for machine in machines:
        machine.recv_bidding(transport)
    return agents


class TestBiddingRecordsOnTheWire:
    @pytest.mark.parametrize("name", ["inprocess", "asyncio"])
    def test_received_records_equal_what_was_sent(self, params5, name):
        transport = create_transport(name, params5.num_agents)
        try:
            agents = _bidding_round(params5, transport)
        finally:
            transport.close()
        for receiver in agents:
            state = receiver.task_state(0)
            for sender in agents:
                package = sender.task_state(0).package
                commitments = state.commitments[sender.index]
                bundle = state.received_bundles[sender.index]
                assert type(commitments) is AgentCommitments
                assert commitments == package.commitments
                assert all(type(vector) is tuple for vector in commitments)
                assert type(bundle) is ShareBundle
                assert bundle == package.share_bundle_for(receiver.pseudonym)

    def test_socket_frames_name_no_record_class(self, params5, monkeypatch):
        """A pickletools scan of every frame of one real socket step of
        the bidding round finds no record class and no group."""
        encode = asyncio_transport._encode_frame
        wires = []

        def capturing_encode(frame):
            wire = encode(frame)
            wires.append(wire)
            return wire

        monkeypatch.setattr(asyncio_transport, "_encode_frame",
                            capturing_encode)
        transport = create_transport("asyncio", params5.num_agents)
        try:
            agents = _bidding_round(params5, transport)
        finally:
            transport.close()
        assert all(agent.check_shares(0) is None for agent in agents)
        header = asyncio_transport._HEADER.size
        named = {arg for wire in wires
                 for _, arg, _ in pickletools.genops(wire[header:])
                 if isinstance(arg, str)}
        # One submit, copy and ack frame per agent; the escrow endpoint
        # sends and receives nothing in this round.
        assert len(wires) == 3 * params5.num_agents
        assert not [name for name in RECORD_NAMES
                    if any(name in arg for arg in named)]
