"""The lean message path: tuple records, stamping when queued, and
order-keeping receives.

``Message`` and the share and commitment records it carries are
immutable ``NamedTuple``s.  The payload records' ``__reduce__`` rebuilds
them with ``tuple.__new__``; the socket transport sends a message as the
plain tuple of its fields, so ``Message`` pickles the default way, which
still round-trips.  Every network stamps a message with its round when it
is queued, so each inbox copy and each bulletin-board entry carries the
round it was sent in, a copy recovered by a retransmission included.  A
filtered ``receive`` splits the inbox in one pass and keeps arrival order
in both halves.
"""

import copy
import pickle
import random

import pytest

from repro.core.bidding import encode_bid
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
    """A message carrying a share bundle, the bundle, the agent's
    commitments and one of its commitment vectors."""
    package = encode_bid(params5, 2, random.Random(1))
    bundle = package.share_bundle_for(params5.pseudonyms[1])
    message = Message(0, 1, "share_bundle", (3, bundle), 4, 2)
    commitments = package.commitments
    return [message, bundle, commitments, commitments.o_vector]


class TestTupleRecords:
    @pytest.mark.parametrize("clone", sorted(CLONES))
    def test_round_trip_keeps_type_and_fields(self, records, clone):
        for record in records:
            restored = CLONES[clone](record)
            assert type(restored) is type(record)
            assert restored == record
            assert list(map(type, restored)) == list(map(type, record))

    def test_reduce_rebuilds_with_tuple_new(self, records):
        """The payload records, which cross the socket inside payloads;
        ``Message`` itself crosses as a plain tuple."""
        for record in records[1:]:
            rebuild, (cls, fields) = record.__reduce__()
            assert rebuild is tuple.__new__
            assert cls is type(record) and fields == tuple(record)

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
