"""Transport seam: golden bit-identity, socket parity, timeout parity.

Besides the socket transport's wire contract (one frame per endpoint per
phase, inbox order, the authenticated hello, attributable failures) and
its lifecycle, three guarantees are pinned here:

1. **Golden bit-identity** — the machine/transport refactor changed the
   driver's shape, not its behaviour: every golden fixture entry
   (captured at the pre-refactor driver, sequential / phase-barrier /
   process-pool) reproduces exactly over the in-process transport.
2. **Asyncio socket parity** — the localhost-TCP transport produces
   identical outcomes, per-agent Table 1 counters, and network totals to
   the in-process simulator, including under the latency model with
   retries (it consumes the same RNG streams in the same order).
3. **Timeout/synchronous differential** — a ``TimeoutNetwork`` with
   :data:`~repro.network.asynchronous.NO_RETRY` and a zero-latency model
   is bit-identical to a bare ``SynchronousNetwork``: outcomes,
   ``NetworkMetrics``, and the full message-event sequence, under fault
   plans with dropped links and crashes.
"""

import asyncio
import gc
import json
import os
import pickletools
import random
import socket
import struct
import sys
import warnings
from collections import Counter

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from golden_transport import FIXTURE_PATH, GOLDEN_DRIVERS, capture_run

from repro.core import DMWParameters
from repro.core.agent import DMWAgent
from repro.core.protocol import DMWProtocol, run_dmw
from repro.network import asyncio_transport
from repro.network.asynchronous import NO_RETRY, RetryPolicy, TimeoutNetwork
from repro.network.faults import FaultPlan
from repro.network.latency import LatencyModel
from repro.network.message import Message
from repro.network.simulator import SynchronousNetwork
from repro.network.transport import (InProcessTransport, TransportError,
                                     create_transport)
from repro.obs.recorder import Recorder
from repro.scheduling import workloads


def _load_fixture():
    with open(FIXTURE_PATH) as handle:
        return json.load(handle)


GOLDEN = _load_fixture()


# ---------------------------------------------------------------------------
# 1. Golden bit-identity of the refactored driver
# ---------------------------------------------------------------------------

class TestGoldenBitIdentity:
    """Every fixture entry reproduces exactly over InProcessTransport."""

    @pytest.mark.parametrize("key", sorted(GOLDEN))
    def test_entry_is_bit_identical(self, key):
        shape, driver = key.rsplit("/", 1)
        n_part, m_part, seed_part = shape.split("_")
        n, m, seed = int(n_part[1:]), int(m_part[1:]), int(seed_part[4:])
        assert driver in GOLDEN_DRIVERS
        fresh = capture_run(n, m, seed, driver)
        golden = GOLDEN[key]
        for field in golden:
            assert fresh[field] == golden[field], \
                "%s diverged on %s" % (key, field)


# ---------------------------------------------------------------------------
# 2. Transport interface units
# ---------------------------------------------------------------------------

class TestTransportFactory:
    def test_inprocess_delegates_to_network(self):
        network = SynchronousNetwork(3, extra_participants=1)
        transport = InProcessTransport(network)
        assert transport.network_view() is network
        transport.send(0, 1, "x", "payload")
        transport.publish(2, "y", "board")
        assert transport.step() == 3  # 1 unicast + 2 broadcast copies
        assert transport.receive(1, "x")[0].payload == "payload"
        assert [m.payload for m in transport.receive(0)] == ["board"]
        assert transport.num_agents == 3
        assert transport.num_participants == 4

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            create_transport("carrier-pigeon", 3)

    def test_inprocess_rejects_socket_options(self):
        with pytest.raises(ValueError):
            create_transport("inprocess", 3, round_timeout=0.5)

    def test_close_is_noop_for_inprocess(self):
        transport = create_transport("inprocess", 2)
        transport.close()  # must not raise


class TestAsyncioTransportUnit:
    def test_round_trip_and_validation(self):
        transport = create_transport("asyncio", 3)
        try:
            transport.send(0, 1, "x", {"value": 41})
            transport.publish(2, "y", "board")
            with pytest.raises(ValueError):
                transport.send(0, 0, "self", None)
            with pytest.raises(ValueError):
                transport.send(0, 9, "oob", None)
            assert transport.step() == 3
            assert transport.receive(1, "x")[0].payload == {"value": 41}
            assert [m.payload for m in transport.receive(0)] == ["board"]
            assert transport.round_index == 1
            assert len(transport.published("y")) == 1
        finally:
            transport.close()

    def test_step_after_close_raises_transport_error(self):
        transport = create_transport("asyncio", 2)
        transport.close()
        transport.close()  # idempotent
        with pytest.raises(TransportError):
            transport.step()


class TestAsyncioTransportLifecycle:
    """Daemon-grade shutdown: repeated runs must not leak loop state.

    A long-lived service (``dmw serve``) creates and destroys many
    transports in one process; ``close()`` has to close every socket
    and leave no task pending, and even a transport dropped *without*
    ``close()`` (a run aborting mid-round and unwinding past its
    finally) must be finalized without ``ResourceWarning``s.
    """

    def test_repeated_runs_drain_tasks_and_raise_no_warnings(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for _ in range(3):
                transport = create_transport("asyncio", 3)
                transport.send(0, 1, "x", 1)
                transport.step()
                # Abort mid-round: a message is queued but never stepped.
                transport.send(1, 2, "y", 2)
                links = list(transport._links)
                loop = transport._loop
                transport.close()
                # Both ends of every participant's connection, each
                # with its socket closed.
                assert len(links) == 2 * transport.num_participants
                assert all(link.get_extra_info("socket").fileno() == -1
                           for link in links)
                assert transport._links == []
                assert not asyncio.all_tasks(loop)
                assert loop.is_closed()
                transport.close()  # stays idempotent after the drain
            gc.collect()
        leaked = [w for w in caught
                  if issubclass(w.category, ResourceWarning)]
        assert not leaked, [str(w.message) for w in leaked]

    def test_refused_endpoint_at_setup_leaks_nothing(self, monkeypatch,
                                                     caplog):
        """The endpoints connect concurrently: a refused connection fails
        the constructor only once every other attempt has ended, so each
        connection that was made is closed."""
        loop_class = asyncio.base_events.BaseEventLoop
        create_connection = loop_class.create_connection
        attempts, made = [], []

        async def first_refused(loop, *args, **kwargs):
            attempts.append(None)
            if len(attempts) == 1:
                raise ConnectionRefusedError("refused")
            link, side = await create_connection(loop, *args, **kwargs)
            made.append(link)
            return link, side

        monkeypatch.setattr(loop_class, "create_connection", first_refused)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                create_transport("asyncio", 3)
            except ConnectionRefusedError:
                pass  # dropped here, so nothing keeps the transport alive
            else:
                pytest.fail("a refused connection did not fail the setup")
            gc.collect()
        assert len(attempts) == 4
        assert len(made) == 3
        assert all(link.get_extra_info("socket").fileno() == -1
                   for link in made)
        # A task left pending on the closed loop is logged, not warned.
        assert not [record.getMessage() for record in caplog.records
                    if record.name == "asyncio"]
        leaked = [w for w in caught
                  if issubclass(w.category, ResourceWarning)]
        assert not leaked, [str(w.message) for w in leaked]

    def test_transport_dropped_without_close_is_finalized(self):
        import weakref

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            transport = create_transport("asyncio", 3)
            transport.send(0, 1, "x", 1)
            transport.step()
            # Weak refs only: a strong ref from the test would keep the
            # transport and its loop alive.
            transport_ref = weakref.ref(transport)
            loop_ref = weakref.ref(transport._loop)
            # The daemon crash path: the object is dropped with open
            # sockets and an open private loop.
            del transport
            for _ in range(3):
                gc.collect()
        assert transport_ref() is None
        loop = loop_ref()
        assert loop is None or loop.is_closed()
        leaked = [w for w in caught
                  if issubclass(w.category, ResourceWarning)]
        assert not leaked, [str(w.message) for w in leaked]


_TOKEN = bytes(range(32))


class _LinkStub:
    """Stands in for one end's socket transport."""

    def __init__(self):
        self.closed = False
        self.written = []

    def is_closing(self):
        return self.closed

    def close(self):
        self.closed = True

    def write(self, data):
        self.written.append(data)


class _QueueStub(list):
    put_nowait = list.append


def _read(side, chunk):
    """Deliver ``chunk`` to ``side`` as its transport would: received
    into the protocol's buffer, then reported, one buffer at a time."""
    while chunk:
        buffer = side.get_buffer(-1)
        size = min(len(buffer), len(chunk))
        buffer[:size] = chunk[:size]
        side.buffer_updated(size)
        chunk = chunk[size:]


class _Poison:
    """Unpickling this fails the test: it must never reach pickle.loads."""

    def __reduce__(self):
        return (pytest.fail, ("a frame from a rejected peer was unpickled",))


def _feed_hub(*chunks):
    """Feed ``chunks`` to the hub side of one connection, then end it;
    return what it queued, the unclaimed ids after it, and whether the
    hub closed the connection before it ended."""
    frames, unclaimed, link = _QueueStub(), {0, 2}, _LinkStub()
    # Participant 1 has already said hello.
    side = asyncio_transport._HubSide(_TOKEN, unclaimed, frames, [])
    side.connection_made(link)
    for chunk in chunks:
        _read(side, chunk)
    closed = link.closed
    side.connection_lost(None)
    return frames, unclaimed, closed


def _submit(payload):
    return asyncio_transport._encode_frame(("submit", payload))


class TestAsyncioTransportWire:
    """The wire contract: batched frames, inbox order, the authenticated
    hello, and failures that name who is missing."""

    def test_one_frame_per_endpoint_per_phase(self, monkeypatch):
        encode = asyncio_transport._encode_frame
        written = []

        def counting_encode(frame):
            written.append(frame[0])
            return encode(frame)

        transport = create_transport("asyncio", 4)
        monkeypatch.setattr(asyncio_transport, "_encode_frame",
                            counting_encode)
        try:
            for sender in range(4):
                for recipient in range(4):
                    if recipient != sender:
                        transport.send(sender, recipient, "x",
                                       (sender, recipient))
                transport.publish(sender, "y", sender)
            assert transport.step() == 24  # 12 unicasts + 4 x 3 copies
        finally:
            transport.close()
        assert Counter(written) == {"submit": 4, "copy": 4, "ack": 4}
        assert len(written) <= 3 * transport.num_participants

    def test_frames_carry_messages_as_plain_tuples(self, monkeypatch):
        """Submit and copy entries are the plain tuples of the messages'
        fields, no frame's pickle names ``Message``, and each endpoint
        rebuilds messages equal to the in-process network's inbox."""
        encode = asyncio_transport._encode_frame
        frames = []

        def capturing_encode(frame):
            body = encode(frame)
            frames.append((frame, body))
            return body

        network = SynchronousNetwork(4, extra_participants=1)
        transport = create_transport("asyncio", 4)
        monkeypatch.setattr(asyncio_transport, "_encode_frame",
                            capturing_encode)
        try:
            for target in (network, transport):
                for sender in range(4):
                    target.send(sender, (sender + 1) % 4, "x",
                                (sender, "share"), 2)
                    target.publish(sender, "y", [sender])
                target.send(4, 0, "claim", 4)
            delivered = transport.step()
            assert delivered == network.deliver() == 17
            inboxes = [transport.peek(agent)
                       for agent in range(transport.num_participants)]
        finally:
            transport.close()
        submitted = [fields for (kind, body), _ in frames
                     if kind == "submit" for _, fields in body]
        copied = [fields for (kind, body), _ in frames
                  if kind == "copy" for fields in body]
        assert (len(submitted), len(copied)) == (9, delivered)
        for fields in submitted + copied:
            assert type(fields) is tuple and len(fields) == 6
        header = asyncio_transport._HEADER.size
        for _, wire in frames:
            assert not any(isinstance(arg, str) and "Message" in arg
                           for _, arg, _ in
                           pickletools.genops(wire[header:]))
        for agent, inbox in enumerate(inboxes):
            assert all(type(message) is Message for message in inbox)
            assert inbox == network.peek(agent)

    def test_inbox_order_matches_timeout_network(self):
        """Late copies recovered by a retry join the inbox after the
        on-time ones, exactly as TimeoutNetwork hands them off."""
        n, timeout = 4, 0.015
        policy = RetryPolicy(max_attempts=3)
        network = TimeoutNetwork(n, LatencyModel(random.Random(5)),
                                 round_timeout=timeout, extra_participants=1,
                                 retry_policy=policy)
        transport = create_transport(
            "asyncio", n, latency_model=LatencyModel(random.Random(5)),
            round_timeout=timeout, retry_policy=policy)
        try:
            for round_index in range(4):
                for target in (network, transport):
                    for sender in range(n):
                        recipient = (sender + 1 + round_index % (n - 1)) % n
                        target.send(sender, recipient, "unicast",
                                    (round_index, sender))
                        target.publish(sender, "broadcast",
                                       (round_index, sender))
                    target.send(n, round_index % n, "claim", round_index)
                assert transport.step() == network.deliver()
            assert transport.recovered == network.recovered > 0
            for agent in range(transport.num_participants):
                assert transport.peek(agent) == network.peek(agent)
        finally:
            transport.close()

    def test_hub_refuses_connections_after_setup(self):
        transport = create_transport("asyncio", 2)
        try:
            port = transport._hub_writers[0].get_extra_info("sockname")[1]
            with pytest.raises(ConnectionRefusedError):
                socket.create_connection(("127.0.0.1", port),
                                         timeout=2).close()
        finally:
            transport.close()

    def test_hello_with_token_and_free_id_is_accepted(self):
        queued, unclaimed, closed = _feed_hub(
            _TOKEN + struct.pack(">I", 0) + _submit(["benign"]))
        assert [(pid, kind) for pid, kind, _ in queued] == \
            [(0, "hello"), (0, "submit"), (0, "closed")]
        assert queued[1][2] == ["benign"]
        assert unclaimed == {2}
        assert not closed

    def test_hello_and_frame_split_into_single_bytes_are_reassembled(self):
        wire = _TOKEN + struct.pack(">I", 2) + _submit(["split"])
        queued, unclaimed, _ = _feed_hub(
            *(wire[i:i + 1] for i in range(len(wire))))
        assert [(pid, kind) for pid, kind, _ in queued] == \
            [(2, "hello"), (2, "submit"), (2, "closed")]
        assert queued[1][2] == ["split"]
        assert unclaimed == {0}

    def test_two_frames_in_one_chunk_arrive_in_order(self):
        queued, _, _ = _feed_hub(
            _TOKEN + struct.pack(">I", 0),
            _submit(["first"]) + _submit(["second"]))
        assert [body for _, kind, body in queued if kind == "submit"] == \
            [["first"], ["second"]]
        messages = [Message(0, 1, "x", "a", 1, 0),
                    Message(2, None, "y", ("b",), 2, 0),
                    Message(3, 1, "x", "c", 1, 0)]
        inboxes, link = {1: []}, _LinkStub()
        side = asyncio_transport._EndpointSide(1, inboxes, [])
        side.connection_made(link)
        _read(side, asyncio_transport._encode_frame(
            ("copy", [tuple(m) for m in messages[:2]]))
            + asyncio_transport._encode_frame(("copy", [tuple(messages[2])])))
        assert inboxes[1] == messages
        assert all(type(m) is Message for m in inboxes[1])
        assert link.written == \
            [asyncio_transport._encode_frame(("ack", None))] * 2

    def test_frame_longer_than_the_receive_buffer_crosses_intact(self):
        payload = bytes(range(256)) * (
            4 * asyncio_transport._RECEIVE_BYTES // 256)
        transport = create_transport("asyncio", 3)
        try:
            transport.send(0, 1, "big", payload)
            transport.publish(2, "small", 2)
            assert transport.step() == 3
            assert [m.payload for m in transport.receive(1)] == [payload, 2]
        finally:
            transport.close()

    @pytest.mark.parametrize("token,pid", [
        (bytes(32), 0),   # wrong token
        (_TOKEN, 3),      # out-of-range participant id
        (_TOKEN, 1),      # participant id already taken
    ], ids=["wrong-token", "out-of-range", "duplicate"])
    def test_forged_hello_is_dropped_before_unpickling(self, token, pid):
        # A frame in the hello's chunk, then a second try: a good hello
        # for a free id and a frame, in a later chunk.
        queued, unclaimed, closed = _feed_hub(
            token + struct.pack(">I", pid) + _submit(_Poison()),
            _TOKEN + struct.pack(">I", 0) + _submit(_Poison()))
        assert queued == []
        assert unclaimed == {0, 2}
        assert closed

    @pytest.mark.parametrize("side", ["_client_writers", "_hub_writers"])
    def test_lost_connection_names_participant_and_round(self, side):
        transport = create_transport("asyncio", 3)
        try:
            transport.send(0, 1, "x", 1)
            assert transport.step() == 1
            transport.send(1, 2, "y", 2)
            transport.send(2, 1, "z", 3)
            getattr(transport, side)[1].abort()
            with pytest.raises(TransportError,
                               match=r"round 1: .*participant\(s\) 1 "):
                transport.step()
        finally:
            transport.close()

    def test_stalled_ack_names_participant_and_round(self, monkeypatch):
        endpoint_side = asyncio_transport._EndpointSide
        absorb = endpoint_side.buffer_updated

        def deaf_to_participant_2(side, nbytes):
            if side._pid != 2:  # participant 2 never acknowledges
                absorb(side, nbytes)

        monkeypatch.setattr(endpoint_side, "buffer_updated",
                            deaf_to_participant_2)
        transport = create_transport("asyncio", 3)
        transport._wall_bound = lambda: 0.2
        try:
            transport.send(0, 2, "x", 1)
            with pytest.raises(TransportError,
                               match=r"round 0: no ack frame from "
                                     r"participant\(s\) 2 within 0\.2s"):
                transport.step()
        finally:
            transport.close()

    def test_deadline_at_phase_end_does_not_fail_next_phase(self):
        transport = create_transport("asyncio", 3)
        loop, frames = transport._loop, transport._frames

        def bound_as_last_frame_lands():
            # The phase's last frame lands in the same loop pass in which
            # its deadline fires, just ahead of the deadline's sentinel.
            loop.call_soon(frames.put_nowait, (0, "probe", "on time"))
            return 0.0

        try:
            transport._wall_bound = bound_as_last_frame_lands
            assert loop.run_until_complete(transport._collect(
                "probe", [0], "round 0")) == {0: "on time"}
            assert frames.qsize() == 1  # the expired phase's sentinel
            del transport._wall_bound
            transport.send(0, 1, "x", 1)
            assert transport.step() == 1
            assert [m.payload for m in transport.receive(1)] == [1]
        finally:
            transport.close()


# ---------------------------------------------------------------------------
# 3. Asyncio socket parity with the in-process simulator
# ---------------------------------------------------------------------------

def _outcome_signature(outcome):
    return {
        "completed": outcome.completed,
        "schedule": (list(outcome.schedule.assignment)
                     if outcome.schedule else None),
        "payments": list(outcome.payments) if outcome.payments else None,
        "agent_operations": [dict(ops) for ops in outcome.agent_operations],
        "network": outcome.network_metrics.as_dict(),
    }


def _flight_signature(recorder):
    """The full message-event sequence minus wall-clock (and span)
    identity."""
    return [(e.seq, e.type, e.round, e.kind, e.sender, e.receiver,
             e.field_elements, e.task, e.attempt, e.link, e.detail)
            for e in recorder.messages]


FAULT_PLANS = {
    "clean": lambda: None,
    "dropped_links": lambda: FaultPlan(dropped_links={(0, 2), (3, 1)}),
    "crash": lambda: FaultPlan(crashed_from_round={2: 2}),
    "drop_and_crash": lambda: FaultPlan(dropped_links={(1, 0)},
                                        crashed_from_round={3: 4}),
}


class TestAsyncioSocketParity:
    @pytest.mark.parametrize("n,m,seed", [(5, 3, 7), (4, 2, 11)])
    def test_identical_outcome_and_counters(self, n, m, seed):
        parameters = DMWParameters.generate(n, fault_bound=1,
                                            group_size="small")
        problem = workloads.random_discrete(n, m, parameters.bid_values,
                                            random.Random(seed))
        reference = run_dmw(problem, parameters=parameters,
                            rng=random.Random(seed + 1))
        socketed = run_dmw(problem, parameters=parameters,
                           rng=random.Random(seed + 1),
                           transport="asyncio")
        assert _outcome_signature(socketed) == _outcome_signature(reference)

    @pytest.mark.parametrize("plan_name", sorted(FAULT_PLANS))
    def test_timeout_and_retry_parity_with_timeout_network(self, plan_name):
        """Same latency seed, timeout, retry policy, and fault plan =>
        same totals and the same message-event stream."""
        n, m, seed = 5, 2, 4
        parameters = DMWParameters.generate(n, fault_bound=1,
                                            group_size="small")
        problem = workloads.random_discrete(n, m, parameters.bid_values,
                                            random.Random(seed))
        policy = RetryPolicy(max_attempts=2)
        timeout = 0.05

        network_recorder = Recorder(message_capacity=65536)
        network = TimeoutNetwork(
            n, LatencyModel(random.Random(99)), round_timeout=timeout,
            fault_plan=FAULT_PLANS[plan_name](), extra_participants=1,
            retry_policy=policy)
        reference = _run_protocol(parameters, problem, seed, network=network,
                                  recorder=network_recorder)

        socket_recorder = Recorder(message_capacity=65536)
        transport = create_transport(
            "asyncio", n, fault_plan=FAULT_PLANS[plan_name](),
            latency_model=LatencyModel(random.Random(99)),
            round_timeout=timeout, retry_policy=policy)
        try:
            socketed = _run_protocol(parameters, problem, seed,
                                     transport=transport,
                                     recorder=socket_recorder)
        finally:
            transport.close()

        assert _outcome_signature(socketed) == _outcome_signature(reference)
        assert _flight_signature(socket_recorder) == \
            _flight_signature(network_recorder)
        view = transport
        assert view.clock == pytest.approx(network.clock)
        assert view.late_messages == network.late_messages
        assert view.retries == network.retries
        assert view.recovered == network.recovered
        assert view.round_durations == pytest.approx(network.round_durations)


def _agents_for(parameters, problem, seed):
    master = random.Random(seed + 1)
    return [
        DMWAgent(index, parameters,
                 [int(problem.time(index, task))
                  for task in range(problem.num_tasks)],
                 rng=random.Random(master.getrandbits(64)))
        for index in range(parameters.num_agents)
    ]


def _run_protocol(parameters, problem, seed, network=None, transport=None,
                  recorder=None, degraded=False):
    agents = _agents_for(parameters, problem, seed)
    protocol = DMWProtocol(parameters, agents, network=network,
                           transport=transport, recorder=recorder)
    return protocol.execute(problem.num_tasks, degraded=degraded)


# ---------------------------------------------------------------------------
# 4. TimeoutNetwork(NO_RETRY, zero latency) == SynchronousNetwork
# ---------------------------------------------------------------------------

def _zero_latency():
    return LatencyModel(random.Random(0), base=0.0, jitter=0.0)


class TestTimeoutMatchesSynchronousDifferential:
    """NO_RETRY + zero latency must be indistinguishable from synchrony.

    The timeout barrier only changes behaviour when a copy is *late*;
    with a zero-latency model nothing ever is, so outcomes, metrics, and
    the complete message-event stream (link fields included) must be
    bit-identical under any fault plan.
    """

    @pytest.mark.parametrize("plan_name", sorted(FAULT_PLANS))
    @pytest.mark.parametrize("degraded", [False, True])
    def test_bit_identical_under_fault_plan(self, plan_name, degraded):
        n, m, seed = 5, 2, 13
        parameters = DMWParameters.generate(n, fault_bound=1,
                                            group_size="small")
        problem = workloads.random_discrete(n, m, parameters.bid_values,
                                            random.Random(seed))

        sync_recorder = Recorder(message_capacity=65536)
        sync_network = SynchronousNetwork(
            n, fault_plan=FAULT_PLANS[plan_name](), extra_participants=1)
        sync_outcome = _run_protocol(parameters, problem, seed,
                                     network=sync_network,
                                     recorder=sync_recorder, degraded=degraded)

        timeout_recorder = Recorder(message_capacity=65536)
        timeout_network = TimeoutNetwork(
            n, _zero_latency(), round_timeout=1.0,
            fault_plan=FAULT_PLANS[plan_name](), extra_participants=1,
            retry_policy=NO_RETRY)
        timeout_outcome = _run_protocol(parameters, problem, seed,
                                        network=timeout_network,
                                        recorder=timeout_recorder,
                                        degraded=degraded)

        assert _outcome_signature(timeout_outcome) == \
            _outcome_signature(sync_outcome)
        if sync_outcome.abort is not None:
            assert timeout_outcome.abort.reason == sync_outcome.abort.reason
            assert timeout_outcome.abort.phase == sync_outcome.abort.phase
        assert sorted(timeout_outcome.task_aborts) == \
            sorted(sync_outcome.task_aborts)
        assert _flight_signature(timeout_recorder) == \
            _flight_signature(sync_recorder)
        assert timeout_recorder.message_summary() == \
            sync_recorder.message_summary()
        # Nothing was ever late, so the timeout bookkeeping must be inert.
        assert timeout_network.late_messages == 0
        assert timeout_network.retries == 0
        assert timeout_network.recovered == 0
