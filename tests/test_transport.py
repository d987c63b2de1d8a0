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
   ``NetworkMetrics``, and the full flight-event sequence, under fault
   plans with dropped links and crashes.
"""

import asyncio
import gc
import json
import os
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
from repro.network.simulator import SynchronousNetwork
from repro.network.transport import (InProcessTransport, TransportError,
                                     create_transport)
from repro.obs.flight import FlightRecorder
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
    transports in one process; ``close()`` has to drain every reader
    task and socket, and even a transport dropped *without* ``close()``
    (a run aborting mid-round and unwinding past its finally) must be
    finalized without pending tasks or ``ResourceWarning``s.
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
                tasks = list(transport._tasks)
                loop = transport._loop
                transport.close()
                assert all(task.done() for task in tasks)
                assert transport._tasks == []
                assert transport._hub_writers == {}
                assert transport._client_writers == {}
                assert loop.is_closed()
                transport.close()  # stays idempotent after the drain
            gc.collect()
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
            # loop <-> task <-> transport cycle reachable forever.
            transport_ref = weakref.ref(transport)
            loop_ref = weakref.ref(transport._loop)
            # The daemon crash path: the object is dropped with live
            # reader tasks, open sockets, and an open private loop.
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


class _WriterStub:
    closed = False

    def close(self):
        self.closed = True


class _Poison:
    """Unpickling this fails the test: it must never reach pickle.loads."""

    def __reduce__(self):
        return (pytest.fail, ("a frame from a rejected peer was unpickled",))


def _serve_hello(hello, payload):
    """Run the hub side of one connection that sends ``hello`` and then
    one submit frame; return what it queued, the unclaimed ids after it,
    and whether it closed the connection."""
    async def scenario():
        reader = asyncio.StreamReader()
        reader.feed_data(hello + asyncio_transport._encode_frame(
            ("submit", payload)))
        reader.feed_eof()
        frames = asyncio.Queue()
        unclaimed = {0, 2}  # participant 1 has already said hello
        writer = _WriterStub()
        await asyncio_transport._hub_side(_TOKEN, unclaimed, frames, reader,
                                          writer)
        queued = []
        while not frames.empty():
            queued.append(frames.get_nowait())
        return queued, unclaimed, writer.closed
    return asyncio.run(scenario())


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
        queued, unclaimed, closed = _serve_hello(
            _TOKEN + struct.pack(">I", 0), ["benign"])
        assert [(pid, kind) for pid, kind, _ in queued] == \
            [(0, "hello"), (0, "submit"), (0, "closed")]
        assert queued[1][2] == ["benign"]
        assert unclaimed == {2}
        assert closed

    @pytest.mark.parametrize("token,pid", [
        (bytes(32), 0),   # wrong token
        (_TOKEN, 3),      # out-of-range participant id
        (_TOKEN, 1),      # participant id already taken
    ], ids=["wrong-token", "out-of-range", "duplicate"])
    def test_forged_hello_is_dropped_before_unpickling(self, token, pid):
        queued, unclaimed, closed = _serve_hello(
            token + struct.pack(">I", pid), _Poison())
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
            getattr(transport, side)[1].transport.abort()
            with pytest.raises(TransportError,
                               match=r"round 1: .*participant\(s\) 1 "):
                transport.step()
        finally:
            transport.close()

    def test_stalled_ack_names_participant_and_round(self, monkeypatch):
        endpoint = asyncio_transport._endpoint

        async def deaf_endpoint(pid, reader, writer, inboxes):
            if pid == 2:  # reads nothing, so never acknowledges
                await asyncio.Event().wait()
            await endpoint(pid, reader, writer, inboxes)

        monkeypatch.setattr(asyncio_transport, "_endpoint", deaf_endpoint)
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


def _flight_signature(flight):
    """The full event sequence minus wall-clock (and span) identity."""
    return [(e.seq, e.type, e.round, e.kind, e.sender, e.receiver,
             e.field_elements, e.task, e.attempt, e.link, e.detail)
            for e in flight.events]


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
        same totals and the same flight-event stream."""
        n, m, seed = 5, 2, 4
        parameters = DMWParameters.generate(n, fault_bound=1,
                                            group_size="small")
        problem = workloads.random_discrete(n, m, parameters.bid_values,
                                            random.Random(seed))
        policy = RetryPolicy(max_attempts=2)
        timeout = 0.05

        network_flight = FlightRecorder()
        network = TimeoutNetwork(
            n, LatencyModel(random.Random(99)), round_timeout=timeout,
            fault_plan=FAULT_PLANS[plan_name](), extra_participants=1,
            retry_policy=policy)
        reference = _run_protocol(parameters, problem, seed, network=network,
                                  flight=network_flight)

        socket_flight = FlightRecorder()
        transport = create_transport(
            "asyncio", n, fault_plan=FAULT_PLANS[plan_name](),
            latency_model=LatencyModel(random.Random(99)),
            round_timeout=timeout, retry_policy=policy)
        try:
            socketed = _run_protocol(parameters, problem, seed,
                                     transport=transport,
                                     flight=socket_flight)
        finally:
            transport.close()

        assert _outcome_signature(socketed) == _outcome_signature(reference)
        assert _flight_signature(socket_flight) == \
            _flight_signature(network_flight)
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
                  flight=None, degraded=False):
    agents = _agents_for(parameters, problem, seed)
    protocol = DMWProtocol(parameters, agents, network=network,
                           transport=transport, flight=flight)
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
    the complete flight-event stream (link fields included) must be
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

        sync_flight = FlightRecorder()
        sync_network = SynchronousNetwork(
            n, fault_plan=FAULT_PLANS[plan_name](), extra_participants=1)
        sync_outcome = _run_protocol(parameters, problem, seed,
                                     network=sync_network,
                                     flight=sync_flight, degraded=degraded)

        timeout_flight = FlightRecorder()
        timeout_network = TimeoutNetwork(
            n, _zero_latency(), round_timeout=1.0,
            fault_plan=FAULT_PLANS[plan_name](), extra_participants=1,
            retry_policy=NO_RETRY)
        timeout_outcome = _run_protocol(parameters, problem, seed,
                                        network=timeout_network,
                                        flight=timeout_flight,
                                        degraded=degraded)

        assert _outcome_signature(timeout_outcome) == \
            _outcome_signature(sync_outcome)
        if sync_outcome.abort is not None:
            assert timeout_outcome.abort.reason == sync_outcome.abort.reason
            assert timeout_outcome.abort.phase == sync_outcome.abort.phase
        assert sorted(timeout_outcome.task_aborts) == \
            sorted(sync_outcome.task_aborts)
        assert _flight_signature(timeout_flight) == \
            _flight_signature(sync_flight)
        assert timeout_flight.summary() == sync_flight.summary()
        # Nothing was ever late, so the timeout bookkeeping must be inert.
        assert timeout_network.late_messages == 0
        assert timeout_network.retries == 0
        assert timeout_network.recovered == 0
