"""Asyncio socket transport: the round barrier over localhost TCP.

:class:`AsyncioSocketTransport` realizes the :class:`~repro.network
.transport.Transport` contract with real sockets: a hub accepts one TCP
connection per participant (one asyncio reader task per endpoint on both
sides of each connection), and protocol messages cross the wire in
length-prefixed pickle frames.  One :meth:`step` call is one
synchronization barrier, and writes at most one frame per endpoint in
each of its three phases:

1. each sender's queued messages go to the hub as one ``submit`` frame,
   holding that sender's ``(seq, message)`` list;
2. the hub collects the round's submissions and routes them in global
   submission order — the same order the in-process simulator drains its
   outbox, so fault-plan and latency RNG consumption match exactly;
3. the routed messages go through
   :func:`~repro.network.asynchronous.deliver_round`, the one routine
   that also backs :class:`~repro.network.asynchronous.TimeoutNetwork`
   — crash plans, per-copy fault transforms, sampled latency against
   ``round_timeout``, :class:`~repro.network.asynchronous.RetryPolicy`
   grace sub-rounds, the clock/duration formulas, and the message and
   ``network_round`` events.  Its hand-off appends each surviving copy
   to its recipient's batch, and each recipient then gets one ``copy``
   frame holding its copies in hand-off order, recovered retransmissions
   included, so every inbox fills in the order ``TimeoutNetwork``'s does;
4. the barrier releases when every copy frame has been acknowledged
   (one ``ack`` frame each).

Failures are attributable: when a participant's connection closes, or a
phase's frames do not all arrive within a generous wall-clock bound,
:meth:`step` raises :class:`~repro.network.transport.TransportError`
naming the round, the frame kind and the participants concerned.

The hub trusts no peer it did not connect itself.  Each transport draws
a random token, and a connection's hello is that token and a participant
id as raw bytes.  The token is compared in constant time before anything
else the connection sends is unpickled, a participant id that is out of
range or already taken is refused, and the listening socket closes as
soon as every participant has said hello.

The simulated clock (``clock``/``round_durations``) advances by the
shared routine's formulas, not wall time: the sockets carry the
bytes, the latency model decides the semantics.  The transport is its
own ``network_view()`` — it exposes the full duck-typed state surface
(``metrics``, ``round_index``, ``clock``, ``late_messages``,
``retries``, ``recovered``, ``round_durations``, ``bulletin_board``,
``recorder``, ``broadcast_to_extras``) that checkpoints and
the observability bindings read.
"""

from __future__ import annotations

import asyncio
import functools
import hmac
import pickle
import random
import secrets
import struct
import weakref
from collections import defaultdict
from itertools import chain
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from ..obs.recorder import NULL_RECORDER, Recorder
from .asynchronous import NO_RETRY, RetryPolicy, deliver_round
from .faults import FaultPlan, obedient_plan
from .latency import LatencyModel
from .message import BROADCAST, Message, split_by_kind
from .metrics import NetworkMetrics
from .transport import Transport, TransportError

_HEADER = struct.Struct(">I")
_PID = struct.Struct(">I")
_TOKEN_BYTES = 32

#: What the hub side queues for the barrier: ``(pid, kind, body)``.
_Frame = Tuple[int, str, Any]


def _encode_frame(frame: Tuple[Any, ...]) -> bytes:
    body = pickle.dumps(frame, protocol=pickle.HIGHEST_PROTOCOL)
    return _HEADER.pack(len(body)) + body


async def _read_frame(reader: asyncio.StreamReader
                      ) -> Optional[Tuple[Any, ...]]:
    try:
        header = await reader.readexactly(_HEADER.size)
        body = await reader.readexactly(_HEADER.unpack(header)[0])
    except (asyncio.IncompleteReadError, ConnectionError):
        return None
    return pickle.loads(body)


def _listed(participants: Iterable[int]) -> str:
    return ", ".join(str(pid) for pid in sorted(participants))


# The coroutines below, and the finalizer, receive the containers they
# fill and never the transport itself.  So nothing the event loop holds
# references a transport, a transport dropped without close() is freed
# by reference counting, and its finalizer tears the loop down in order;
# a cycle through the loop would leave the garbage collector to run the
# finalizers of its tasks, streams and loop in arbitrary order.

def _accept(token: bytes, unclaimed: Set[int],
            frames: asyncio.Queue[_Frame], tasks: List[asyncio.Task[None]],
            reader: asyncio.StreamReader,
            writer: asyncio.StreamWriter) -> None:
    """Start the hub side of one accepted connection.

    A plain callback rather than a coroutine: asyncio would run a
    coroutine in a task of its own, whose cancellation Python 3.11
    reports as an error.  This task is the transport's, cancelled and
    awaited on close.
    """
    tasks.append(asyncio.get_running_loop().create_task(
        _hub_side(token, unclaimed, frames, reader, writer)))


async def _hub_side(token: bytes, unclaimed: Set[int],
                    frames: asyncio.Queue[_Frame],
                    reader: asyncio.StreamReader,
                    writer: asyncio.StreamWriter) -> None:
    """Hub side of one connection: check the hello, then queue each frame.

    The hello is raw bytes, the token then a participant id; the
    connection is dropped unless the token matches and the id is still
    in ``unclaimed``, before any byte it sent is unpickled.  Each later
    frame is queued as ``(pid, kind, body)``, and the end of the
    connection as ``(pid, "closed", None)``.  A peer that hangs up
    mid-hello fails the task, whose exception close() collects.
    """
    try:
        hello = await reader.readexactly(len(token) + _PID.size)
        pid = _PID.unpack_from(hello, len(token))[0]
        if not (hmac.compare_digest(hello[:len(token)], token)
                and pid in unclaimed):
            return
        unclaimed.remove(pid)
        frames.put_nowait((pid, "hello", writer))
        while True:
            frame = await _read_frame(reader)
            if frame is None:
                break
            kind, body = frame
            frames.put_nowait((pid, kind, body))
        frames.put_nowait((pid, "closed", None))
    finally:
        writer.close()


async def _endpoint(pid: int, reader: asyncio.StreamReader,
                    writer: asyncio.StreamWriter,
                    inboxes: Dict[int, List[Message]]) -> None:
    """Endpoint side of one connection: absorb each copy frame, ack it.

    A lost connection ends the task, and the hub side queues it as
    ``closed``.
    """
    while True:
        frame = await _read_frame(reader)
        if frame is None:
            return
        inboxes[pid].extend(frame[1])
        writer.write(_encode_frame(("ack", None)))
        await writer.drain()


def _tear_down(loop: asyncio.AbstractEventLoop,
               tasks: List[asyncio.Task[None]],
               writer_maps: Tuple[Dict[int, asyncio.StreamWriter], ...]
               ) -> None:
    """A transport's finalizer: stop its tasks, sockets and event loop."""
    loop.run_until_complete(_close_sockets(tasks, writer_maps))
    loop.run_until_complete(loop.shutdown_asyncgens())
    loop.close()


async def _close_sockets(tasks: List[asyncio.Task[None]],
                         writer_maps: Tuple[Dict[int, asyncio.StreamWriter],
                                            ...]) -> None:
    for task in tasks:
        task.cancel()
    await asyncio.gather(*tasks, return_exceptions=True)
    writers = [writer for writer_map in writer_maps
               for writer in writer_map.values()]
    for writer in writers:
        writer.close()
    for writer in writers:
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    tasks.clear()
    for writer_map in writer_maps:
        writer_map.clear()


class AsyncioSocketTransport(Transport):
    """Localhost TCP transport with TimeoutNetwork's failure model.

    Parameters
    ----------
    num_agents, fault_plan, extra_participants:
        As for :class:`~repro.network.simulator.SynchronousNetwork`.
    latency_model:
        Per-copy delay sampler; defaults to a zero-latency model (every
        copy makes the barrier).
    round_timeout:
        Simulated barrier duration ``T`` — copies whose sampled delay
        exceeds it miss the barrier, exactly as in ``TimeoutNetwork``.
    retry_policy:
        Optional :class:`RetryPolicy`; defaults to :data:`NO_RETRY`.
    host:
        Interface to bind the hub on (loopback by default).
    """

    name = "asyncio"

    def __init__(self, num_agents: int,
                 fault_plan: Optional[FaultPlan] = None,
                 extra_participants: int = 1,
                 latency_model: Optional[LatencyModel] = None,
                 round_timeout: float = 1.0,
                 retry_policy: Optional[RetryPolicy] = None,
                 host: str = "127.0.0.1") -> None:
        if num_agents < 1:
            raise ValueError("need at least one agent")
        if extra_participants < 0:
            raise ValueError("extra_participants must be non-negative")
        if round_timeout <= 0:
            raise ValueError("round timeout must be positive")
        self.num_agents = num_agents
        self.num_participants = num_agents + extra_participants
        self.broadcast_to_extras = False
        self.fault_plan = fault_plan or obedient_plan()
        self.latency_model = latency_model or LatencyModel(
            random.Random(0), base=0.0, jitter=0.0)
        self.round_timeout = round_timeout
        self.retry_policy = retry_policy or NO_RETRY
        self.metrics = NetworkMetrics()
        self.bulletin_board: List[Message] = []
        self.round_index = 0
        self.clock = 0.0
        self.late_messages = 0
        self.retries = 0
        self.recovered = 0
        self.round_durations: List[float] = []
        self.recorder: Recorder = NULL_RECORDER
        self._host = host
        self._seq = 0
        self._pending: List[Tuple[int, Message]] = []
        self._inboxes: Dict[int, List[Message]] = defaultdict(list)
        #: Participants whose connection is known to be closed.
        self._lost: Set[int] = set()
        self._hub_writers: Dict[int, asyncio.StreamWriter] = {}
        self._client_writers: Dict[int, asyncio.StreamWriter] = {}
        self._tasks: List[asyncio.Task[None]] = []
        self._loop = asyncio.new_event_loop()
        self._finalizer = weakref.finalize(
            self, _tear_down, self._loop, self._tasks,
            (self._client_writers, self._hub_writers))
        try:
            self._loop.run_until_complete(self._start())
        except BaseException:
            # A half-built transport (e.g. the hello barrier timed out)
            # must not leak its connections, reader tasks or private
            # event loop: tear down whatever _start managed to create
            # before propagating.
            self.close()
            raise

    # -- connection setup -----------------------------------------------------
    async def _start(self) -> None:
        # Created on the running loop (Python 3.9 binds it at creation).
        self._frames: asyncio.Queue[_Frame] = asyncio.Queue()
        token = secrets.token_bytes(_TOKEN_BYTES)
        accept = functools.partial(
            _accept, token, set(range(self.num_participants)), self._frames,
            self._tasks)
        server = await asyncio.start_server(accept, host=self._host, port=0)
        try:
            port = server.sockets[0].getsockname()[1]
            for pid in range(self.num_participants):
                reader, writer = await asyncio.open_connection(self._host,
                                                               port)
                self._client_writers[pid] = writer
                writer.write(token + _PID.pack(pid))
                self._tasks.append(self._loop.create_task(
                    _endpoint(pid, reader, writer, self._inboxes)))
            self._hub_writers.update(await self._collect(
                "hello", range(self.num_participants), "setup"))
        finally:
            # Once every participant has said hello (or setup failed),
            # nobody else may connect.
            server.close()

    # -- transmission primitives ----------------------------------------------
    def _check_participant(self, participant: int, role: str) -> None:
        if not 0 <= participant < self.num_participants:
            raise ValueError("invalid %s id %d" % (role, participant))

    def send(self, sender: int, recipient: int, kind: str, payload: Any,
             field_elements: int = 1) -> None:
        self._check_participant(sender, "sender")
        self._check_participant(recipient, "recipient")
        if sender == recipient:
            raise ValueError("agents do not message themselves")
        self._pending.append((self._seq, Message(
            sender, recipient, kind, payload, field_elements,
            self.round_index)))
        self._seq += 1

    def publish(self, sender: int, kind: str, payload: Any,
                field_elements: int = 1) -> None:
        self._check_participant(sender, "sender")
        self._pending.append((self._seq, Message(
            sender, BROADCAST, kind, payload, field_elements,
            self.round_index)))
        self._seq += 1

    def _broadcast_recipients(self, sender: int) -> List[int]:
        limit = (self.num_participants if self.broadcast_to_extras
                 else self.num_agents)
        return [a for a in range(limit) if a != sender]

    # -- the round barrier ----------------------------------------------------
    def step(self) -> int:
        if not self._finalizer.alive:
            raise TransportError("transport is closed")
        return self._loop.run_until_complete(self._step_async())

    def _wall_bound(self) -> float:
        """Real-time bound on one phase's frames (not the simulated clock)."""
        return max(5.0, self.round_timeout)

    async def _write(self, writers: Dict[int, asyncio.StreamWriter],
                     kind: str, batches: Dict[int, List[Any]]) -> None:
        """Write one ``kind`` frame per participant in ``batches``."""
        for pid, batch in batches.items():
            writers[pid].write(_encode_frame((kind, batch)))
        for pid in batches:
            try:
                await writers[pid].drain()
            except ConnectionError:
                self._lost.add(pid)

    async def _collect(self, kind: str, expected: Iterable[int],
                       stage: str) -> Dict[int, Any]:
        """Wait for one ``kind`` frame from each expected participant.

        Returns the frame bodies by participant.  Raises
        :class:`TransportError`, naming ``stage`` and the participants
        concerned, when one of their connections closes first, or when
        the frames do not all arrive within the wall-clock bound.
        """
        received: Dict[int, Any] = {}
        missing = set(expected)
        try:
            await asyncio.wait_for(
                self._take(kind, missing, received, stage),
                self._wall_bound())
        except asyncio.TimeoutError:
            raise TransportError(
                "socket barrier stalled in %s: no %s frame from "
                "participant(s) %s within %.1fs of wall time"
                % (stage, kind, _listed(missing), self._wall_bound())
            ) from None
        return received

    async def _take(self, kind: str, missing: Set[int],
                    received: Dict[int, Any], stage: str) -> None:
        while missing:
            closed = missing & self._lost
            if closed:
                raise TransportError(
                    "socket barrier failed in %s: the connection of "
                    "participant(s) %s closed before their %s frame"
                    % (stage, _listed(closed), kind))
            pid, frame_kind, body = await self._frames.get()
            if frame_kind == "closed":
                self._lost.add(pid)
            elif frame_kind == kind:
                received[pid] = body
                missing.discard(pid)

    async def _step_async(self) -> int:
        # deliver_round advances round_index; a failure names this round.
        stage = "round %d" % self.round_index
        submits: Dict[int, List[Tuple[int, Message]]] = defaultdict(list)
        for seq, message in self._pending:
            submits[message.sender].append((seq, message))
        self._pending = []
        await self._write(self._client_writers, "submit", submits)
        submitted = await self._collect("submit", submits, stage)
        # Route in global submission order: identical to the in-process
        # simulator's outbox drain, so RNG consumption and metrics match.
        queued = [message for _, message in
                  sorted(chain.from_iterable(submitted.values()),
                         key=lambda pair: pair[0])]
        copies: Dict[int, List[Message]] = defaultdict(list)
        delivered = deliver_round(
            self, queued,
            lambda recipient, copy: copies[recipient].append(copy))
        await self._write(self._hub_writers, "copy", copies)
        # Ack barrier: every copy frame put on the wire must come back
        # acknowledged before the round closes.
        await self._collect("ack", copies, stage)
        return delivered

    # -- reception ------------------------------------------------------------
    def receive(self, agent: int, kind: Optional[str] = None
                ) -> List[Message]:
        self._check_participant(agent, "agent")
        inbox = self._inboxes[agent]
        if kind is None:
            self._inboxes[agent] = []
            return inbox
        matched, self._inboxes[agent] = split_by_kind(inbox, kind)
        return matched

    def peek(self, agent: int) -> Tuple[Message, ...]:
        self._check_participant(agent, "agent")
        return tuple(self._inboxes[agent])

    def published(self, kind: Optional[str] = None) -> List[Message]:
        if kind is None:
            return list(self.bulletin_board)
        return [m for m in self.bulletin_board if m.kind == kind]

    # -- lifecycle ------------------------------------------------------------
    def network_view(self) -> "AsyncioSocketTransport":
        return self

    def close(self) -> None:
        """Tear down the transport; safe to call any number of times.

        Drains every reader task and waits for every socket to finish
        closing before the private event loop is closed, so repeated
        in-process runs (the ``dmw serve`` daemon) never accumulate
        pending tasks, unclosed transports, or ``ResourceWarning``s.  A
        transport dropped without ``close()`` is torn down the same way
        when it is freed.
        """
        self._finalizer()
