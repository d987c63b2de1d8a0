"""Asyncio socket transport: the round barrier over localhost TCP.

:class:`AsyncioSocketTransport` realizes the :class:`~repro.network
.transport.Transport` contract with real sockets: a hub accepts one TCP
connection per participant (a buffered asyncio protocol on each end of
each connection parses frames as they complete), and protocol messages
cross the wire in length-prefixed pickle frames.  A frame carries each
message as the plain tuple of its six fields, which pickles and
unpickles without a Python-level call; each end rebuilds the
:class:`~repro.network.message.Message` in C (``tuple.__new__``).  The
payloads inside stay opaque to the transport.  One :meth:`step` call
is one synchronization barrier, and writes at most one frame per
endpoint in each of its three phases:

1. each sender's queued messages go to the hub as one ``submit`` frame,
   holding that sender's ``(seq, fields)`` list;
2. the hub collects the round's submissions, rebuilds their messages and
   routes them in global submission order — the same order the
   in-process simulator drains its outbox, so fault-plan and latency RNG
   consumption match exactly;
3. the routed messages go through
   :func:`~repro.network.asynchronous.deliver_round`, the one routine
   that also backs :class:`~repro.network.asynchronous.TimeoutNetwork`
   — crash plans, per-copy fault transforms, sampled latency against
   ``round_timeout``, :class:`~repro.network.asynchronous.RetryPolicy`
   grace sub-rounds, the clock/duration formulas, and the message and
   ``network_round`` events.  Its hand-off appends each surviving
   copy's fields to its recipient's batch, and each recipient then gets
   one ``copy`` frame holding its copies in hand-off order, recovered
   retransmissions included, so every inbox fills with messages in the
   order ``TimeoutNetwork``'s does;
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
from typing import (Any, Callable, Dict, Iterable, List, Optional, Set,
                    Tuple, cast)

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
#: Initial size of a connection end's receive buffer; when a frame
#: fills it, it doubles.
_RECEIVE_BYTES = 1 << 14

#: What the hub side queues for the barrier: ``(pid, kind, body)``.
_Frame = Tuple[int, str, Any]

#: Rebuild a message from the fields a frame carries, in C: a Python
#: function here would add a call per message on both ends.
_as_message = cast(Callable[[Tuple[Any, ...]], Message],
                   functools.partial(tuple.__new__, Message))


def _encode_frame(frame: Tuple[Any, ...]) -> bytes:
    body = pickle.dumps(frame, protocol=pickle.HIGHEST_PROTOCOL)
    return _HEADER.pack(len(body)) + body


def _listed(participants: Iterable[int]) -> str:
    return ", ".join(str(pid) for pid in sorted(participants))


# The protocols below, and the finalizer, receive the containers they
# fill and never the transport itself.  So nothing the event loop holds
# references a transport, a transport dropped without close() is freed
# by reference counting, and its finalizer tears the loop down in order;
# a cycle through the loop would leave the garbage collector to run the
# finalizers of its sockets and loop in arbitrary order.

class _Side(asyncio.BufferedProtocol):
    """One end of a connection; every end is listed in ``links``.

    The socket is read into one buffer that lives as long as the
    connection, whose first ``_filled`` bytes are received and not yet
    parsed.  A plain ``Protocol`` would get a new bytes object per read,
    each allocated at asyncio's full read size (256 KiB), whose cost
    depends on the allocator's state.
    """

    _link: asyncio.Transport

    def __init__(self, links: List[asyncio.Transport]) -> None:
        self._links = links
        self._buffer = bytearray(_RECEIVE_BYTES)
        self._filled = 0

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self._link = cast(asyncio.Transport, transport)
        self._links.append(self._link)

    def get_buffer(self, sizehint: int) -> memoryview:
        if self._filled == len(self._buffer):
            self._buffer = self._buffer + bytes(len(self._buffer))
        return memoryview(self._buffer)[self._filled:]

    def _take_frames(self, start: int) -> List[Tuple[Any, ...]]:
        """Unpickle each whole frame from ``start`` on, and move the rest
        to the front of the buffer.  (While asyncio holds its view of the
        buffer it cannot be resized, only overwritten.)"""
        buffer, filled = self._buffer, self._filled
        frames: List[Tuple[Any, ...]] = []
        with memoryview(buffer) as view:
            while filled - start >= _HEADER.size:
                end = (start + _HEADER.size
                       + _HEADER.unpack_from(buffer, start)[0])
                if end > filled:
                    break
                frames.append(pickle.loads(view[start + _HEADER.size:end]))
                start = end
        buffer[:filled - start] = buffer[start:filled]
        self._filled = filled - start
        return frames


class _HubSide(_Side):
    """Hub side of one connection: check the hello, then queue each frame.

    The hello is raw bytes, the token then a participant id, and may
    arrive split across reads.  Unless the token matches and the id is
    still in ``unclaimed``, the connection is closed and what it sent
    dropped before any later byte of it is unpickled.  Each later frame
    is queued as ``(pid, kind, body)``, and the end of an accepted
    connection as ``(pid, "closed", None)``.
    """

    def __init__(self, token: bytes, unclaimed: Set[int],
                 frames: asyncio.Queue[_Frame],
                 links: List[asyncio.Transport]) -> None:
        super().__init__(links)
        self._token = token
        self._unclaimed = unclaimed
        self._frames = frames
        self._pid = -1  # until the hello is accepted

    def buffer_updated(self, nbytes: int) -> None:
        if self._link.is_closing():
            return
        self._filled += nbytes
        start = 0
        if self._pid < 0:
            if not self._accept_hello():
                return
            start = len(self._token) + _PID.size
        for kind, body in self._take_frames(start):
            self._frames.put_nowait((self._pid, kind, body))

    def _accept_hello(self) -> bool:
        buffer, token = self._buffer, self._token
        if self._filled < len(token) + _PID.size:
            return False
        pid = _PID.unpack_from(buffer, len(token))[0]
        if not (hmac.compare_digest(buffer[:len(token)], token)
                and pid in self._unclaimed):
            self._filled = 0
            self._link.close()
            return False
        self._unclaimed.remove(pid)
        self._pid = pid
        self._frames.put_nowait((pid, "hello", self._link))
        return True

    def connection_lost(self, exc: Optional[Exception]) -> None:
        if self._pid >= 0:
            self._frames.put_nowait((self._pid, "closed", None))


class _EndpointSide(_Side):
    """Endpoint side of one connection: absorb each copy frame, ack it.

    A lost connection needs nothing here: the hub side queues it as
    ``closed``.
    """

    def __init__(self, pid: int, inboxes: Dict[int, List[Message]],
                 links: List[asyncio.Transport]) -> None:
        super().__init__(links)
        self._pid = pid
        self._inboxes = inboxes

    def buffer_updated(self, nbytes: int) -> None:
        self._filled += nbytes
        for _, copies in self._take_frames(0):
            self._inboxes[self._pid].extend(map(_as_message, copies))
            self._link.write(_encode_frame(("ack", None)))


def _tear_down(loop: asyncio.AbstractEventLoop,
               links: List[asyncio.Transport]) -> None:
    """A transport's finalizer: close its sockets, then its event loop."""
    loop.run_until_complete(_close_sockets(links))
    loop.close()


async def _close_sockets(links: List[asyncio.Transport]) -> None:
    for link in links:
        link.abort()
    links.clear()
    # abort() closes each socket in a callback queued for the loop's
    # next pass, which runs before this coroutine resumes.
    await asyncio.sleep(0)


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
        self._hub_writers: Dict[int, asyncio.Transport] = {}
        self._client_writers: Dict[int, asyncio.Transport] = {}
        #: Both ends of every connection, accepted or not, for close().
        self._links: List[asyncio.Transport] = []
        self._loop = asyncio.new_event_loop()
        self._finalizer = weakref.finalize(
            self, _tear_down, self._loop, self._links)
        try:
            self._loop.run_until_complete(self._start())
        except BaseException:
            # A half-built transport (e.g. the hello barrier timed out)
            # must not leak its connections or private event loop: tear
            # down whatever _start managed to create before propagating.
            self.close()
            raise

    # -- connection setup -----------------------------------------------------
    async def _start(self) -> None:
        # Created on the running loop (Python 3.9 binds it at creation).
        self._frames: asyncio.Queue[_Frame] = asyncio.Queue()
        token = secrets.token_bytes(_TOKEN_BYTES)
        server = await self._loop.create_server(functools.partial(
            _HubSide, token, set(range(self.num_participants)), self._frames,
            self._links), host=self._host, port=0)
        try:
            port = server.sockets[0].getsockname()[1]
            # Opened concurrently; every attempt ends before a failure is
            # raised, so close() finds each connection that was made.
            opened = await asyncio.gather(*(
                self._loop.create_connection(
                    functools.partial(_EndpointSide, pid, self._inboxes,
                                      self._links), self._host, port)
                for pid in range(self.num_participants)),
                return_exceptions=True)
            for pid, result in enumerate(opened):
                if isinstance(result, BaseException):
                    raise result
                self._client_writers[pid] = result[0]
                result[0].write(token + _PID.pack(pid))
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

    def _write(self, writers: Dict[int, asyncio.Transport], kind: str,
               batches: Dict[int, List[Any]]) -> None:
        """Write one ``kind`` frame per participant in ``batches``.

        Nothing drains: a phase writes at most one frame per endpoint and
        then waits for every frame it expects back, so what stays
        buffered is bounded by one round's traffic.
        """
        for pid, batch in batches.items():
            writer = writers[pid]
            if writer.is_closing():
                self._lost.add(pid)
            else:
                writer.write(_encode_frame((kind, batch)))

    async def _collect(self, kind: str, expected: Iterable[int],
                       stage: str) -> Dict[int, Any]:
        """Wait for one ``kind`` frame from each expected participant.

        Returns the frame bodies by participant.  Raises
        :class:`TransportError`, naming ``stage`` and the participants
        concerned, when one of their connections closes first, or when
        the frames do not all arrive within the wall-clock bound.

        The bound is a loop timer that queues a sentinel keyed to this
        call, so a deadline that fires just as its phase completes is
        skipped by the next phase.
        """
        received: Dict[int, Any] = {}
        missing = set(expected)
        bound = self._wall_bound()
        phase = object()
        deadline = self._loop.call_later(
            bound, self._frames.put_nowait, (-1, "deadline", phase))
        try:
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
                elif body is phase:
                    raise TransportError(
                        "socket barrier stalled in %s: no %s frame from "
                        "participant(s) %s within %.1fs of wall time"
                        % (stage, kind, _listed(missing), bound))
        finally:
            deadline.cancel()
        return received

    async def _step_async(self) -> int:
        # deliver_round advances round_index; a failure names this round.
        stage = "round %d" % self.round_index
        submits: Dict[int, List[Tuple[int, Tuple[Any, ...]]]] = \
            defaultdict(list)
        for seq, message in self._pending:
            submits[message.sender].append((seq, tuple(message)))
        self._pending = []
        self._write(self._client_writers, "submit", submits)
        submitted = await self._collect("submit", submits, stage)
        # Route in global submission order: identical to the in-process
        # simulator's outbox drain, so RNG consumption and metrics match.
        queued = [_as_message(fields) for _, fields in
                  sorted(chain.from_iterable(submitted.values()),
                         key=lambda pair: pair[0])]
        copies: Dict[int, List[Tuple[Any, ...]]] = defaultdict(list)
        delivered = deliver_round(
            self, queued,
            lambda recipient, copy: copies[recipient].append(tuple(copy)))
        self._write(self._hub_writers, "copy", copies)
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

        Closes every socket, and lets each finish closing, before the
        private event loop is closed, so repeated in-process runs (the
        ``dmw serve`` daemon) never accumulate unclosed sockets or
        ``ResourceWarning``s.  A
        transport dropped without ``close()`` is torn down the same way
        when it is freed.
        """
        self._finalizer()
