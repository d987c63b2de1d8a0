"""Pluggable transport: the seam between the protocol driver and the wire.

The DMW barrier driver steps every agent state machine through one
round-barrier loop — *send* (queue this round's messages), *step* (the
synchronization barrier), *receive* (drain the inbox) — whatever the
schedule (sequential, phase-barrier, or pool shard), and everything
below that loop is a :class:`Transport`.  Two implementations ship:

* :class:`InProcessTransport` — the historical simulator
  (:class:`~repro.network.simulator.SynchronousNetwork` or
  :class:`~repro.network.asynchronous.TimeoutNetwork`) behind the
  interface.  Bit-identical to the pre-refactor driver in outcomes,
  transcripts, per-agent counters, and message summaries
  (``tests/test_transport.py`` pins this against a golden fixture).
* :class:`~repro.network.asyncio_transport.AsyncioSocketTransport` —
  localhost TCP with one asyncio reader task per participant.  Its
  barrier runs :func:`~repro.network.asynchronous.deliver_round`, the
  same timeout/retry failure-model routine ``TimeoutNetwork`` calls, so
  the two cannot drift apart.

Contract (see ``docs/TRANSPORTS.md``):

* ``send``/``publish`` queue; nothing moves before ``step``.
* ``step`` realizes one synchronization barrier: every queued message is
  expanded, charged to :class:`~repro.network.metrics.NetworkMetrics`,
  run through the fault/latency models, and delivered (or withheld);
  ``round_index`` advances exactly once.
* ``receive`` drains a participant's inbox (optionally by kind) without
  any network activity.
* ``network_view()`` returns the object the driver exposes as
  ``protocol.network`` — the wrapped simulator in-process, the transport
  itself for socket transports — so checkpoints, the process pool, and
  the observability bindings stay transport-agnostic via duck typing.
"""

from __future__ import annotations

from typing import Any, List, Optional

from .faults import FaultPlan
from .message import Message
from .simulator import SynchronousNetwork


class TransportError(RuntimeError):
    """A transport-level failure (socket loss, handshake failure, ...)."""


class Transport:
    """Abstract round-barrier transport (see module docstring)."""

    name = "abstract"

    def send(self, sender: int, recipient: int, kind: str, payload: Any,
             field_elements: int = 1) -> None:
        """Queue a private point-to-point message for the next barrier."""
        raise NotImplementedError

    def publish(self, sender: int, kind: str, payload: Any,
                field_elements: int = 1) -> None:
        """Queue a published (broadcast) message for the next barrier."""
        raise NotImplementedError

    def step(self) -> int:
        """Run one round barrier; returns the number of copies delivered."""
        raise NotImplementedError

    def receive(self, agent: int, kind: Optional[str] = None
                ) -> List[Message]:
        """Drain a participant's inbox, optionally filtered by kind."""
        raise NotImplementedError

    def network_view(self) -> Any:
        """The object exposed as ``protocol.network`` (duck-typed state)."""
        raise NotImplementedError

    def close(self) -> None:
        """Release transport resources (no-op by default)."""


class InProcessTransport(Transport):
    """The in-process simulator behind the transport interface.

    A thin delegation shim: every call maps one-to-one onto the wrapped
    :class:`~repro.network.simulator.SynchronousNetwork` (or subclass),
    so driver behaviour over this transport is bit-identical to calling
    the network directly.
    """

    name = "inprocess"

    def __init__(self, network: SynchronousNetwork) -> None:
        self.network = network

    def send(self, sender: int, recipient: int, kind: str, payload: Any,
             field_elements: int = 1) -> None:
        self.network.send(sender, recipient, kind, payload,
                          field_elements=field_elements)

    def publish(self, sender: int, kind: str, payload: Any,
                field_elements: int = 1) -> None:
        self.network.publish(sender, kind, payload,
                             field_elements=field_elements)

    def step(self) -> int:
        return self.network.deliver()

    def receive(self, agent: int, kind: Optional[str] = None
                ) -> List[Message]:
        return self.network.receive(agent, kind)

    def network_view(self) -> SynchronousNetwork:
        return self.network

    @property
    def num_agents(self) -> int:
        return self.network.num_agents

    @property
    def num_participants(self) -> int:
        return self.network.num_participants


#: Names accepted by :func:`create_transport` (and ``dmw run --transport``).
TRANSPORT_NAMES = ("inprocess", "asyncio")


def create_transport(name: str, num_agents: int,
                     fault_plan: Optional[FaultPlan] = None,
                     extra_participants: int = 1,
                     **kwargs: Any) -> Transport:
    """Build a transport by name.

    ``inprocess`` wraps a fresh :class:`SynchronousNetwork`; ``asyncio``
    builds an :class:`~repro.network.asyncio_transport
    .AsyncioSocketTransport` (extra keyword arguments — ``round_timeout``,
    ``latency_model``, ``retry_policy`` — are forwarded to it).
    """
    if name == "inprocess":
        if kwargs:
            raise ValueError("inprocess transport takes no extra options: %s"
                             % sorted(kwargs))
        return InProcessTransport(SynchronousNetwork(
            num_agents, fault_plan=fault_plan,
            extra_participants=extra_participants))
    if name == "asyncio":
        # Imported lazily so the simulator path never touches asyncio.
        from .asyncio_transport import AsyncioSocketTransport
        return AsyncioSocketTransport(num_agents, fault_plan=fault_plan,
                                      extra_participants=extra_participants,
                                      **kwargs)
    raise ValueError("unknown transport %r (expected one of %s)"
                     % (name, ", ".join(TRANSPORT_NAMES)))
