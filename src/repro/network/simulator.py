"""Synchronous round-based message-passing simulator.

DMW's phases are implicitly synchronized (paper step II.4: "agents cannot
continue until all shares are transmitted and commitments published"), so a
synchronous model is faithful: within a round every agent deposits outgoing
messages, then :meth:`SynchronousNetwork.deliver` moves them to the
recipients' inboxes atomically.

Two transmission primitives exist, mirroring Fig. 2:

* :meth:`send` — a private point-to-point message (solid arrows);
* :meth:`publish` — a published message (dashed arrows), delivered to every
  other agent and retained on a bulletin board; accounted as ``n - 1``
  unicasts per the proof of Theorem 11.

The simulator is deliberately *dumb*: it moves and counts messages and
applies the :class:`~repro.network.faults.FaultPlan`; all protocol logic
lives in the agents.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, List, Optional, Tuple

from ..obs.recorder import (EVENT_DELIVER, EVENT_DROP, EVENT_SEND,
                            NULL_RECORDER, Recorder)
from .faults import FaultPlan, obedient_plan
from .message import BROADCAST, Message
from .metrics import NetworkMetrics


class SynchronousNetwork:
    """A synchronous network connecting ``num_agents`` participants.

    Agent ids are ``0 .. num_agents - 1``.  An optional extra participant
    (e.g. the trusted center of centralized MinWork, or DMW's payment
    infrastructure endpoint) can be registered via ``extra_participants``;
    it gets an id at the top of the range and full send/receive rights,
    but does not change the broadcast fan-out used for agent-to-agent
    publishing unless included explicitly: with the default
    ``broadcast_to_extras=False`` a published message reaches the other
    *agents* only (``n - 1`` unicasts, the Theorem 11 accounting unit);
    setting ``broadcast_to_extras=True`` opts the extra participants into
    every broadcast, and the metrics charge the actual recipient count.
    """

    def __init__(self, num_agents: int,
                 fault_plan: Optional[FaultPlan] = None,
                 extra_participants: int = 0,
                 record_deliveries: bool = False,
                 broadcast_to_extras: bool = False) -> None:
        if num_agents < 1:
            raise ValueError("need at least one agent")
        if extra_participants < 0:
            raise ValueError("extra_participants must be non-negative")
        self.num_agents = num_agents
        self.num_participants = num_agents + extra_participants
        #: Whether published messages also reach the extra participants.
        self.broadcast_to_extras = broadcast_to_extras
        self.fault_plan = fault_plan or obedient_plan()
        self.metrics = NetworkMetrics()
        self._outbox: List[Message] = []
        self._inboxes: Dict[int, List[Message]] = defaultdict(list)
        #: Published history: list of delivered broadcast messages, in order.
        self.bulletin_board: List[Message] = []
        #: Every delivered unicast copy, when ``record_deliveries`` is on
        #: (used by the latency model to reconstruct a timeline).
        self.record_deliveries = record_deliveries
        self.delivery_log: List[Message] = []
        self.round_index = 0
        #: Observability hook: the :class:`~repro.obs.recorder.Recorder`
        #: that receives one ``network_round`` event per delivery barrier
        #: and, when it records messages, one message event per unicast
        #: copy at each lifecycle step (send/deliver/drop).  The default
        #: null recorder keeps the hot path allocation-free.
        self.recorder: Recorder = NULL_RECORDER

    # -- validation -----------------------------------------------------------
    def _check_participant(self, participant: int, role: str) -> None:
        if not 0 <= participant < self.num_participants:
            raise ValueError("invalid %s id %d" % (role, participant))

    def _broadcast_recipients(self, sender: int) -> List[int]:
        """Recipients of one published message (the fan-out contract).

        Every agent other than the sender, plus — only when
        ``broadcast_to_extras`` is set — the extra participants.
        """
        limit = (self.num_participants if self.broadcast_to_extras
                 else self.num_agents)
        return [a for a in range(limit) if a != sender]

    # -- transmission primitives ------------------------------------------------
    def send(self, sender: int, recipient: int, kind: str, payload: Any,
             field_elements: int = 1) -> None:
        """Queue a private point-to-point message for the next delivery."""
        self._check_participant(sender, "sender")
        self._check_participant(recipient, "recipient")
        if sender == recipient:
            raise ValueError("agents do not message themselves")
        self._outbox.append(Message(sender=sender, recipient=recipient,
                                    kind=kind, payload=payload,
                                    field_elements=field_elements))

    def publish(self, sender: int, kind: str, payload: Any,
                field_elements: int = 1) -> None:
        """Queue a published message (broadcast) for the next delivery."""
        self._check_participant(sender, "sender")
        self._outbox.append(Message(sender=sender, recipient=BROADCAST,
                                    kind=kind, payload=payload,
                                    field_elements=field_elements))

    # -- round execution -----------------------------------------------------
    def deliver(self) -> int:
        """Deliver all queued messages; returns the number delivered.

        Faults are applied per expanded unicast copy, so a broadcast from a
        crashed sender reaches nobody while a broadcast over one dropped
        link still reaches the other recipients.  Metrics count messages
        actually *sent* by live senders (a dropped message was transmitted;
        it just did not arrive).
        """
        delivered = 0
        recorder = self.recorder
        capture = recorder.records_messages
        fault_plan = self.fault_plan
        faulty = fault_plan.has_faults()
        queued, self._outbox = self._outbox, []
        for message in queued:
            if faulty and fault_plan.sender_is_crashed(message.sender,
                                                       self.round_index):
                continue
            stamped = message.with_round(self.round_index)
            broadcast = message.is_broadcast
            if broadcast:
                self.bulletin_board.append(stamped)
                recipients = self._broadcast_recipients(message.sender)
                self.metrics.record(stamped, self.num_participants,
                                    copies=len(recipients))
            else:
                recipients = [message.recipient]
                self.metrics.record(stamped, self.num_participants)
            for recipient in recipients:
                # A unicast's stamped message is its own delivered copy.
                unicast = stamped
                if broadcast:
                    unicast = Message(sender=stamped.sender,
                                      recipient=recipient,
                                      kind=stamped.kind,
                                      payload=stamped.payload,
                                      field_elements=stamped.field_elements,
                                      round_sent=self.round_index)
                sent_seq: Optional[int] = None
                if capture:
                    # One send event per expanded unicast copy — the unit
                    # NetworkMetrics charges (Theorem 11), dropped or not.
                    sent_seq = recorder.message(
                        EVENT_SEND, round_index=self.round_index,
                        kind=unicast.kind, sender=unicast.sender,
                        receiver=recipient,
                        field_elements=unicast.field_elements)
                final = (fault_plan.transform(unicast, self.round_index)
                         if faulty else unicast)
                if final is not None:
                    self._inboxes[recipient].append(final)
                    if self.record_deliveries:
                        self.delivery_log.append(final)
                    delivered += 1
                    if capture:
                        recorder.message(EVENT_DELIVER,
                                         round_index=self.round_index,
                                         kind=final.kind, sender=final.sender,
                                         receiver=recipient,
                                         field_elements=final.field_elements,
                                         link=sent_seq)
                elif capture:
                    recorder.message(EVENT_DROP, round_index=self.round_index,
                                     kind=unicast.kind, sender=unicast.sender,
                                     receiver=recipient,
                                     field_elements=unicast.field_elements,
                                     link=sent_seq, detail="fault_plan")
        self.metrics.record_round()
        if recorder.enabled:
            recorder.event("network_round", round=self.round_index,
                           messages=len(queued), delivered=delivered)
        self.round_index += 1
        return delivered

    # -- reception -------------------------------------------------------------
    def receive(self, agent: int, kind: Optional[str] = None) -> List[Message]:
        """Drain (and return) an agent's inbox, optionally filtered by kind.

        Filtered receives leave other kinds queued.
        """
        self._check_participant(agent, "agent")
        inbox = self._inboxes[agent]
        if kind is None:
            self._inboxes[agent] = []
            return inbox
        matched = [m for m in inbox if m.kind == kind]
        self._inboxes[agent] = [m for m in inbox if m.kind != kind]
        return matched

    def peek(self, agent: int) -> Tuple[Message, ...]:
        """Return an agent's queued messages without consuming them."""
        self._check_participant(agent, "agent")
        return tuple(self._inboxes[agent])

    def published(self, kind: Optional[str] = None) -> List[Message]:
        """Return the bulletin-board history, optionally filtered by kind."""
        if kind is None:
            return list(self.bulletin_board)
        return [m for m in self.bulletin_board if m.kind == kind]
