"""Per-agent receive/act/send state machines for the DMW driver.

Each :class:`AgentMachine` wraps one :class:`~repro.core.agent.DMWAgent`
and owns every *per-agent* protocol step, grouped by the three roles a
round barrier imposes:

* **send** — queue this round's outgoing messages on the transport
  (``send_bidding``, ``send_aggregates``, ``send_disclosure``,
  ``send_second_price``, ``send_payment_claim``);
* **receive** — absorb the machine's own inbox after the barrier
  (``recv_bidding`` for private shares and per-agent commitment state,
  ``collect_published``/``collect_claims`` for published kinds);
* **act** — the local computation between barriers (``act_*``: share
  checks, validation, arbitration, resolution), which never touches the
  transport at all.

Published values live on the paper's bulletin board: every broadcast
reaches every other participant, so the driver reconstructs the shared
board view by merging what each machine drained — the merge is driver
bookkeeping (a bulletin-board service in a deployment), not agent logic,
which is why ``collect_published`` writes into a shared mapping instead
of keeping per-machine copies.  Under fault injection this preserves the
historical semantics exactly: a broadcast copy dropped on one link is
still visible in the merged view if any other participant received it.

The machine contains no mechanism logic of its own — every decision is
made by the wrapped agent, and the agent never sees the transport
(``dmwlint`` rule DMW008 enforces that agent and machine code reach the
wire only through the transport parameter handed to the send/receive
steps).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from ..network.message import Message
from ..network.transport import Transport
from .agent import DMWAgent
from .bidding import as_commitments, as_share_bundle
from .exceptions import ProtocolAbort
from .rounds import (COMMITMENTS, F_DISCLOSURE, LAMBDA_PSI, PAYMENT_CLAIM,
                     ROUNDS, SECOND_PRICE, SHARE_BUNDLE, WINNER_CLAIM,
                     MessageKind)

#: ``boards[task][sender] -> published value`` (the merged bulletin view).
Boards = Dict[int, Dict[int, Any]]


class AgentMachine:
    """One agent's explicit receive/act/send state machine."""

    def __init__(self, agent: DMWAgent) -> None:
        self.agent = agent
        self.index = agent.index
        size = (agent.parameters.num_agents, agent.parameters.sigma)
        #: Each declared kind's field elements at this run's ``(n, sigma)``.
        self._elements = {kind.name: kind.field_elements(*size)
                          for round_ in ROUNDS for kind in round_.kinds}

    # -- send steps -----------------------------------------------------------
    def _transmit(self, transport: Transport, kind: MessageKind,
                  payload: Any, recipient: Optional[int] = None) -> None:
        """Queue one ``kind`` message the way the schedule declares it
        (:mod:`repro.core.rounds`): published or unicast, and its size."""
        elements = self._elements[kind.name]
        if kind.published:
            transport.publish(self.index, kind.name, payload,
                              field_elements=elements)
        else:
            assert recipient is not None, "%s is unicast" % kind.name
            transport.send(self.index, recipient, kind.name, payload,
                           field_elements=elements)

    def send_bidding(self, task: int, transport: Transport) -> None:
        """Phase II: publish commitments, unicast the private shares.

        Both records travel as plain tuples (:meth:`recv_bidding` rebuilds
        them), so no record class is pickled on a socket wire.
        """
        commitments, bundles = self.agent.begin_task(task)
        if commitments is not None:
            self._transmit(transport, COMMITMENTS, (task, tuple(commitments)))
        for recipient, bundle in bundles.items():
            if bundle is not None:
                self._transmit(transport, SHARE_BUNDLE, (task, tuple(bundle)),
                               recipient)

    def send_aggregates(self, task: int, transport: Transport) -> None:
        """Step III.2: publish ``(Lambda_i, Psi_i)``."""
        published = self.agent.publish_aggregates(task)
        if published is not None:
            self._transmit(transport, LAMBDA_PSI, (task, published))

    def send_disclosure(self, task: int, transport: Transport) -> None:
        """Step III.3: publish the ``(f, h)`` row and any winner claim."""
        row = self.agent.disclose_f_shares(task)
        if row is not None:
            self._transmit(transport, F_DISCLOSURE, (task, row))
        if self.agent.claim_winnership(task):
            self._transmit(transport, WINNER_CLAIM, (task, True))

    def send_second_price(self, task: int, transport: Transport) -> None:
        """Step III.4: publish the winner-excluded aggregates."""
        published = self.agent.publish_excluded_aggregates(task)
        if published is not None:
            self._transmit(transport, SECOND_PRICE, (task, published))

    def send_payment_claim(self, transport: Transport,
                           infrastructure_id: int,
                           completed_tasks: Optional[List[int]] = None
                           ) -> None:
        """Phase IV: unicast the payment vector to the escrow endpoint.

        ``completed_tasks`` restricts the claim to those tasks (``None``
        claims over every task); a :class:`ProtocolAbort` raised by the
        agent propagates to the driver.
        """
        claim = self.agent.payment_claim(completed_tasks)
        if claim is not None:
            self._transmit(transport, PAYMENT_CLAIM, claim, infrastructure_id)

    # -- receive steps --------------------------------------------------------
    def recv_bidding(self, transport: Transport) -> None:
        """Absorb the bidding round: commitments, then private bundles.

        Each record is rebuilt from its plain tuple.  A payload that is not
        ``(task, record)`` with three vectors (commitments) or four values
        (a bundle) is not stored, so :meth:`DMWAgent.check_shares
        <repro.core.agent.DMWAgent.check_shares>` blames its sender as if
        nothing had arrived.
        """
        agent = self.agent
        for message in transport.receive(self.index, COMMITMENTS.name):
            try:
                message_task, vectors = message.payload
                arity = len(vectors)
            except (TypeError, ValueError):
                continue
            if arity == 3:
                agent.receive_commitments(message_task, message.sender,
                                          as_commitments(vectors))
        for message in transport.receive(self.index, SHARE_BUNDLE.name):
            try:
                message_task, values = message.payload
                arity = len(values)
            except (TypeError, ValueError):
                continue
            if arity == 4:
                agent.receive_bundle(message_task, message.sender,
                                     as_share_bundle(values))

    def collect_published(self, kind: MessageKind, transport: Transport,
                          boards: Boards) -> None:
        """Drain one published kind into the merged bulletin-board view."""
        for message in transport.receive(self.index, kind.name):
            message_task, value = message.payload
            boards.setdefault(message_task, {})[message.sender] = value

    def collect_claims(self, transport: Transport,
                       claims_by_task: Dict[int, List[int]]) -> None:
        """Drain winner claims into the per-task claimant lists."""
        for message in transport.receive(self.index, WINNER_CLAIM.name):
            message_task, _ = message.payload
            claims_by_task.setdefault(message_task, []).append(message.sender)

    def drain(self, kind: str, transport: Transport) -> List[Message]:
        """Drain one raw kind (complaint rounds, driver-level merging)."""
        return transport.receive(self.index, kind)

    # -- act steps ------------------------------------------------------------
    def act_check_shares(self, task: int) -> Optional[ProtocolAbort]:
        return self.agent.check_shares(task)

    def act_validate_aggregates(self, task: int,
                                board: Dict[int, Any]) -> List[int]:
        return self.agent.validate_aggregates(task, board)

    def act_arbitrate_aggregates(self, task: int, board: Dict[int, Any],
                                 accused: Sequence[int]) -> None:
        self.agent.arbitrate_aggregates(task, board, accused)

    def act_resolve_first(self, task: int) -> None:
        self.agent.resolve_first(task)

    def act_validate_disclosures(self, task: int,
                                 rows: Dict[int, Any]) -> List[int]:
        return self.agent.validate_disclosures(task, rows)

    def act_arbitrate_disclosures(self, task: int, rows: Dict[int, Any],
                                  accused: Sequence[int]) -> None:
        self.agent.arbitrate_disclosures(task, rows, accused)

    def act_find_winner(self, task: int,
                        claimants: Sequence[int]) -> None:
        self.agent.find_winner(task, claimants)

    def act_validate_excluded(self, task: int,
                              board: Dict[int, Any]) -> List[int]:
        return self.agent.validate_excluded_aggregates(task, board)

    def act_arbitrate_excluded(self, task: int, board: Dict[int, Any],
                               accused: Sequence[int]) -> None:
        self.agent.arbitrate_excluded_aggregates(task, board, accused)

    def act_resolve_second(self, task: int) -> None:
        self.agent.resolve_second(task)
