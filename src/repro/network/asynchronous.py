"""Timeout semantics: running the synchronous protocol on slow links.

DMW is specified with implicit synchronization barriers; a deployment
realizes a barrier with a *timeout*: wait up to ``T`` for the round's
messages, treat anything later as withheld.  :class:`TimeoutNetwork`
extends the synchronous simulator with exactly that: every unicast's
arrival time is sampled from a :class:`~repro.network.latency.LatencyModel`,
messages arriving after the round timeout are dropped (and counted), and
a wall clock advances by the per-round barrier time.

The whole failure model lives in one routine, :func:`deliver_round`,
which :class:`TimeoutNetwork` and the asyncio socket transport both call;
they differ only in where a surviving copy is handed off (an inbox, or
a socket).

On top of the bare timeout, a :class:`RetryPolicy` adds bounded
retransmission with backoff: a unicast copy whose sampled delay exceeds
the barrier is re-sent in a *grace sub-round* (with an exponentially
widening window) before being declared withheld.  Every retransmission
is charged to the :class:`~repro.network.metrics.NetworkMetrics` at full
price and tallied separately (``retransmissions``/``recovered_messages``),
and the wall clock accounts each grace window exactly — retries make the
execution survivable under transient slowness without ever hiding their
cost.  The default :data:`NO_RETRY` policy reproduces the bare-timeout
behaviour bit for bit.

This closes the loop on the paper's own future work ("implementing DMW
in a simulated distributed environment") at the fidelity the protocol's
synchronous structure admits: the interesting asynchrony — a slow agent
being indistinguishable from a withholding one — is captured, and the
safety dichotomy (correct outcome or abort, never a wrong outcome) can
be tested under it (``tests/test_asynchronous.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple

from ..obs.recorder import (EVENT_DELIVER, EVENT_DROP, EVENT_LATE,
                            EVENT_RECOVERY, EVENT_RETRANSMIT, EVENT_SEND)
from .faults import FaultPlan
from .latency import LatencyModel
from .message import Message
from .simulator import SynchronousNetwork


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retransmission with multiplicative backoff.

    Attributes
    ----------
    max_attempts:
        Total transmission attempts per unicast copy, including the
        original send.  ``1`` disables retransmission entirely (the
        historical bare-timeout behaviour).
    backoff:
        Grace-window multiplier: retry attempt ``k`` (1-based) waits up
        to ``round_timeout * backoff**k`` for the re-sent copy.  Must be
        at least 1.
    """

    max_attempts: int = 1
    backoff: float = 2.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.backoff < 1.0:
            raise ValueError("backoff multiplier must be at least 1")

    @property
    def max_retries(self) -> int:
        """Retransmission attempts beyond the original send."""
        return self.max_attempts - 1

    def grace_window(self, round_timeout: float, attempt: int) -> float:
        """Barrier extension granted to retry ``attempt`` (1-based)."""
        return round_timeout * (self.backoff ** attempt)


#: The policy with no retransmission at all (bare-timeout semantics).
NO_RETRY = RetryPolicy(max_attempts=1)


class TimeoutNetwork(SynchronousNetwork):
    """A synchronous network whose barriers are realized by timeouts.

    Parameters
    ----------
    num_agents, fault_plan, extra_participants:
        As for :class:`~repro.network.simulator.SynchronousNetwork`.
    latency_model:
        Per-message delay sampler.
    round_timeout:
        Barrier duration ``T``: messages with sampled delay above ``T``
        miss the base barrier (and, absent retries, are dropped as late).
    retry_policy:
        Optional :class:`RetryPolicy`; defaults to :data:`NO_RETRY`.
    """

    def __init__(self, num_agents: int, latency_model: LatencyModel,
                 round_timeout: float,
                 fault_plan: Optional[FaultPlan] = None,
                 extra_participants: int = 0,
                 retry_policy: Optional[RetryPolicy] = None) -> None:
        super().__init__(num_agents, fault_plan=fault_plan,
                         extra_participants=extra_participants)
        if round_timeout <= 0:
            raise ValueError("round timeout must be positive")
        self.latency_model = latency_model
        self.round_timeout = round_timeout
        self.retry_policy = retry_policy or NO_RETRY
        #: Wall clock: sum of per-round barrier durations (grace
        #: sub-rounds included).
        self.clock = 0.0
        #: Unicast copies finally dropped for arriving after the timeout
        #: (post-retry: a copy recovered by a retransmission is not late).
        self.late_messages = 0
        #: Retransmission attempts across all grace sub-rounds.
        self.retries = 0
        #: Late copies that a retransmission delivered in time.
        self.recovered = 0
        #: Per-round barrier durations (timeout + grace extensions, or
        #: the slowest on-time arrival when nothing was missing).
        self.round_durations: List[float] = []

    def deliver(self) -> int:
        """Deliver the round under the timeout failure model and advance
        the clock (see :func:`deliver_round`)."""
        queued, self._outbox = self._outbox, []
        return deliver_round(self, queued, self._hand_off)

    def _hand_off(self, recipient: int, copy: Message) -> None:
        """Put one copy that made its barrier into the recipient's inbox."""
        self._inboxes[recipient].append(copy)
        if self.record_deliveries:
            self.delivery_log.append(copy)


def deliver_round(network: Any, queued: List[Message],
                  hand_off: Callable[[int, Message], None]) -> int:
    """Run one round barrier of the timeout failure model.

    The one copy of the failure model, shared by :class:`TimeoutNetwork`
    (``hand_off`` fills an inbox) and
    :class:`~repro.network.asyncio_transport.AsyncioSocketTransport`
    (``hand_off`` writes the copy to the recipient's socket).
    ``network`` is the duck-typed state both carry: ``fault_plan``,
    ``latency_model``, ``round_timeout``, ``retry_policy``, ``metrics``,
    ``bulletin_board``, ``num_participants``, ``_broadcast_recipients``,
    ``recorder``, and the counters it advances
    (``round_index``, ``clock``, ``round_durations``, ``late_messages``,
    ``retries``, ``recovered``).  Every copy that makes its barrier goes
    to ``hand_off(recipient, copy)``; the number of such copies is
    returned.

    Barrier semantics: the barrier waits its **full timeout whenever
    any expected copy is missing** — whether the copy is late under
    the latency model, dropped by the fault plan, or its sender has
    crashed; a receiver cannot tell those apart, so the wait is the
    same.  Only a round in which every copy arrives releases early,
    at the slowest on-time arrival.

    Late copies (and only those — deterministic withholding by a
    crashed or faulty sender is not transient) are then re-sent in up
    to ``retry_policy.max_retries`` grace sub-rounds; copies still
    missing afterwards are declared withheld.  Late messages are
    *transmitted* (they count toward the metrics, exactly like
    fault-plan drops) whether or not they eventually arrive.
    """
    delivered = 0
    recorder = network.recorder
    capture = recorder.records_messages
    round_index = network.round_index
    fault_plan = network.fault_plan
    latency_model = network.latency_model
    round_timeout = network.round_timeout
    retry_policy = network.retry_policy
    metrics = network.metrics
    slowest_on_time = 0.0
    withheld_this_round = 0  # fault-plan drops + crashed-sender copies
    # Late copies eligible for retry, paired with the seq of their
    # original "send" message event so retry events link back to it.
    pending: List[Tuple[Message, Optional[int]]] = []
    faulty = fault_plan.has_faults()
    for message in queued:
        broadcast = message.is_broadcast
        if faulty and fault_plan.sender_is_crashed(message.sender,
                                                   round_index):
            # The receivers still expected this round's copies: a
            # crashed sender holds the barrier to its full timeout.
            if broadcast:
                withheld_this_round += len(
                    network._broadcast_recipients(message.sender))
            else:
                withheld_this_round += 1
            continue
        stamped = message.with_round(round_index)
        if broadcast:
            network.bulletin_board.append(stamped)
            recipients = network._broadcast_recipients(message.sender)
            metrics.record(stamped, network.num_participants,
                           copies=len(recipients))
        else:
            recipients = [message.recipient]
            metrics.record(stamped, network.num_participants)
        for recipient in recipients:
            # A unicast's stamped message is its own delivered copy.
            unicast = stamped
            if broadcast:
                unicast = Message(sender=stamped.sender, recipient=recipient,
                                  kind=stamped.kind, payload=stamped.payload,
                                  field_elements=stamped.field_elements,
                                  round_sent=round_index)
            sent_seq: Optional[int] = None
            if capture:
                sent_seq = recorder.message(
                    EVENT_SEND, round_index=round_index,
                    kind=unicast.kind, sender=unicast.sender,
                    receiver=recipient,
                    field_elements=unicast.field_elements)
            final = (fault_plan.transform(unicast, round_index)
                     if faulty else unicast)
            if final is None:
                withheld_this_round += 1
                if capture:
                    recorder.message(EVENT_DROP, round_index=round_index,
                                     kind=unicast.kind, sender=unicast.sender,
                                     receiver=recipient,
                                     field_elements=unicast.field_elements,
                                     link=sent_seq, detail="fault_plan")
                continue
            delay = latency_model.sample(stamped.sender, recipient)
            if delay > round_timeout:
                pending.append((final, sent_seq))
                if capture:
                    recorder.message(EVENT_LATE, round_index=round_index,
                                     kind=final.kind, sender=final.sender,
                                     receiver=recipient,
                                     field_elements=final.field_elements,
                                     link=sent_seq, detail="missed_barrier")
                continue
            slowest_on_time = max(slowest_on_time, delay)
            hand_off(recipient, final)
            delivered += 1
            if capture:
                recorder.message(EVENT_DELIVER, round_index=round_index,
                                 kind=final.kind, sender=final.sender,
                                 receiver=recipient,
                                 field_elements=final.field_elements,
                                 link=sent_seq)
    # A barrier waits its full timeout whenever something is missing
    # (late, dropped, or from a crashed sender — all indistinguishable
    # to the receivers); otherwise it releases at the slowest on-time
    # arrival.
    missing = withheld_this_round + len(pending)
    duration = round_timeout if missing else slowest_on_time
    # Grace sub-rounds: bounded retransmission with backoff.
    retries_this_round = 0
    recovered_this_round = 0
    for attempt in range(1, retry_policy.max_attempts):
        if not pending:
            break
        window = retry_policy.grace_window(round_timeout, attempt)
        still_pending: List[Tuple[Message, Optional[int]]] = []
        slowest_recovered = 0.0
        for copy, sent_seq in pending:
            metrics.record_retransmission(copy)
            retries_this_round += 1
            if capture:
                recorder.message(EVENT_RETRANSMIT, round_index=round_index,
                                 kind=copy.kind, sender=copy.sender,
                                 receiver=copy.recipient,
                                 field_elements=copy.field_elements,
                                 attempt=attempt, link=sent_seq)
            delay = latency_model.sample(copy.sender, copy.recipient)
            if delay > window:
                still_pending.append((copy, sent_seq))
                continue
            slowest_recovered = max(slowest_recovered, delay)
            hand_off(copy.recipient, copy)
            metrics.record_recovery()
            recovered_this_round += 1
            delivered += 1
            if capture:
                recorder.message(EVENT_RECOVERY, round_index=round_index,
                                 kind=copy.kind, sender=copy.sender,
                                 receiver=copy.recipient,
                                 field_elements=copy.field_elements,
                                 attempt=attempt, link=sent_seq)
        # The grace barrier waits its full window while anything is
        # still missing; otherwise it releases at the last recovery.
        duration += window if still_pending else slowest_recovered
        pending = still_pending
    if capture:
        for copy, sent_seq in pending:
            recorder.message(EVENT_DROP, round_index=round_index,
                             kind=copy.kind, sender=copy.sender,
                             receiver=copy.recipient,
                             field_elements=copy.field_elements,
                             link=sent_seq, detail="late")
    late_this_round = len(pending)
    network.late_messages += late_this_round
    network.retries += retries_this_round
    network.recovered += recovered_this_round
    network.round_durations.append(duration)
    network.clock += duration
    metrics.record_round()
    if recorder.enabled:
        recorder.event("network_round", round=round_index,
                       messages=len(queued), delivered=delivered,
                       late=late_this_round, withheld=withheld_this_round,
                       retries=retries_this_round,
                       recovered=recovered_this_round,
                       barrier_duration=duration)
    network.round_index = round_index + 1
    return delivered
