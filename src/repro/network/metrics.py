"""Communication accounting (the measurement side of Theorem 11).

The paper counts a "published" message as ``n - 1`` point-to-point
transmissions (proof of Theorem 11 assumes no broadcast facility), so the
headline figure is :attr:`NetworkMetrics.point_to_point_messages` with that
expansion applied.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Optional

from .message import Message


@dataclass
class NetworkMetrics:
    """Running totals of network activity.

    Attributes
    ----------
    point_to_point_messages:
        Unicast transmissions, with each broadcast expanded to ``n - 1``.
    broadcast_events:
        Number of publish operations (before expansion).
    field_elements:
        Total field elements transmitted (same expansion rule).
    rounds:
        Synchronous rounds executed.
    retransmissions:
        Unicast copies re-sent during grace sub-rounds (each one is
        *also* counted in :attr:`point_to_point_messages` — a retry is
        real traffic, so the Theorem 11 totals include it).
    recovered_messages:
        Retransmitted copies that arrived inside a grace window instead
        of being declared withheld.
    by_kind:
        Point-to-point message counts per message kind.
    """

    point_to_point_messages: int = 0
    broadcast_events: int = 0
    field_elements: int = 0
    rounds: int = 0
    retransmissions: int = 0
    recovered_messages: int = 0
    by_kind: Counter = field(default_factory=Counter)

    def record(self, message: Message, num_agents: int,
               copies: Optional[int] = None) -> None:
        """Account for one logical message.

        ``copies`` overrides the default ``num_agents - 1`` broadcast
        expansion: networks that exclude extra participants from the
        fan-out (or include them explicitly) charge the number of
        unicasts actually transmitted.  Ignored for unicasts, which are
        always one copy.
        """
        if message.is_broadcast:
            if copies is None:
                copies = max(num_agents - 1, 0)
            self.broadcast_events += 1
        else:
            copies = 1
        self.point_to_point_messages += copies
        self.field_elements += copies * message.field_elements
        self.by_kind[message.kind] += copies

    def record_round(self) -> None:
        self.rounds += 1

    def record_retransmission(self, message: Message) -> None:
        """Account for one re-sent unicast copy (grace sub-round traffic).

        The copy is charged at full price — one point-to-point message,
        its field elements, its kind — plus the :attr:`retransmissions`
        tally, so retries are accounted exactly, never hidden.
        """
        self.retransmissions += 1
        self.point_to_point_messages += 1
        self.field_elements += message.field_elements
        self.by_kind[message.kind] += 1

    def record_recovery(self) -> None:
        """Account for one late message saved by a retransmission."""
        self.recovered_messages += 1

    def merge(self, other: "NetworkMetrics") -> None:
        """Fold another metrics object into this one."""
        self.point_to_point_messages += other.point_to_point_messages
        self.broadcast_events += other.broadcast_events
        self.field_elements += other.field_elements
        self.rounds += other.rounds
        self.retransmissions += other.retransmissions
        self.recovered_messages += other.recovered_messages
        self.by_kind.update(other.by_kind)

    def as_dict(self) -> Dict[str, int]:
        """Return a plain-dict summary (stable keys for table rendering).

        The retry tallies appear only when non-zero so fault-free runs
        keep the exact historical key set (and the regression gate's
        "no accounting drift" baseline stays byte-stable).
        """
        summary = {
            "point_to_point_messages": self.point_to_point_messages,
            "broadcast_events": self.broadcast_events,
            "field_elements": self.field_elements,
            "rounds": self.rounds,
        }
        if self.retransmissions:
            summary["retransmissions"] = self.retransmissions
        if self.recovered_messages:
            summary["recovered_messages"] = self.recovered_messages
        for kind in sorted(self.by_kind):
            summary["messages[%s]" % kind] = self.by_kind[kind]
        return summary

    @classmethod
    def from_dict(cls, totals: Dict[str, int]) -> "NetworkMetrics":
        """Rebuild the totals :meth:`as_dict` summarised (its inverse)."""
        metrics = cls(
            point_to_point_messages=totals["point_to_point_messages"],
            broadcast_events=totals["broadcast_events"],
            field_elements=totals["field_elements"],
            rounds=totals["rounds"],
            retransmissions=totals.get("retransmissions", 0),
            recovered_messages=totals.get("recovered_messages", 0),
        )
        for key, value in totals.items():
            if key.startswith("messages[") and key.endswith("]"):
                metrics.by_kind[key[len("messages["):-1]] = value
        return metrics
