"""Network-level fault injection.

DMW tolerates up to ``c`` faulty participants; the substrate therefore
needs a way to *be* faulty.  A :class:`FaultPlan` describes which agents
crash (stop transmitting from a given round) and which directed links drop
or corrupt messages.  The simulator consults the plan on every send.

Protocol-level deviations (sending *wrong* shares, withholding a specific
value while otherwise participating) are modelled by the deviating agent
strategies in :mod:`repro.core.deviant` — the fault plan is for the
substrate faults those strategies do not cover.

A corruptor sees each payload in its wire form, as the sender queued it:
plain tuples, with no record class.  A share bundle's payload is
``(task, (e, f, g, h))``, and a commitments payload is ``(task, (o, q,
r))``, each vector the bare tuple of its group elements.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Set, Tuple

from .message import Message

#: A corruption hook receives the message and returns a replacement.
Corruptor = Callable[[Message], Message]


@dataclass
class FaultPlan:
    """Declarative description of substrate faults.

    Attributes
    ----------
    crashed_from_round:
        ``agent -> round``: the agent sends nothing from that round on
        (crash-stop).
    dropped_links:
        Directed ``(sender, recipient)`` pairs whose messages vanish.
    drop_probability:
        Probability that any individual unicast is lost (requires ``rng``).
    corruptors:
        ``(sender, recipient) -> hook`` rewriting messages in flight.
    rng:
        Randomness source for probabilistic drops.
    """

    crashed_from_round: Dict[int, int] = field(default_factory=dict)
    dropped_links: Set[Tuple[int, int]] = field(default_factory=set)
    drop_probability: float = 0.0
    corruptors: Dict[Tuple[int, int], Corruptor] = field(default_factory=dict)
    rng: Optional[random.Random] = None

    def __post_init__(self) -> None:
        if self.drop_probability and self.rng is None:
            raise ValueError("probabilistic drops need an rng")
        if not 0.0 <= self.drop_probability <= 1.0:
            raise ValueError("drop_probability must be in [0, 1]")

    def has_faults(self) -> bool:
        """Return True if the plan can crash, drop or corrupt anything.

        The networks ask once per delivery barrier and skip the per-copy
        :meth:`sender_is_crashed` and :meth:`transform` calls when it is
        False, so a fault added between two barriers takes effect at the
        next one.
        """
        return bool(self.crashed_from_round or self.dropped_links
                    or self.drop_probability or self.corruptors)

    def sender_is_crashed(self, sender: int, round_index: int) -> bool:
        """Return True if ``sender`` has crashed by ``round_index``."""
        crash_round = self.crashed_from_round.get(sender)
        return crash_round is not None and round_index >= crash_round

    def transform(self, message: Message,
                  round_index: int) -> Optional[Message]:
        """Apply the plan to one unicast delivery.

        Returns the (possibly corrupted) message, or ``None`` if dropped.
        Broadcast messages are filtered per-recipient by the simulator,
        which calls this once per expanded copy.
        """
        if self.sender_is_crashed(message.sender, round_index):
            return None
        link = (message.sender, message.recipient)
        if link in self.dropped_links:
            return None
        if self.drop_probability and self.rng.random() < self.drop_probability:
            return None
        corruptor = self.corruptors.get(link)
        if corruptor is not None:
            return corruptor(message)
        return message


#: A plan with no faults at all (the obedient network of Theorem 3).
def obedient_plan() -> FaultPlan:
    """Return a fresh no-fault plan."""
    return FaultPlan()
