"""Phase IV: the payment infrastructure.

The paper assumes "the existence of a payment infrastructure to which all
agents have access" and specifies only its decision rule: *"The payment
infrastructure issues the payment to A_i if the participating agents agree
on P_i; otherwise, no payment is dispensed."*  Combined with the proof of
Theorem 8 ("the infrastructure will detect the conflict and will issue no
payments"), we model it as a **unanimity escrow**: every agent submits the
full payment vector it computed; payments are dispensed only if all
submitted vectors are identical, and any conflict voids the entire
execution (no payments *and* no allocation is executed), so that a
conflicting claim can never leave an honest agent with negative utility.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple


@dataclass(frozen=True)
class PaymentDecision:
    """The infrastructure's verdict on the submitted claims.

    Attributes
    ----------
    dispensed:
        True when all claims agreed and payments were issued.
    payments:
        The agreed payment vector (``None`` on conflict).
    conflicting_agents:
        Agents whose claims differed from the majority view (empty when
        dispensed; on conflict, the minority claim holders — a diagnostic,
        not a penalty mechanism).
    """

    dispensed: bool
    payments: Optional[Tuple[float, ...]]
    conflicting_agents: Tuple[int, ...]


class PaymentInfrastructure:
    """Unanimity escrow over full payment vectors."""

    def __init__(self, num_agents: int) -> None:
        if num_agents < 1:
            raise ValueError("need at least one agent")
        self.num_agents = num_agents
        self._claims: Dict[int, Tuple[float, ...]] = {}

    def submit_claim(self, agent: int, payments: Sequence[float]) -> None:
        """Record one agent's claimed payment vector."""
        if not 0 <= agent < self.num_agents:
            raise ValueError("invalid agent %d" % agent)
        if len(payments) != self.num_agents:
            raise ValueError(
                "claim must cover all %d agents, got %d entries"
                % (self.num_agents, len(payments))
            )
        self._claims[agent] = tuple(float(x) for x in payments)

    def decide(self) -> PaymentDecision:
        """Dispense iff every agent submitted the identical vector."""
        if set(self._claims) != set(range(self.num_agents)):
            missing = sorted(set(range(self.num_agents)) - set(self._claims))
            return PaymentDecision(dispensed=False, payments=None,
                                   conflicting_agents=tuple(missing))
        vectors = list(self._claims.values())
        reference = vectors[0]
        if all(vector == reference for vector in vectors):
            return PaymentDecision(dispensed=True, payments=reference,
                                   conflicting_agents=())
        # Identify the minority claim holders for diagnostics.  The
        # majority view is chosen deterministically: highest count first,
        # ties broken by the lexicographically smallest claim vector —
        # never by dict insertion order, so an even split (e.g. 2-2)
        # names the same conflicting agents on every run.
        counts: Dict[Tuple[float, ...], int] = {}
        for vector in vectors:
            counts[vector] = counts.get(vector, 0) + 1
        majority = min(counts, key=lambda vector: (-counts[vector], vector))
        minority_agents = tuple(sorted(
            agent for agent, vector in self._claims.items()
            if vector != majority
        ))
        return PaymentDecision(dispensed=False, payments=None,
                               conflicting_agents=minority_agents)
