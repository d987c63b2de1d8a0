"""The DMW round schedule: one table of rounds, message kinds and costs.

Theorem 11, Table 1 and Fig. 2 count messages against one fixed schedule,
declared here once.  Each auction runs the four per-task rounds in order
and the run ends with one payments round; the round names are the
recorder's phase-span names.  The three middle rounds may add a complaint
sub-round (only when some agent accuses another), whose kind and
``dmw_complaints_total`` stage label the round declares too.

A published message reaches the ``n - 1`` other agents plus the payment
endpoint, so it costs ``n`` point-to-point copies (Theorem 11 assumes no
broadcast facility).  The driver checks every barrier against this table
(``DMWProtocol._barrier``).  This module imports nothing else from
``repro``, so ``repro.obs`` reads it without an import cycle.
"""

from __future__ import annotations

from typing import Callable, Dict, NamedTuple, Optional, Sequence, Tuple

#: Who sends a kind in one task's round: every agent, the ``d_t`` agents
#: that disclose their ``(f, h)`` rows, or the ``k_t`` agents whose bid
#: equals the first price.
EVERY_AGENT, DISCLOSERS, CLAIMANTS = "every agent", "disclosers", "claimants"


class MessageKind(NamedTuple):
    """One kind: ``fan_out(n)`` copies per message, each carrying
    ``field_elements(n, sigma)`` field elements."""

    name: str
    published: bool
    senders: str
    fan_out: Callable[[int], int]
    field_elements: Callable[[int, int], int]


class Round(NamedTuple):
    """One round barrier; ``per_task`` rounds run once per auction."""

    name: str
    kinds: Tuple[MessageKind, ...]
    complaint: Optional[str] = None
    stage: Optional[str] = None
    per_task: bool = True


SHARE_BUNDLE = MessageKind("share_bundle", False, EVERY_AGENT,
                           lambda n: n - 1, lambda n, sigma: 4)
COMMITMENTS = MessageKind("commitments", True, EVERY_AGENT, lambda n: n,
                          lambda n, sigma: 3 * sigma)
LAMBDA_PSI = MessageKind("lambda_psi", True, EVERY_AGENT, lambda n: n,
                         lambda n, sigma: 2)
F_DISCLOSURE = MessageKind("f_disclosure", True, DISCLOSERS, lambda n: n,
                           lambda n, sigma: 2 * n)
WINNER_CLAIM = MessageKind("winner_claim", True, CLAIMANTS, lambda n: n,
                           lambda n, sigma: 1)
SECOND_PRICE = MessageKind("second_price", True, EVERY_AGENT, lambda n: n,
                           lambda n, sigma: 2)
PAYMENT_CLAIM = MessageKind("payment_claim", False, EVERY_AGENT,
                            lambda n: 1, lambda n, sigma: n)

# Kinds in Fig. 2 order.
BIDDING = Round("bidding", (SHARE_BUNDLE, COMMITMENTS))
AGGREGATION = Round("aggregation", (LAMBDA_PSI,),
                    complaint="aggregate_complaint", stage="aggregates")
DISCLOSURE = Round("disclosure", (F_DISCLOSURE, WINNER_CLAIM),
                   complaint="disclosure_complaint", stage="disclosures")
RESOLUTION = Round("resolution", (SECOND_PRICE,),
                   complaint="second_price_complaint", stage="second_price")
PAYMENTS = Round("payments", (PAYMENT_CLAIM,), per_task=False)

#: Every round, in execution order.
ROUNDS = (BIDDING, AGGREGATION, DISCLOSURE, RESOLUTION, PAYMENTS)


def round_bounds(num_tasks: int) -> Tuple[int, int]:
    """The fewest barriers of a ``num_tasks``-auction run (each round once,
    for all auctions) and the most (each round once per auction, each
    with its complaint sub-round)."""
    most = sum((2 if round_.complaint else 1)
               * (num_tasks if round_.per_task else 1) for round_ in ROUNDS)
    return len(ROUNDS), most


class Theorem11Totals(NamedTuple):
    """Network totals, in :class:`NetworkMetrics` units."""

    messages: int
    field_elements: int
    broadcasts: int
    by_kind: Dict[str, int]


def theorem11_totals(n: int, sigma: int,
                     disclosures: Sequence[Tuple[int, int]]
                     ) -> Theorem11Totals:
    """The exact network totals of an honest ``n``-agent run (Theorem 11).

    ``disclosures`` holds each auction's ``(d_t, k_t)``.  The honest path
    runs no complaint sub-round.
    """
    by_kind = {kind.name: 0 for round_ in ROUNDS for kind in round_.kinds}
    field_elements = broadcasts = 0
    for round_ in ROUNDS:
        # A run-level round's senders are every agent, once.
        for d_t, k_t in (disclosures if round_.per_task else [(0, 0)]):
            senders = {EVERY_AGENT: n, DISCLOSERS: d_t, CLAIMANTS: k_t}
            for kind in round_.kinds:
                count = senders[kind.senders]
                copies = count * kind.fan_out(n)
                by_kind[kind.name] += copies
                field_elements += copies * kind.field_elements(n, sigma)
                if kind.published:
                    broadcasts += count
    return Theorem11Totals(sum(by_kind.values()), field_elements,
                           broadcasts, by_kind)
