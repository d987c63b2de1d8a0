"""Deviating agent strategies — the rest of the strategy space ``X``.

Faithfulness (Theorem 5) is a statement over *every* alternative strategy;
this module implements the concrete deviation families the proof of
Theorem 4 walks through, one class per family, so the faithfulness
experiment (:mod:`repro.analysis.faithfulness`) can measure each deviation's
utility against the suggested strategy's:

====================================  ==========================================
strategy                              proof case it instantiates
====================================  ==========================================
:class:`MisreportBidAgent`            information revelation (covered by Thm 2)
:class:`CorruptSharesAgent`           "incorrectly computes its shares"
:class:`CorruptCommitmentsAgent`      "... or commitments"
:class:`WithholdSharesAgent`          "fails to send the shares"
:class:`WithholdCommitmentsAgent`     "neglects to send the commitments"
:class:`WrongAggregatesAgent`         "miscomputing of Lambda_i and Psi_i"
:class:`WithholdAggregatesAgent`      "fails to transmit consistent Lambda/Psi"
:class:`FalseDisclosureAgent`         "transmits invalid f_1(a_i)..f_n(a_i)"
:class:`WithholdDisclosureAgent`      "neglects to send its share"
:class:`EagerDisclosureAgent`         "transmits its share when not needed"
:class:`WrongSecondPriceAgent`        "submits incorrect values for ... second price"
:class:`InflatedPaymentClaimAgent`    "submits the incorrect second-price bid"
:class:`WithholdPaymentClaimAgent`    "fails to submit any values"
====================================  ==========================================

All deviants set ``is_deviant = True`` so orchestration bookkeeping (never
protocol logic) can pick an honest reference transcript.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .agent import DMWAgent
from .bidding import AgentCommitments, ShareBundle
from .parameters import DMWParameters

#: A deviation factory: ``(index, parameters, true_values, rng) -> agent``.
DeviationFactory = Callable[
    [int, DMWParameters, Sequence[int], random.Random], DMWAgent]

#: Commitments + per-recipient bundles, as returned by ``begin_task``.
_BeginTaskResult = Tuple[Optional[AgentCommitments], Dict[int, ShareBundle]]


class DeviantAgent(DMWAgent):
    """Base class for deviating strategies."""

    is_deviant = True


class MisreportBidAgent(DeviantAgent):
    """Reveals an untruthful type but otherwise runs the protocol honestly.

    Parameters
    ----------
    reported_values:
        The bid vector to use instead of the true values; each entry must
        be in ``W``.
    """

    def __init__(self, index: int, parameters: DMWParameters,
                 true_values: Sequence[int],
                 reported_values: Sequence[int],
                 rng: Optional[random.Random] = None) -> None:
        super().__init__(index, parameters, true_values, rng)
        self.reported_values = [int(v) for v in reported_values]
        for value in self.reported_values:
            parameters.validate_bid(value)

    def choose_bid(self, task: int) -> int:
        return self.reported_values[task]


class CorruptSharesAgent(DeviantAgent):
    """Sends valid-looking but wrong share values to chosen victims.

    Detected by the victims' eq. (7)-(9) checks in step III.1.
    """

    def __init__(self, index: int, parameters: DMWParameters,
                 true_values: Sequence[int],
                 victims: Sequence[int],
                 rng: Optional[random.Random] = None) -> None:
        super().__init__(index, parameters, true_values, rng)
        self.victims = set(victims)

    def begin_task(self, task: int) -> _BeginTaskResult:
        commitments, bundles = super().begin_task(task)
        q = self.parameters.group.q
        corrupted: Dict[int, ShareBundle] = {}
        for recipient, bundle in bundles.items():
            if recipient in self.victims:
                corrupted[recipient] = ShareBundle(
                    e_value=(bundle.e_value + 1) % q,
                    f_value=bundle.f_value,
                    g_value=bundle.g_value,
                    h_value=bundle.h_value,
                )
            else:
                corrupted[recipient] = bundle
        return commitments, corrupted


class CorruptCommitmentsAgent(DeviantAgent):
    """Publishes a perturbed commitment vector (shares stay honest).

    Every receiver's step III.1 verification fails against the bogus
    commitments.
    """

    def begin_task(self, task: int) -> _BeginTaskResult:
        commitments, bundles = super().begin_task(task)
        group = self.parameters.group
        o_vector = list(commitments.o_vector)
        o_vector[0] = group.mul(o_vector[0], self.parameters.z1)
        return commitments._replace(o_vector=tuple(o_vector)), bundles


class WithholdSharesAgent(DeviantAgent):
    """Sends no share bundles to the chosen victims."""

    def __init__(self, index: int, parameters: DMWParameters,
                 true_values: Sequence[int],
                 victims: Sequence[int],
                 rng: Optional[random.Random] = None) -> None:
        super().__init__(index, parameters, true_values, rng)
        self.victims = set(victims)

    def begin_task(self, task: int) -> _BeginTaskResult:
        commitments, bundles = super().begin_task(task)
        return commitments, {recipient: bundle
                             for recipient, bundle in bundles.items()
                             if recipient not in self.victims}


class WithholdCommitmentsAgent(DeviantAgent):
    """Publishes no commitments at all (shares still sent)."""

    def begin_task(self, task: int) -> _BeginTaskResult:
        _, bundles = super().begin_task(task)
        return None, bundles


class WrongAggregatesAgent(DeviantAgent):
    """Publishes a perturbed ``Lambda_i`` in step III.2.

    Fails eq. (11) at every verifier, so the value is excluded from degree
    resolution; harmless while enough valid values remain, fatal (for
    everyone, including the deviant) when the threshold is crossed.
    """

    def publish_aggregates(self, task: int) -> Optional[Tuple[int, int]]:
        published = super().publish_aggregates(task)
        assert published is not None  # the honest step always publishes
        lambda_value, psi_value = published
        return (self.parameters.group.mul(lambda_value, self.parameters.z1),
                psi_value)


class WithholdAggregatesAgent(DeviantAgent):
    """Publishes nothing in step III.2 (but keeps its local copy so its own
    later steps still work)."""

    def publish_aggregates(self, task: int) -> Optional[Tuple[int, int]]:
        super().publish_aggregates(task)
        return None


class FalseDisclosureAgent(DeviantAgent):
    """Discloses a corrupted ``(f, h)`` share row during winner
    identification; detected by eq. (13) and discarded."""

    def disclose_f_shares(self, task: int
                          ) -> Optional[Dict[int, Tuple[int, int]]]:
        row = super().disclose_f_shares(task)
        if row is None:
            return None
        corrupted = dict(row)
        victim = min(corrupted)
        f_value, h_value = corrupted[victim]
        corrupted[victim] = ((f_value + 1) % self.parameters.group.q, h_value)
        return corrupted


class WithholdDisclosureAgent(DeviantAgent):
    """Stays silent during winner identification even when in the
    disclosure set."""

    def disclose_f_shares(self, task: int
                          ) -> Optional[Dict[int, Tuple[int, int]]]:
        return None


class EagerDisclosureAgent(DeviantAgent):
    """Discloses its (valid) row even when *not* in the disclosure set.

    The proof of Theorem 4 notes this yields exactly the same utility as
    honesty — extra valid information never hurts resolution.
    """

    def disclose_f_shares(self, task: int
                          ) -> Optional[Dict[int, Tuple[int, int]]]:
        state = self._state(task)
        return {
            sender: (bundle.f_value, bundle.h_value)
            for sender, bundle in sorted(state.received_bundles.items())
        }


class WrongSecondPriceAgent(DeviantAgent):
    """Publishes perturbed winner-excluded aggregates in step III.4."""

    def publish_excluded_aggregates(self, task: int
                                    ) -> Optional[Tuple[int, int]]:
        published = super().publish_excluded_aggregates(task)
        assert published is not None  # only called for resolvable tasks
        lambda_prime, psi_prime = published
        return (self.parameters.group.mul(lambda_prime, self.parameters.z1),
                psi_prime)


class FalseComplaintAgent(DeviantAgent):
    """Complains about every publisher it is assigned to verify.

    Arbitration recomputes the checks, confirms the publishers are honest,
    and the complaints change nothing — the deviation costs everyone one
    arbitration pass and gains the complainer nothing.
    """

    def validate_aggregates(self, task: int,
                            published: Dict[int, Tuple[int, int]]
                            ) -> List[int]:
        super().validate_aggregates(task, published)
        return [p for p in self._checked_publishers(published)]

    def validate_disclosures(self, task: int,
                             rows: Dict[int, Dict[int, Tuple[int, int]]]
                             ) -> List[int]:
        super().validate_disclosures(task, rows)
        assigned = set(self.parameters.verification_assignments(self.index))
        return [d for d in rows if d in assigned and d != self.index]


class SilentWinnerAgent(DeviantAgent):
    """Never claims winnership, even when it won.

    The fallback scan in winner identification finds it anyway (its
    ``f``-shares are already public), so the outcome — and its utility —
    is unchanged.
    """

    def claim_winnership(self, task: int) -> bool:
        return False


class FalseWinnerClaimAgent(DeviantAgent):
    """Always claims winnership.

    The eq. (14) test on its disclosed ``f``-shares fails whenever its bid
    exceeds ``y*``, so the false claim is discarded.
    """

    def claim_winnership(self, task: int) -> bool:
        return True


class InflatedPaymentClaimAgent(DeviantAgent):
    """Claims a larger payment for itself in Phase IV.

    The unanimity escrow sees the conflict and dispenses nothing.
    """

    def __init__(self, index: int, parameters: DMWParameters,
                 true_values: Sequence[int],
                 inflation: float = 10.0,
                 rng: Optional[random.Random] = None) -> None:
        super().__init__(index, parameters, true_values, rng)
        self.inflation = inflation

    def payment_claim(self, tasks: Optional[Iterable[int]] = None
                      ) -> Optional[List[float]]:
        claim = super().payment_claim(tasks)
        assert claim is not None  # the honest claim is always a full vector
        claim[self.index] += self.inflation
        return claim


class WithholdPaymentClaimAgent(DeviantAgent):
    """Submits no payment claim at all."""

    def payment_claim(self, tasks: Optional[Iterable[int]] = None
                      ) -> Optional[List[float]]:
        return None


#: Deviation factories for the faithfulness sweep: name -> callable taking
#: ``(index, parameters, true_values, rng)`` and returning an agent.
def standard_deviations() -> Dict[str, DeviationFactory]:
    """Return the named deviation factory table used by experiment E5."""
    def make(cls: Callable[..., DMWAgent], **kwargs: Any) -> DeviationFactory:
        def factory(index: int, parameters: DMWParameters,
                    true_values: Sequence[int],
                    rng: random.Random) -> DMWAgent:
            return cls(index, parameters, true_values, rng=rng, **kwargs)
        return factory

    def make_victims(cls: Callable[..., DMWAgent]) -> DeviationFactory:
        def factory(index: int, parameters: DMWParameters,
                    true_values: Sequence[int],
                    rng: random.Random) -> DMWAgent:
            victims = [k for k in range(parameters.num_agents) if k != index][:1]
            return cls(index, parameters, true_values, victims=victims, rng=rng)
        return factory

    def make_misreport() -> DeviationFactory:
        def factory(index: int, parameters: DMWParameters,
                    true_values: Sequence[int],
                    rng: random.Random) -> DMWAgent:
            reported: List[int] = []
            bid_values = parameters.bid_values
            for value in true_values:
                position = bid_values.index(value)
                shifted = bid_values[(position + 1) % len(bid_values)]
                reported.append(shifted)
            return MisreportBidAgent(index, parameters, true_values,
                                     reported, rng=rng)
        return factory

    return {
        "misreport_bid": make_misreport(),
        "corrupt_shares": make_victims(CorruptSharesAgent),
        "corrupt_commitments": make(CorruptCommitmentsAgent),
        "withhold_shares": make_victims(WithholdSharesAgent),
        "withhold_commitments": make(WithholdCommitmentsAgent),
        "wrong_aggregates": make(WrongAggregatesAgent),
        "withhold_aggregates": make(WithholdAggregatesAgent),
        "false_disclosure": make(FalseDisclosureAgent),
        "withhold_disclosure": make(WithholdDisclosureAgent),
        "eager_disclosure": make(EagerDisclosureAgent),
        "false_complaint": make(FalseComplaintAgent),
        "silent_winner": make(SilentWinnerAgent),
        "false_winner_claim": make(FalseWinnerClaimAgent),
        "wrong_second_price": make(WrongSecondPriceAgent),
        "inflated_payment_claim": make(InflatedPaymentClaimAgent),
        "withhold_payment_claim": make(WithholdPaymentClaimAgent),
    }
