"""Exact transcript-leakage analysis (the remark after Theorem 10).

DMW's transcript intentionally reveals, per task: the winner, the first
price ``y*``, and the second price ``y**``.  The remark after Theorem 10
calls this disclosure "intrinsic to the scheduling problem" and notes the
residual risk lies in *repeated* executions over the same job set.  This
module quantifies both statements exactly, by Bayesian enumeration:

* :func:`consistent_loser_profiles` enumerates every losing-bid vector in
  ``W^(n-1)`` consistent with a transcript (the observer's exact posterior
  support under a uniform prior);
* :func:`posterior_marginals` gives each loser's marginal bid
  distribution, and :func:`entropy_bits` / :func:`leakage_report` the
  entropy lost relative to the uniform prior;
* :func:`repeated_execution_leakage` re-runs DMW on the same instance
  with fresh protocol randomness and confirms the transcript — hence the
  posterior — is *identical* across repetitions: re-randomizing the
  polynomials leaks nothing new; only changing the *bids* would.

Everything here is exact (enumeration, not sampling), so keep instances
small (``|W|^(n-1)`` profiles are enumerated).
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Dict, Iterator, List

from ..core.outcome import AuctionTranscript
from ..core.parameters import DMWParameters
from ..core.protocol import run_dmw
from ..scheduling.problem import SchedulingProblem


def consistent_loser_profiles(parameters: DMWParameters,
                              transcript: AuctionTranscript
                              ) -> Iterator[Dict[int, int]]:
    """Yield every loser-bid assignment consistent with ``transcript``.

    A profile ``{loser index -> bid}`` is consistent when:

    * every loser bids at least ``y**`` (the second price is the minimum
      over non-winners);
    * some loser bids exactly ``y**``;
    * every loser with a smaller pseudonym than the winner bids strictly
      more than ``y*`` (otherwise the tie-break would have made *it* the
      winner).
    """
    n = parameters.num_agents
    losers = [i for i in range(n) if i != transcript.winner]
    winner_pseudonym = parameters.pseudonyms[transcript.winner]
    candidate_bids: List[List[int]] = []
    for loser in losers:
        options = [w for w in parameters.bid_values
                   if w >= transcript.second_price]
        if parameters.pseudonyms[loser] < winner_pseudonym:
            options = [w for w in options if w > transcript.first_price]
        candidate_bids.append(options)
    for combo in itertools.product(*candidate_bids):
        if min(combo) == transcript.second_price:
            yield dict(zip(losers, combo))


def posterior_marginals(parameters: DMWParameters,
                        transcript: AuctionTranscript
                        ) -> Dict[int, Dict[int, float]]:
    """Each loser's marginal bid distribution given the transcript.

    Under a uniform prior over all ``W^(n-1)`` loser profiles, the
    posterior is uniform over the consistent set; marginals are exact
    relative frequencies within it.
    """
    counts: Dict[int, Dict[int, int]] = {}
    total = 0
    for profile in consistent_loser_profiles(parameters, transcript):
        total += 1
        for loser, bid in profile.items():
            counts.setdefault(loser, {}).setdefault(bid, 0)
            counts[loser][bid] += 1
    if total == 0:
        raise ValueError("transcript is inconsistent: empty posterior")
    return {
        loser: {bid: count / total for bid, count in bids.items()}
        for loser, bids in counts.items()
    }


def entropy_bits(distribution: Dict[int, float]) -> float:
    """Shannon entropy of a finite distribution, in bits."""
    return -sum(p * math.log2(p) for p in distribution.values() if p > 0)


@dataclass(frozen=True)
class LeakageReport:
    """Per-loser leakage for one auction transcript.

    Attributes
    ----------
    prior_bits:
        Entropy of the uniform prior over ``W`` (same for every agent).
    posterior_bits:
        ``loser index -> `` posterior entropy of its bid.
    leaked_bits:
        ``loser index -> prior - posterior`` (information the transcript
        revealed about that loser).
    """

    prior_bits: float
    posterior_bits: Dict[int, float]
    leaked_bits: Dict[int, float]

    @property
    def max_leak(self) -> float:
        return max(self.leaked_bits.values()) if self.leaked_bits else 0.0

    @property
    def total_leak(self) -> float:
        return sum(self.leaked_bits.values())


def leakage_report(parameters: DMWParameters,
                   transcript: AuctionTranscript) -> LeakageReport:
    """Quantify what one transcript reveals about each loser's bid."""
    prior = math.log2(len(parameters.bid_values))
    marginals = posterior_marginals(parameters, transcript)
    posterior = {loser: entropy_bits(dist)
                 for loser, dist in marginals.items()}
    leaked = {loser: prior - bits for loser, bits in posterior.items()}
    return LeakageReport(prior_bits=prior, posterior_bits=posterior,
                         leaked_bits=leaked)


def repeated_execution_leakage(problem: SchedulingProblem,
                               parameters: DMWParameters,
                               repetitions: int = 5,
                               seed: int = 0) -> List[LeakageReport]:
    """Run DMW ``repetitions`` times on the same instance; report leakage.

    Each run uses fresh protocol randomness (new polynomials, new
    blindings).  Because the *bids* are unchanged, every run produces the
    identical transcript, so the observer's posterior after ``k`` runs
    equals the posterior after one — re-randomization leaks nothing new.
    The returned reports are therefore all equal, which the caller (and
    ``tests/test_leakage.py``) can assert.
    """
    master = random.Random(seed)
    reports: List[LeakageReport] = []
    reference_transcripts = None
    for _ in range(repetitions):
        outcome = run_dmw(problem, parameters=parameters,
                          rng=random.Random(master.getrandbits(64)))
        if not outcome.completed:
            raise RuntimeError("honest repeated run aborted: %r"
                               % outcome.abort)
        transcripts = [(t.task, t.first_price, t.winner, t.second_price)
                       for t in outcome.transcripts]
        if reference_transcripts is None:
            reference_transcripts = transcripts
        elif transcripts != reference_transcripts:
            raise AssertionError(
                "repeated executions produced different transcripts"
            )
        reports.append(leakage_report(parameters, outcome.transcripts[0]))
    return reports
