"""Unit tests for repro.mechanisms.properties (Theorem 2 machinery)."""

import random
from typing import List


from repro.mechanisms.base import Bids, CentralizedMechanism
from repro.mechanisms.minwork import MinWork
from repro.mechanisms.properties import (
    check_truthfulness_exhaustive,
    check_truthfulness_sampled,
    check_voluntary_participation,
)
from repro.scheduling import workloads
from repro.scheduling.problem import SchedulingProblem
from repro.scheduling.schedule import Schedule


class FirstPriceMinWork(CentralizedMechanism):
    """A deliberately broken mechanism: pays winners their own bid.

    First-price auctions are *not* truthful — underbidding pays — so the
    checkers must catch this.
    """

    def allocate(self, bids: Bids) -> Schedule:
        return MinWork().allocate(bids)

    def payments(self, bids: Bids, schedule: Schedule) -> List[float]:
        totals = [0.0] * bids.num_agents
        for task in range(bids.num_tasks):
            winner = schedule.agent_of(task)
            totals[winner] += bids.time(winner, task)
        return totals


class GreedyNoPayment(CentralizedMechanism):
    """Another broken design: allocation without payments.

    Violates voluntary participation — winners incur cost and receive
    nothing.
    """

    def allocate(self, bids: Bids) -> Schedule:
        return MinWork().allocate(bids)

    def payments(self, bids: Bids, schedule: Schedule) -> List[float]:
        return [0.0] * bids.num_agents


class TestExhaustiveTruthfulness:
    def test_minwork_passes(self):
        problem = SchedulingProblem([[1, 2], [2, 1], [2, 2]])
        violation = check_truthfulness_exhaustive(MinWork(), problem,
                                                  bid_values=[1, 2, 3])
        assert violation is None

    def test_first_price_fails(self):
        # Agent 0 wins task 0 at bid 1 (second bid 3): in the first-price
        # rule it profits by bidding just under 3.
        problem = SchedulingProblem([[1], [3]])
        violation = check_truthfulness_exhaustive(
            FirstPriceMinWork(), problem, bid_values=[1, 2, 3])
        assert violation is not None
        assert violation.deviating_utility > violation.truthful_utility

    def test_violation_identifies_agent_and_row(self):
        problem = SchedulingProblem([[1], [3]])
        violation = check_truthfulness_exhaustive(
            FirstPriceMinWork(), problem, bid_values=[1, 2, 3])
        assert violation.agent == 0
        assert violation.deviation == (2,)


class TestSampledTruthfulness:
    def test_minwork_passes(self, rng):
        for _ in range(3):
            problem = workloads.uniform_random(4, 3, rng)
            assert check_truthfulness_sampled(MinWork(), problem, rng,
                                              samples=100) is None

    def test_first_price_fails(self):
        rng = random.Random(0)
        problem = SchedulingProblem([[1, 1], [50, 50], [60, 60]])
        violation = check_truthfulness_sampled(FirstPriceMinWork(), problem,
                                               rng, samples=300)
        assert violation is not None


class TestVoluntaryParticipation:
    def test_minwork_passes(self, rng):
        for _ in range(5):
            problem = workloads.uniform_random(3, 3, rng)
            assert check_voluntary_participation(MinWork(), problem) is None

    def test_no_payment_mechanism_fails(self):
        problem = SchedulingProblem([[1], [3]])
        violation = check_voluntary_participation(GreedyNoPayment(), problem)
        assert violation is not None
        assert violation.truthful_utility < 0
