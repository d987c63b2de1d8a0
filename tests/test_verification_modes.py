"""Tests for the assigned-verifier/complaint regime vs full verification.

The Theorem 12 cost budget ``O(m n^2 log p)`` per agent holds only when
each published value is checked by ``c + 1`` assigned verifiers instead of
everyone (DESIGN.md); these tests pin down that the two regimes produce
identical outcomes, that the assigned regime is asymptotically cheaper,
and that the complaint/arbitration path neutralizes the deviations it
introduces.
"""

import random

import pytest

from repro.analysis.faithfulness import (
    evaluate_deviation,
    faithfulness_violations,
    honest_factory,
    participation_violations,
    run_deviation_matrix,
    run_with_agents,
)
from repro.core.deviant import (
    FalseComplaintAgent,
    FalseWinnerClaimAgent,
    SilentWinnerAgent,
    WrongAggregatesAgent,
)
from repro.core.exceptions import ParameterError
from repro.core.parameters import DMWParameters
from repro.core.protocol import run_dmw
from repro.mechanisms.base import truthful_bids
from repro.mechanisms.minwork import MinWork
from repro.scheduling.problem import SchedulingProblem


@pytest.fixture(scope="module")
def full_params(group_small):
    return DMWParameters.generate(5, fault_bound=1,
                                  group_parameters=group_small,
                                  verification_mode="full")


@pytest.fixture()
def problem():
    return SchedulingProblem([
        [2, 1],
        [1, 3],
        [3, 2],
        [2, 2],
        [3, 3],
    ])


class TestModeValidation:
    def test_invalid_mode_rejected(self, group_small):
        with pytest.raises(ParameterError):
            DMWParameters.generate(5, group_parameters=group_small,
                                   verification_mode="paranoid")


class TestVerifierAssignment:
    def test_each_publisher_has_c_plus_one_verifiers(self, params5):
        for publisher in range(5):
            verifiers = params5.assigned_verifiers(publisher)
            assert len(verifiers) == params5.fault_bound + 1
            assert publisher not in verifiers
            assert len(set(verifiers)) == len(verifiers)

    def test_assignments_are_inverse_of_verifiers(self, params5):
        for verifier in range(5):
            for publisher in params5.verification_assignments(verifier):
                assert verifier in params5.assigned_verifiers(publisher)


class TestOutcomeEquivalence:
    def test_same_outcome_in_both_modes(self, problem, params5, full_params):
        assigned = run_dmw(problem, parameters=params5,
                           rng=random.Random(1))
        full = run_dmw(problem, parameters=full_params,
                       rng=random.Random(1))
        assert assigned.completed and full.completed
        assert assigned.schedule == full.schedule
        assert assigned.payments == full.payments
        # Both match centralized MinWork.
        result = MinWork().run(truthful_bids(problem))
        assert assigned.schedule == result.schedule

    def test_honest_message_counts_identical(self, problem, params5,
                                             full_params):
        """No complaints on honest runs: the complaint machinery is free."""
        assigned = run_dmw(problem, parameters=params5)
        full = run_dmw(problem, parameters=full_params)
        assert assigned.network_metrics.point_to_point_messages == \
            full.network_metrics.point_to_point_messages
        assert assigned.network_metrics.rounds == full.network_metrics.rounds

    def test_assigned_mode_is_cheaper_per_agent(self, problem, params5,
                                                full_params):
        assigned = run_dmw(problem, parameters=params5)
        full = run_dmw(problem, parameters=full_params)
        assert assigned.max_agent_work < full.max_agent_work


class TestComplaintPath:
    def test_wrong_aggregates_triggers_complaints_and_exclusion(self):
        params = DMWParameters.generate(5, fault_bound=1)
        # Minimum bid 3 -> resolution has slack: the excluded publisher
        # does not break the protocol.
        problem = SchedulingProblem([[3], [3], [3], [3], [3]])

        def factory(index, parameters, true_values, rng):
            return WrongAggregatesAgent(index, parameters, true_values,
                                        rng=rng)

        outcome = evaluate_deviation(problem, params, "wrong", factory,
                                     deviant_index=2)
        assert outcome.completed
        assert outcome.gain <= 0

    def test_false_complaints_change_nothing(self, problem, params5):
        def factory(index, parameters, true_values, rng):
            return FalseComplaintAgent(index, parameters, true_values,
                                       rng=rng)

        outcome = evaluate_deviation(problem, params5, "false_complaint",
                                     factory, deviant_index=1)
        assert outcome.completed
        assert outcome.gain == 0.0
        assert outcome.min_honest_utility >= 0

    def test_false_complaint_outcome_matches_honest(self, problem, params5):
        honest = run_with_agents(params5, [honest_factory] * 5, problem)

        def factory(index, parameters, true_values, rng):
            return FalseComplaintAgent(index, parameters, true_values,
                                       rng=rng)

        factories = [honest_factory] * 5
        factories[3] = factory
        deviating = run_with_agents(params5, factories, problem)
        assert deviating.schedule == honest.schedule
        assert deviating.payments == honest.payments


class TestWinnerClaims:
    def test_silent_winner_still_identified(self, problem, params5):
        def factory(index, parameters, true_values, rng):
            return SilentWinnerAgent(index, parameters, true_values, rng=rng)

        # Agent 1 wins task 0 (bid 1); make IT the silent one.
        outcome = evaluate_deviation(problem, params5, "silent", factory,
                                     deviant_index=1)
        assert outcome.completed
        assert outcome.gain == 0.0

    def test_false_claim_discarded(self, problem, params5):
        def factory(index, parameters, true_values, rng):
            return FalseWinnerClaimAgent(index, parameters, true_values,
                                         rng=rng)

        outcome = evaluate_deviation(problem, params5, "claim", factory,
                                     deviant_index=4)  # bids 3,3: never wins
        assert outcome.completed
        assert outcome.gain == 0.0

    def test_claims_match_winners_on_honest_run(self, problem, params5):
        outcome = run_dmw(problem, parameters=params5)
        # Every task's winner claimed (its bid equals the first price).
        assert outcome.network_metrics.by_kind["winner_claim"] > 0


class TestFullMatrixInBothModes:
    @pytest.mark.parametrize("mode", ["assigned", "full"])
    def test_no_deviation_profits_in_either_mode(self, problem, group_small,
                                                 mode):
        params = DMWParameters.generate(5, fault_bound=1,
                                        group_parameters=group_small,
                                        verification_mode=mode)
        outcomes = run_deviation_matrix(problem, params,
                                        deviant_indices=[1])
        assert faithfulness_violations(outcomes) == []
        assert participation_violations(outcomes) == []
