"""Faithfulness tests: every deviation family vs the suggested strategy.

These are the executable versions of Theorems 4, 5 and 9: for every
deviation in :mod:`repro.core.deviant`, the deviator's utility never
exceeds its honest utility, and honest bystanders never end up negative.
"""

import pytest

from repro.analysis.faithfulness import (
    check_dmw_truthfulness_exhaustive,
    evaluate_deviation,
    faithfulness_violations,
    honest_factory,
    participation_violations,
    run_deviation_matrix,
    run_with_agents,
)
from repro.core.deviant import (
    EagerDisclosureAgent,
    MisreportBidAgent,
    WithholdAggregatesAgent,
    WrongAggregatesAgent,
    standard_deviations,
)
from repro.scheduling.problem import SchedulingProblem


@pytest.fixture()
def instance(params5):
    problem = SchedulingProblem([
        [2, 1],
        [1, 3],
        [3, 2],
        [2, 2],
        [3, 3],
    ])
    return problem, params5


class TestDeviationMatrix:
    def test_no_deviation_profits(self, instance):
        problem, params = instance
        outcomes = run_deviation_matrix(problem, params,
                                        deviant_indices=[0, 1, 4])
        assert faithfulness_violations(outcomes) == []

    def test_no_bystander_loses(self, instance):
        problem, params = instance
        outcomes = run_deviation_matrix(problem, params,
                                        deviant_indices=[0, 1, 4])
        assert participation_violations(outcomes) == []

    def test_all_strategies_exercised(self, instance):
        problem, params = instance
        outcomes = run_deviation_matrix(problem, params,
                                        deviant_indices=[0])
        strategies = {outcome.strategy for outcome in outcomes}
        assert strategies == set(standard_deviations())


class TestDetectionSemantics:
    """Each deviation lands in the abort phase the proof of Theorem 4
    names (or completes harmlessly where the proof says it must)."""

    @pytest.mark.parametrize("strategy,expected_phase", [
        ("corrupt_shares", "allocating"),
        ("corrupt_commitments", "allocating"),
        ("withhold_shares", "bidding"),
        ("withhold_commitments", "bidding"),
        ("inflated_payment_claim", "payments"),
        ("withhold_payment_claim", "payments"),
    ])
    def test_fatal_deviations_abort_in_phase(self, instance, strategy,
                                             expected_phase):
        problem, params = instance
        factory = standard_deviations()[strategy]
        outcome = evaluate_deviation(problem, params, strategy, factory,
                                     deviant_index=0)
        assert not outcome.completed
        assert outcome.abort_phase == expected_phase
        assert outcome.deviant_utility == 0.0

    @pytest.mark.parametrize("strategy", [
        "false_disclosure",
        "withhold_disclosure",
        "eager_disclosure",
        "misreport_bid",
    ])
    def test_tolerated_deviations_complete(self, instance, strategy):
        problem, params = instance
        factory = standard_deviations()[strategy]
        outcome = evaluate_deviation(problem, params, strategy, factory,
                                     deviant_index=0)
        assert outcome.completed
        assert outcome.gain <= 1e-9

    def test_eager_disclosure_utility_unchanged(self, instance):
        """'If A_i transmits its share when not needed, it receives the
        same amount of utility as if it had not' (Theorem 4 proof)."""
        problem, params = instance

        def factory(index, parameters, true_values, rng):
            return EagerDisclosureAgent(index, parameters, true_values,
                                        rng=rng)

        outcome = evaluate_deviation(problem, params, "eager", factory,
                                     deviant_index=4)
        assert outcome.completed
        assert outcome.gain == 0.0


class TestAggregateWithholding:
    """The tau* < n vs tau* = n dichotomy in the Theorem 4 proof."""

    def test_withholding_fatal_when_all_points_needed(self, params5):
        # Minimum bid 1 -> degree sigma-1 = 4 -> needs all 5 Lambda values.
        problem = SchedulingProblem([[1], [2], [3], [2], [3]])

        def factory(index, parameters, true_values, rng):
            return WithholdAggregatesAgent(index, parameters, true_values,
                                           rng=rng)

        outcome = evaluate_deviation(problem, params5, "withhold", factory,
                                     deviant_index=2)
        assert not outcome.completed

    def test_withholding_harmless_when_slack_exists(self, params5):
        # Minimum bid 3 -> degree 2 -> needs only 3 of 5 values.
        problem = SchedulingProblem([[3], [3], [3], [3], [3]])

        def factory(index, parameters, true_values, rng):
            return WithholdAggregatesAgent(index, parameters, true_values,
                                           rng=rng)

        outcome = evaluate_deviation(problem, params5, "withhold", factory,
                                     deviant_index=4)
        assert outcome.completed
        assert outcome.gain == 0.0

    def test_wrong_aggregates_equivalent_to_withholding(self, params5):
        problem = SchedulingProblem([[3], [3], [3], [3], [3]])

        def factory(index, parameters, true_values, rng):
            return WrongAggregatesAgent(index, parameters, true_values,
                                        rng=rng)

        outcome = evaluate_deviation(problem, params5, "wrong", factory,
                                     deviant_index=4)
        assert outcome.completed  # invalid value excluded, slack absorbs it


class TestExhaustiveMisreporting:
    def test_no_bid_vector_beats_truth(self, params5):
        problem = SchedulingProblem([
            [2, 1], [1, 3], [3, 2], [2, 2], [3, 3],
        ])
        for agent in (0, 1):
            assert check_dmw_truthfulness_exhaustive(problem, params5,
                                                     agent) == []

    def test_misreporting_can_strictly_lose(self, params5):
        """Underbidding wins unprofitable tasks: utility strictly drops."""
        problem = SchedulingProblem([
            [3, 3], [1, 1], [2, 2], [2, 2], [3, 3],
        ])

        def factory(index, parameters, true_values, rng):
            return MisreportBidAgent(index, parameters, true_values,
                                     [1, 1], rng=rng)

        outcome = evaluate_deviation(problem, params5, "underbid", factory,
                                     deviant_index=0)
        assert outcome.completed
        assert outcome.gain < 0  # won at second price 1, true cost 3


class TestRunWithAgents:
    def test_honest_factories_reproduce_run_dmw(self, instance):
        problem, params = instance
        outcome = run_with_agents(params, [honest_factory] * 5, problem)
        assert outcome.completed
        assert outcome.schedule.num_tasks == 2
