"""Tests for the Open Problem 11 threshold and the cartel boundary."""

import pytest

from repro.analysis.cartel import (
    best_cartel_gain,
    cartel_experiment,
    price_inflation_rows,
)
from repro.analysis.resilience import (
    completion_with_deviators,
    resilience_sweep,
)
from repro.core.deviant import WrongAggregatesAgent
from repro.scheduling.problem import SchedulingProblem


class TestResilienceThreshold:
    def test_threshold_matches_prediction(self, params5):
        """Open Problem 11: computable above the threshold, not below —
        and the threshold is exactly n - (sigma - y_min + 1)."""
        rows = resilience_sweep(params5)
        assert rows  # one row per bid level
        for row in rows:
            assert row.matches, row

    def test_threshold_grows_with_minimum_bid(self, params5):
        rows = resilience_sweep(params5)
        thresholds = [row.measured_threshold for row in rows]
        assert thresholds == sorted(thresholds)
        # Cheapest bid tolerates nothing; priciest tolerates w_k - 1.
        assert thresholds[0] == 0
        assert thresholds[-1] == params5.bid_values[-1] - 1

    def test_corrupting_equals_withholding(self, params5):
        """Excluded-because-invalid and excluded-because-absent hit the
        same resolution threshold."""
        withhold = resilience_sweep(params5)
        corrupt = resilience_sweep(params5,
                                   deviant_class=WrongAggregatesAgent)
        assert [(r.minimum_bid, r.measured_threshold) for r in withhold] \
            == [(r.minimum_bid, r.measured_threshold) for r in corrupt]

    def test_bounds_validated(self, params5):
        problem = SchedulingProblem([[2]] * 5)
        with pytest.raises(ValueError):
            completion_with_deviators(params5, problem, 5)
        with pytest.raises(ValueError):
            completion_with_deviators(params5, problem, -1)


class TestCartel:
    @pytest.fixture()
    def instance(self):
        # Agent 0 wins both tasks at second price 2 (set by agent 1).
        return SchedulingProblem([
            [1, 1],
            [2, 2],
            [3, 3],
            [3, 3],
            [3, 3],
        ])

    def test_price_inflation_cartel_profits(self, instance, params5):
        """The winner + price-setter cartel strictly gains jointly —
        the measured boundary of (unilateral) faithfulness."""
        rows = price_inflation_rows(instance, params5, winner=0,
                                    accomplice=1)
        outcome = cartel_experiment(instance, params5, (0, 1), rows)
        assert outcome.completed
        # Honest: winner paid 2 per task (utility 2); accomplice 0.
        assert outcome.honest_joint_utility == 2.0
        # Cartel: accomplice bids 3, winner now paid 3 per task.
        assert outcome.cartel_joint_utility == 4.0
        assert outcome.joint_gain == 2.0

    def test_individual_member_does_not_gain_alone(self, instance, params5):
        """Consistency with Theorem 5: the accomplice alone gains nothing
        (its gain is 0; the surplus lands on the winner, to be shared via
        a side payment outside the mechanism)."""
        rows = price_inflation_rows(instance, params5, winner=0,
                                    accomplice=1)
        solo = cartel_experiment(instance, params5, (1,),
                                 {1: rows[1]})
        assert solo.joint_gain <= 0

    def test_best_cartel_search_finds_the_pair(self, instance, params5):
        best = best_cartel_gain(instance, params5)
        assert best is not None
        assert best.joint_gain == 2.0
        assert 0 in best.members and 1 in best.members

    def test_no_cartel_when_second_price_maximal(self, params5):
        # Second prices are already w_k: inflation cannot help.
        instance = SchedulingProblem([
            [1],
            [3],
            [3],
            [3],
            [3],
        ])
        assert best_cartel_gain(instance, params5) is None
