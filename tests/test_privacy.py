"""Privacy tests: Theorem 10's collusion thresholds, measured."""

import pytest

from repro.analysis.privacy import (
    attack_shares,
    exposure_by_coalition_size,
    run_collusion_experiment,
)
from repro.crypto.secretsharing import Share
from repro.scheduling.problem import SchedulingProblem


@pytest.fixture()
def instance(params5):
    problem = SchedulingProblem([
        [1, 3],
        [2, 2],
        [3, 1],
        [2, 3],
        [3, 2],
    ])
    return problem, params5


class TestCollusionExperiment:
    def test_small_coalitions_expose_nothing(self, instance):
        """Coalitions of size <= c + 1 learn no bid at all."""
        problem, params = instance
        for size in (1, 2):  # c = 1
            results = run_collusion_experiment(problem, params,
                                               coalition=list(range(size)))
            assert all(not result.exposed for result in results)

    def test_exposure_threshold_is_degree_plus_one(self, instance):
        """A bid y (degree tau = sigma - y) falls to exactly tau + 1
        colluders — the 'inversely proportional' clause of Theorem 10."""
        problem, params = instance
        for size in range(1, 5):
            results = run_collusion_experiment(problem, params,
                                               coalition=list(range(size)))
            for result in results:
                expected = size >= result.required_colluders
                assert result.exposed == expected, result

    def test_exposed_bid_is_correct(self, instance):
        problem, params = instance
        results = run_collusion_experiment(problem, params,
                                           coalition=[0, 1, 2, 3])
        exposed = [r for r in results if r.exposed]
        assert exposed  # 4 colluders do break the weakest (highest) bids
        for result in exposed:
            assert result.inferred_bid == result.true_bid

    def test_lower_bids_need_more_colluders(self, instance):
        problem, params = instance
        results = run_collusion_experiment(problem, params, coalition=[0])
        by_bid = {}
        for result in results:
            by_bid[result.true_bid] = result.required_colluders
        bids = sorted(by_bid)
        thresholds = [by_bid[b] for b in bids]
        assert thresholds == sorted(thresholds, reverse=True)

    def test_sweep_is_monotone(self, instance):
        problem, params = instance
        rows = exposure_by_coalition_size(problem, params)
        exposed_counts = [row[1] for row in rows]
        # Exposure never decreases with coalition size... but note the
        # target set shrinks as the coalition grows, so compare fractions.
        fractions = [row[1] / row[2] for row in rows]
        assert all(b >= a - 1e-9 for a, b in zip(fractions, fractions[1:]))
        assert fractions[0] == 0.0

    def test_coalition_members_not_attacked(self, instance):
        problem, params = instance
        results = run_collusion_experiment(problem, params, coalition=[0, 1])
        targets = {result.target for result in results}
        assert targets == {2, 3, 4}


class TestAttackPrimitive:
    def test_attack_with_full_shares_succeeds(self, params5, rng):
        from repro.core.bidding import encode_bid
        package = encode_bid(params5, 3, rng)
        true_degree = params5.degree_for_bid(3)
        shares = [Share(alpha, package.e.evaluate(alpha))
                  for alpha in params5.pseudonyms]
        exposed, inferred = attack_shares(params5, shares, true_degree)
        assert exposed
        assert inferred == 3

    def test_attack_with_c_shares_fails(self, params5, rng):
        from repro.core.bidding import encode_bid
        package = encode_bid(params5, 3, rng)
        true_degree = params5.degree_for_bid(3)
        shares = [Share(alpha, package.e.evaluate(alpha))
                  for alpha in params5.pseudonyms[:params5.fault_bound]]
        exposed, _ = attack_shares(params5, shares, true_degree)
        assert not exposed

    def test_losing_bid_values_not_inferable_from_transcript(self, instance):
        """The transcript itself (first/second price + winner) reveals no
        third-lowest-or-higher bid: the attack on remaining agents with an
        empty coalition must be blind."""
        problem, params = instance
        results = run_collusion_experiment(problem, params, coalition=[0])
        # A single colluder (c = 1) exposes nothing.
        assert all(not r.exposed for r in results)
