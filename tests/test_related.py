"""Tests for repro.mechanisms.related (related machines, future work)."""

import itertools

import pytest

from repro.mechanisms.related import (
    ExactMakespanAllocation,
    GreedyWorkSplit,
    MyersonRelatedMachines,
    assigned_work,
    related_problem,
)
from repro.scheduling.schedule import Schedule

GRID = [1, 2, 3]


class TestDomainHelpers:
    def test_related_problem_matrix(self):
        problem = related_problem([1, 2], [3, 5])
        assert problem.time(0, 0) == 3
        assert problem.time(1, 1) == 10

    def test_assigned_work(self):
        schedule = Schedule([0, 1, 0], num_agents=2)
        assert assigned_work(schedule, [3, 5, 2], 0) == 5
        assert assigned_work(schedule, [3, 5, 2], 1) == 5


class TestAllocationRules:
    def test_greedy_prefers_fast_machines(self):
        schedule = GreedyWorkSplit()([1, 3], [4, 4, 4])
        # The 3x slower machine should not get the majority of work.
        assert assigned_work(schedule, [4, 4, 4], 0) >= \
            assigned_work(schedule, [4, 4, 4], 1)

    def test_exact_minimizes_makespan(self):
        sizes = [3, 3, 2]
        speeds = [1, 1]
        schedule = ExactMakespanAllocation()(speeds, sizes)
        loads = [assigned_work(schedule, sizes, i) * speeds[i]
                 for i in range(2)]
        assert max(loads) == 5  # {3,2} vs {3}

    def test_exact_unloads_slow_machines_on_ties(self):
        # Both splits of two unit tasks across equal-speed machines tie on
        # makespan; the tie-break prefers unloading the higher-bid agent.
        schedule = ExactMakespanAllocation()([1, 2], [1, 1])
        assert assigned_work(schedule, [1, 1], 1) <= \
            assigned_work(schedule, [1, 1], 0)


class TestMechanismValidation:
    def test_grid_validated(self):
        with pytest.raises(ValueError):
            MyersonRelatedMachines([1], [3, 2, 1])
        with pytest.raises(ValueError):
            MyersonRelatedMachines([1], [0, 1])
        with pytest.raises(ValueError):
            MyersonRelatedMachines([], GRID)
        with pytest.raises(ValueError):
            MyersonRelatedMachines([0], GRID)

    def test_bids_must_be_on_grid(self):
        mechanism = MyersonRelatedMachines([2, 1], GRID)
        with pytest.raises(ValueError):
            mechanism.run([1, 2.5])


class TestMonotonicity:
    @pytest.mark.parametrize("allocation", [GreedyWorkSplit(),
                                            ExactMakespanAllocation()],
                             ids=["greedy", "exact"])
    def test_work_curves_non_increasing(self, allocation):
        for sizes in ([3, 2, 1], [5, 4, 3, 2], [7, 1, 1, 1]):
            mechanism = MyersonRelatedMachines(sizes, GRID,
                                               allocation=allocation)
            for bids in itertools.product(GRID, repeat=3):
                assert mechanism.check_monotonicity(list(bids)) is None, \
                    (sizes, bids)

    def test_checker_catches_non_monotone_rule(self):
        def perverse(inverse_speeds, sizes):
            # Gives ALL work to the highest bidder: blatantly rewarding
            # slow declarations.
            slowest = max(range(len(inverse_speeds)),
                          key=lambda i: (inverse_speeds[i], i))
            return Schedule([slowest] * len(sizes), len(inverse_speeds))

        mechanism = MyersonRelatedMachines([3, 2], GRID,
                                           allocation=perverse)
        violation = mechanism.check_monotonicity([1, 2, 3])
        assert violation is not None
        agent, curve = violation
        assert curve != sorted(curve, reverse=True)


class TestTruthfulness:
    @pytest.mark.parametrize("allocation", [GreedyWorkSplit(),
                                            ExactMakespanAllocation()],
                             ids=["greedy", "exact"])
    def test_exhaustive_grid_deviations_never_help(self, allocation):
        """Monotone allocation + Myerson payments = truthful: checked by
        brute force over every type profile and every deviation."""
        for sizes in ([3, 2, 1], [5, 4, 3, 2]):
            mechanism = MyersonRelatedMachines(sizes, GRID,
                                               allocation=allocation)
            for types in itertools.product(GRID, repeat=3):
                assert mechanism.check_truthfulness(list(types)) is None, \
                    (sizes, types)

    def test_non_monotone_rule_is_exploitable(self):
        """The same payment rule on a non-monotone allocation is NOT
        truthful — the harness exhibits the profitable lie."""
        def perverse(inverse_speeds, sizes):
            slowest = max(range(len(inverse_speeds)),
                          key=lambda i: (inverse_speeds[i], i))
            return Schedule([slowest] * len(sizes), len(inverse_speeds))

        mechanism = MyersonRelatedMachines([4, 2], GRID,
                                           allocation=perverse)
        found = False
        for types in itertools.product(GRID, repeat=2):
            if mechanism.check_truthfulness(list(types)) is not None:
                found = True
                break
        assert found

    def test_truthful_utility_nonnegative(self):
        """Voluntary participation: the Myerson payment covers the cost."""
        mechanism = MyersonRelatedMachines([3, 2, 2], GRID)
        for types in itertools.product(GRID, repeat=3):
            result = mechanism.run(list(types))
            for agent, true_type in enumerate(types):
                assert result.utility(agent, true_type,
                                      mechanism.sizes) >= -1e-9


class TestPayments:
    def test_zero_work_zero_payment(self):
        mechanism = MyersonRelatedMachines([5], GRID)
        # With bids (1, 3, 3) agent 0 takes everything under greedy.
        result = mechanism.run([1, 3, 3])
        for agent in range(3):
            if assigned_work(result.schedule, mechanism.sizes, agent) == 0:
                # Idle at the top of the grid -> idle above it: payment 0.
                if result.payments[agent] > 0:
                    curve = mechanism.work_curve([1, 3, 3], agent)
                    assert any(w > 0 for w in curve)

    def test_payment_at_least_declared_cost(self):
        mechanism = MyersonRelatedMachines([4, 2], GRID)
        for bids in itertools.product(GRID, repeat=2):
            result = mechanism.run(list(bids))
            for agent, bid in enumerate(bids):
                work = assigned_work(result.schedule, mechanism.sizes,
                                     agent)
                assert result.payments[agent] >= bid * work - 1e-9
