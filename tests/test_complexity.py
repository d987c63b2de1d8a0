"""Tests for repro.analysis.complexity (the Table 1 measurement harness)."""

import math

import pytest

from repro.analysis.complexity import (
    CostSample,
    fit_loglog_slope,
    measure_dmw,
    measure_minwork,
    run_centralized_minwork_over_network,
    sweep_agents,
    sweep_tasks,
)
from repro.mechanisms.minwork import MinWork
from repro.scheduling.problem import SchedulingProblem


class TestSlopeFitting:
    def test_linear_data(self):
        xs = [2, 4, 8, 16]
        ys = [10 * x for x in xs]
        assert fit_loglog_slope(xs, ys) == pytest.approx(1.0)

    def test_quadratic_data(self):
        xs = [2, 4, 8, 16]
        ys = [3 * x * x for x in xs]
        assert fit_loglog_slope(xs, ys) == pytest.approx(2.0)

    def test_noisy_data_close(self):
        xs = [2.0, 4.0, 8.0, 16.0]
        ys = [x ** 1.5 * (1 + 0.01 * (-1) ** i) for i, x in enumerate(xs)]
        assert fit_loglog_slope(xs, ys) == pytest.approx(1.5, abs=0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_loglog_slope([1], [1])
        with pytest.raises(ValueError):
            fit_loglog_slope([2, 2], [1, 2])


class TestCentralizedMeasurement:
    def test_message_count_is_mn_plus_broadcast(self):
        problem = SchedulingProblem([
            [1, 2, 3],
            [4, 5, 6],
        ])
        sample, result = run_centralized_minwork_over_network(problem)
        # 2 agents * 3 bids + 2 outcome unicasts.
        assert sample.messages == 2 * 3 + 2
        assert result.schedule == MinWork().allocate(problem)

    def test_operation_count_is_2mn(self):
        problem = SchedulingProblem([
            [1, 2],
            [4, 5],
            [7, 8],
        ])
        sample, _ = run_centralized_minwork_over_network(problem)
        assert sample.computation == 2 * 3 * 2

    def test_measure_minwork_shape(self):
        sample = measure_minwork(5, 3)
        assert sample.num_agents == 5
        assert sample.num_tasks == 3
        assert sample.messages == 5 * 3 + 5


class TestDMWMeasurement:
    def test_sample_fields_populated(self):
        sample = measure_dmw(4, 1)
        assert sample.p_bits > 0
        assert sample.messages > 0
        assert sample.computation > 0
        assert sample.rounds == 5

    def test_communication_scales_quadratically_in_n(self):
        samples = sweep_agents((4, 6, 8, 10), num_tasks=1)
        slope = fit_loglog_slope([s.num_agents for s in samples],
                                 [s.messages for s in samples])
        assert slope == pytest.approx(2.0, abs=0.35)

    def test_communication_scales_linearly_in_m(self):
        samples = sweep_tasks((1, 2, 4, 6), num_agents=5)
        slope = fit_loglog_slope([s.num_tasks for s in samples],
                                 [s.messages for s in samples])
        assert slope == pytest.approx(1.0, abs=0.2)

    def test_computation_scales_linearly_in_m(self):
        samples = sweep_tasks((1, 2, 4, 6), num_agents=5)
        slope = fit_loglog_slope([s.num_tasks for s in samples],
                                 [s.computation for s in samples])
        assert slope == pytest.approx(1.0, abs=0.2)

    def test_minwork_cheaper_than_dmw(self):
        """The headline of Table 1: DMW pays a factor ~n in communication
        and ~n log p in computation for decentralization."""
        dmw = measure_dmw(6, 2)
        centralized = measure_minwork(6, 2)
        assert dmw.messages > 5 * centralized.messages
        assert dmw.computation > 50 * centralized.computation


class TestTable1CountedTotals:
    """Exact Theorem 11/12 counted totals for the Table 1 sweeps.

    Counted work is a pure function of the seeded exponents, so any drift
    here means the analytic schedule, the RNG substreams, or the bid
    draws changed.
    """

    @pytest.mark.parametrize("n, m, group_size, computation, messages", [
        (4, 2, "small", 8191, 172),
        (6, 2, "small", 15199, 336),
        (12, 2, "small", 84222, 1248),
        (6, 8, "small", 62426, 1374),
        (6, 2, "tiny", 10749, 336),
        (6, 2, "medium", 22145, 336),
    ])
    def test_counted_totals_are_pinned(self, n, m, group_size, computation,
                                       messages):
        sample = measure_dmw(n, m, group_size=group_size)
        assert (sample.computation, sample.messages) \
            == (computation, messages)


class TestTable1Fits:
    def test_small_sweep_matches_predictions(self):
        from repro.analysis.complexity import table1_fits
        fits = table1_fits(agent_counts=(4, 6, 8), task_counts=(1, 2, 4))
        assert len(fits) == 8  # 2 mechanisms x 2 variables x 2 quantities
        for fit in fits:
            # Every exponent lands within 0.5 of the Table 1 prediction
            # (the m-sweeps carry affine constants, hence the slack).
            assert fit.within < 0.5, fit
        labels = {(f.mechanism, f.variable, f.quantity) for f in fits}
        assert ("dmw", "n", "communication") in labels
        assert ("minwork", "m", "computation") in labels
