"""Unit tests for repro.crypto.interpolation (paper §2.4)."""

import pytest

from repro.crypto.interpolation import (
    interpolate_at_zero,
    lagrange_weights_at_zero,
    resolve_degree,
    resolve_degree_in_exponent,
)
from repro.crypto.modular import OperationCounter
from repro.crypto.polynomials import Polynomial

Q = 2 ** 31 - 1  # Mersenne prime, large enough to make accidents unlikely


def shares_of(poly, points):
    return [poly.evaluate(x) for x in points]


class TestLagrangeWeights:
    def test_weights_reconstruct_constant(self):
        # For f(x) = 7 (degree 0) any weights must satisfy sum(w) == 1.
        weights = lagrange_weights_at_zero([1, 2, 3], Q)
        assert sum(weights) % Q == 1

    def test_weights_match_direct_interpolation(self, rng):
        poly = Polynomial.random(2, Q, rng, zero_constant_term=False)
        points = [5, 9, 11]
        weights = lagrange_weights_at_zero(points, Q)
        direct = sum(w * poly.evaluate(x) for w, x in zip(weights, points)) % Q
        assert direct == poly.coefficient(0)

    def test_rejects_duplicate_points(self):
        with pytest.raises(ValueError):
            lagrange_weights_at_zero([1, 2, 1], Q)

    def test_rejects_zero_point(self):
        with pytest.raises(ValueError):
            lagrange_weights_at_zero([0, 1], Q)

    def test_rejects_points_equal_mod_q(self):
        with pytest.raises(ValueError):
            lagrange_weights_at_zero([1, 1 + Q], Q)


class TestInterpolateAtZero:
    def test_recovers_constant_term_exactly(self, rng):
        for degree in range(1, 6):
            poly = Polynomial.random(degree, Q, rng,
                                     zero_constant_term=False)
            points = list(range(1, degree + 2))
            value = interpolate_at_zero(points, shares_of(poly, points), Q)
            assert value == poly.coefficient(0)

    def test_zero_constant_term_gives_zero(self, rng):
        poly = Polynomial.random(4, Q, rng)
        points = list(range(1, 6))
        assert interpolate_at_zero(points, shares_of(poly, points), Q) == 0

    def test_too_few_points_generally_wrong(self, rng):
        # s = degree points of a degree-d polynomial: interpolant differs
        # from f at 0 (this is DESIGN.md decision 2 — the paper's s=d claim
        # does not hold; the concrete counterexample is f(x) = x^2).
        poly = Polynomial([0, 0, 1], Q)  # x^2
        value = interpolate_at_zero([1, 2], shares_of(poly, [1, 2]), Q)
        assert value != 0

    def test_extra_points_still_exact(self, rng):
        poly = Polynomial.random(3, Q, rng, zero_constant_term=False)
        points = list(range(1, 9))
        value = interpolate_at_zero(points, shares_of(poly, points), Q)
        assert value == poly.coefficient(0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            interpolate_at_zero([1, 2], [1], Q)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            interpolate_at_zero([], [], Q)

    def test_quadratic_cost(self):
        poly = Polynomial([3, 1, 4, 1, 5, 9], Q)
        points = list(range(1, 7))
        small, large = OperationCounter(), OperationCounter()
        interpolate_at_zero(points[:3], shares_of(poly, points[:3]), Q, small)
        interpolate_at_zero(points, shares_of(poly, points), Q, large)
        # Theta(s^2): doubling s roughly quadruples multiplications.
        assert large.multiplications > 2.5 * small.multiplications


class TestResolveDegree:
    def test_resolves_exact_degree(self, rng):
        for degree in range(1, 8):
            poly = Polynomial.random(degree, Q, rng)
            points = list(range(1, 12))
            resolved = resolve_degree(points, shares_of(poly, points), Q)
            assert resolved == degree

    def test_respects_candidate_list(self, rng):
        poly = Polynomial.random(4, Q, rng)
        points = list(range(1, 10))
        values = shares_of(poly, points)
        assert resolve_degree(points, values, Q, candidates=[4]) == 4
        assert resolve_degree(points, values, Q, candidates=[2, 3]) is None

    def test_candidates_above_true_degree_pass(self, rng):
        # Interpolating more points than the degree needs still vanishes.
        poly = Polynomial.random(3, Q, rng)
        points = list(range(1, 10))
        values = shares_of(poly, points)
        assert resolve_degree(points, values, Q, candidates=[5]) == 5

    def test_insufficient_points_skipped(self, rng):
        poly = Polynomial.random(5, Q, rng)
        points = list(range(1, 5))  # only 4 points: degree 5 needs 6
        assert resolve_degree(points, shares_of(poly, points), Q,
                              candidates=[5]) is None

    def test_sum_resolves_to_max_degree(self, rng):
        a = Polynomial.random(3, Q, rng)
        b = Polynomial.random(6, Q, rng)
        total = a + b
        points = list(range(1, 10))
        assert resolve_degree(points, shares_of(total, points), Q) == 6


class TestResolveDegreeInExponent:
    def test_matches_plaintext_resolution(self, group_small, rng):
        group = group_small.group
        q = group.q
        poly = Polynomial.random(4, q, rng)
        points = list(range(1, 9))
        values = [group.exp(group_small.z1, poly.evaluate(x))
                  for x in points]
        assert resolve_degree_in_exponent(group, points, values) == 4

    def test_candidates_respected(self, group_small, rng):
        group = group_small.group
        poly = Polynomial.random(3, group.q, rng)
        points = list(range(1, 8))
        values = [group.exp(group_small.z1, poly.evaluate(x))
                  for x in points]
        assert resolve_degree_in_exponent(group, points, values,
                                          candidates=[2]) is None
        assert resolve_degree_in_exponent(group, points, values,
                                          candidates=[2, 3]) == 3

    def test_corrupted_value_breaks_resolution(self, group_small, rng):
        group = group_small.group
        poly = Polynomial.random(3, group.q, rng)
        points = list(range(1, 6))
        values = [group.exp(group_small.z1, poly.evaluate(x))
                  for x in points]
        values[0] = group.mul(values[0], group_small.z1)
        assert resolve_degree_in_exponent(group, points, values,
                                          candidates=[3]) is None

    def test_length_mismatch_rejected(self, group_small):
        with pytest.raises(ValueError):
            resolve_degree_in_exponent(group_small.group, [1, 2], [1])
