"""Unit tests for repro.crypto.polynomials."""

import pytest

from repro.crypto.modular import OperationCounter
from repro.crypto.polynomials import Polynomial, sum_polynomials

Q = 97


class TestConstruction:
    def test_coefficients_normalized(self):
        poly = Polynomial([100, -1], Q)
        assert poly.coefficients == (3, 96)

    def test_trailing_zeros_stripped(self):
        poly = Polynomial([1, 2, 0, 0], Q)
        assert poly.degree == 1

    def test_zero_polynomial(self):
        zero = Polynomial.zero(Q)
        assert zero.degree == -1
        assert zero.is_zero()
        assert zero.evaluate(42) == 0

    def test_all_zero_coefficients_is_zero(self):
        assert Polynomial([0, 0, 0], Q).is_zero()

    def test_rejects_bad_modulus(self):
        with pytest.raises(ValueError):
            Polynomial([1], 1)

    def test_coefficient_accessor(self):
        poly = Polynomial([5, 7, 11], Q)
        assert poly.coefficient(0) == 5
        assert poly.coefficient(2) == 11
        assert poly.coefficient(9) == 0
        with pytest.raises(IndexError):
            poly.coefficient(-1)


class TestRandom:
    def test_exact_degree(self, rng):
        for degree in range(1, 12):
            poly = Polynomial.random(degree, Q, rng)
            assert poly.degree == degree

    def test_zero_constant_term(self, rng):
        poly = Polynomial.random(5, Q, rng)
        assert poly.coefficient(0) == 0
        assert poly.evaluate(0) == 0

    def test_nonzero_constant_allowed(self, rng):
        polys = [Polynomial.random(3, Q, rng, zero_constant_term=False)
                 for _ in range(30)]
        assert any(p.coefficient(0) != 0 for p in polys)

    def test_degree_minus_one_is_zero_poly(self, rng):
        assert Polynomial.random(-1, Q, rng).is_zero()

    def test_degree_zero_with_zero_constant_rejected(self, rng):
        with pytest.raises(ValueError):
            Polynomial.random(0, Q, rng)

    def test_invalid_degree_rejected(self, rng):
        with pytest.raises(ValueError):
            Polynomial.random(-2, Q, rng)


class TestArithmetic:
    def test_evaluate_horner(self):
        poly = Polynomial([1, 2, 3], Q)  # 1 + 2x + 3x^2
        assert poly.evaluate(4) == (1 + 8 + 48) % Q

    def test_evaluate_counts_operations(self):
        poly = Polynomial([1, 2, 3, 4], Q)
        counter = OperationCounter()
        poly.evaluate(2, counter)
        assert counter.multiplications == 4

    def test_addition(self):
        a = Polynomial([1, 2], Q)
        b = Polynomial([3, 4, 5], Q)
        assert (a + b).coefficients == (4, 6, 5)

    def test_addition_cancels_leading_terms(self):
        a = Polynomial([0, 1, 1], Q)
        b = Polynomial([0, 1, Q - 1], Q)
        assert (a + b).degree == 1

    def test_subtraction(self):
        a = Polynomial([5, 5], Q)
        b = Polynomial([2, 7], Q)
        assert (a - b).coefficients == (3, Q - 2)

    def test_multiplication(self):
        a = Polynomial([1, 1], Q)   # 1 + x
        b = Polynomial([1, 2], Q)   # 1 + 2x
        assert (a * b).coefficients == (1, 3, 2)

    def test_multiplication_by_zero(self):
        a = Polynomial([1, 2, 3], Q)
        assert (a * Polynomial.zero(Q)).is_zero()

    def test_product_degree_adds(self, rng):
        a = Polynomial.random(3, Q, rng)
        b = Polynomial.random(4, Q, rng)
        assert (a * b).degree == 7

    def test_product_evaluates_pointwise(self, rng):
        a = Polynomial.random(3, Q, rng)
        b = Polynomial.random(4, Q, rng)
        product = a * b
        for x in range(1, 10):
            assert product.evaluate(x) == (a.evaluate(x) * b.evaluate(x)) % Q

    def test_scale(self):
        a = Polynomial([1, 2], Q)
        assert a.scale(3).coefficients == (3, 6)
        assert a.scale(0).is_zero()

    def test_incompatible_moduli_rejected(self):
        with pytest.raises(ValueError):
            Polynomial([1], 97) + Polynomial([1], 101)


class TestProtocolHelpers:
    def test_shares_at(self, rng):
        poly = Polynomial.random(3, Q, rng)
        points = [1, 2, 3]
        assert poly.shares_at(points) == [poly.evaluate(x) for x in points]

    def test_padded_coefficients(self):
        poly = Polynomial([0, 5], Q)
        assert poly.padded_coefficients(4) == [0, 5, 0, 0]

    def test_padding_too_small_rejected(self):
        poly = Polynomial([0, 1, 2], Q)
        with pytest.raises(ValueError):
            poly.padded_coefficients(2)

    def test_sum_polynomials(self, rng):
        polys = [Polynomial.random(d, Q, rng) for d in (2, 3, 5)]
        total = sum_polynomials(polys, Q)
        assert total.degree == 5
        for x in range(1, 6):
            expected = sum(p.evaluate(x) for p in polys) % Q
            assert total.evaluate(x) == expected

    def test_sum_of_none(self):
        assert sum_polynomials([], Q).is_zero()


class TestDunder:
    def test_equality_and_hash(self):
        a = Polynomial([1, 2], Q)
        b = Polynomial([1, 2, 0], Q)
        assert a == b
        assert hash(a) == hash(b)
        assert a != Polynomial([1, 2], 101)
        assert a != "not a polynomial"

    def test_repr_roundtrip_info(self):
        assert "97" in repr(Polynomial([1], Q))
