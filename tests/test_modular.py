"""Unit tests for repro.crypto.modular."""

import random

import pytest

from repro.crypto.groups import FIXTURE_SIZES, fixture_group
from repro.crypto.modular import (
    NULL_COUNTER,
    OperationCounter,
    _popcount_fallback,
    exp_work,
    exp_work_total,
    metered,
    mod_add,
    mod_div,
    mod_exp,
    mod_inv,
    mod_mul,
    mod_sub,
    popcount,
)

P = 101  # a small prime for hand-checkable arithmetic


class TestArithmetic:
    def test_mod_add(self):
        assert mod_add(60, 50, P) == 9

    def test_mod_sub_wraps(self):
        assert mod_sub(3, 7, P) == P - 4

    def test_mod_mul(self):
        assert mod_mul(10, 11, P) == 110 % P

    def test_mod_exp_matches_pow(self):
        for base in (2, 3, 57):
            for exponent in (0, 1, 2, 17, 100):
                assert mod_exp(base, exponent, P) == pow(base, exponent, P)

    def test_mod_exp_zero_exponent(self):
        assert mod_exp(42, 0, P) == 1

    def test_mod_exp_negative_exponent_uses_inverse(self):
        value = mod_exp(3, -2, P)
        assert (value * pow(3, 2, P)) % P == 1

    def test_mod_exp_rejects_bad_modulus(self):
        with pytest.raises(ValueError):
            mod_exp(2, 3, 0)

    def test_mod_inv_roundtrip(self):
        for a in range(1, P):
            assert (a * mod_inv(a, P)) % P == 1

    def test_mod_inv_of_zero_fails(self):
        with pytest.raises(ZeroDivisionError):
            mod_inv(0, P)

    def test_mod_inv_non_coprime_fails(self):
        with pytest.raises(ZeroDivisionError):
            mod_inv(6, 9)

    def test_mod_inv_handles_values_above_modulus(self):
        assert (mod_inv(P + 3, P) * 3) % P == 1

    def test_mod_div(self):
        assert mod_div(10, 5, P) == (10 * mod_inv(5, P)) % P


class TestOperationCounter:
    def test_counts_multiplications(self):
        counter = OperationCounter()
        mod_mul(2, 3, P, counter)
        mod_mul(4, 5, P, counter)
        assert counter.multiplications == 2
        assert counter.multiplication_work == 2

    def test_counts_inversions_as_work(self):
        counter = OperationCounter()
        mod_inv(7, P, counter)
        assert counter.inversions == 1
        assert counter.multiplication_work == 1

    def test_exponentiation_work_is_square_and_multiply(self):
        counter = OperationCounter()
        # exponent 13 = 0b1101: 3 squarings + 2 multiplies = 5 work units
        mod_exp(2, 13, P, counter)
        assert counter.exponentiations == 1
        assert counter.multiplication_work == 5

    def test_exponent_one_costs_nothing(self):
        counter = OperationCounter()
        mod_exp(2, 1, P, counter)
        assert counter.multiplication_work == 0

    def test_exponent_work_scales_with_bits(self):
        small, large = OperationCounter(), OperationCounter()
        mod_exp(2, 2 ** 16 - 1, P, small)
        mod_exp(2, 2 ** 64 - 1, P, large)
        assert large.multiplication_work == pytest.approx(
            4 * small.multiplication_work, rel=0.05
        )

    def test_reset(self):
        counter = OperationCounter()
        mod_mul(2, 3, P, counter)
        counter.reset()
        assert counter.snapshot() == {
            "additions": 0,
            "multiplications": 0,
            "inversions": 0,
            "exponentiations": 0,
            "multiplication_work": 0,
        }

    def test_merge(self):
        a, b = OperationCounter(), OperationCounter()
        mod_mul(2, 3, P, a)
        mod_inv(5, P, b)
        a.merge(b)
        assert a.multiplications == 1
        assert a.inversions == 1
        assert a.multiplication_work == 2

    def test_null_counter_discards_everything(self):
        before = NULL_COUNTER.snapshot()
        mod_mul(2, 3, P, NULL_COUNTER)
        mod_exp(2, 100, P, NULL_COUNTER)
        assert NULL_COUNTER.snapshot() == before

    def test_metered_context_manager(self):
        with metered() as counter:
            mod_mul(2, 3, P, counter)
        assert counter.multiplications == 1


class TestPopcount:
    """The counted model's popcount, including the pre-3.10 fallback."""

    def _values(self):
        rng = random.Random("popcount")
        values = [0, 1, 2, 3, 255, 256, (1 << 64) - 1, 1 << 200]
        for size in sorted(FIXTURE_SIZES):
            values.append(fixture_group(size).group.q - 1)
        values.extend(rng.getrandbits(bits) for bits in (8, 40, 160, 512)
                      for _ in range(5))
        return values

    def test_fallback_matches_bin_count(self):
        for value in self._values():
            assert _popcount_fallback(value) == bin(value).count("1")

    def test_bound_popcount_matches_bin_count(self):
        for value in self._values():
            assert popcount(value) == bin(value).count("1")

    def test_count_exp_charges_square_and_multiply(self):
        for value in self._values():
            counter = OperationCounter()
            counter.count_exp(value)
            expected = (value.bit_length() - 1 + bin(value).count("1") - 1
                        if value > 1 else 0)
            assert counter.multiplication_work == expected
            assert counter.exponentiations == 1

    def test_exp_work_total_sums_exp_work(self):
        values = tuple(self._values())
        assert exp_work_total(values) == sum(map(exp_work, values))
        for single in values:
            assert exp_work_total((single,)) == exp_work(single)
        assert exp_work_total((0, 0, 1, 1)) == exp_work_total(()) == 0
