"""Probabilistic properties: the 1/q failure rate the paper cites.

Section 2.4 states that degree resolution "mistakenly succeeds with
probability 1/p" when tested below the true degree.  Our implementation
works over ``Z_q`` (DESIGN.md decision 1), so the rate is ``1/q`` — tiny
for real parameters, but *measurable* in a deliberately small field.
These tests measure it, which simultaneously validates that the
interpolation of an underdetermined polynomial is (near-)uniform.
"""

import random
from collections import Counter


from repro.crypto.interpolation import interpolate_at_zero, resolve_degree
from repro.crypto.polynomials import Polynomial

SMALL_Q = 101  # tiny prime field: 1/q is observable
TRIALS = 4000


class TestFalsePositiveRate:
    def test_exact_degree_poly_never_false_positives(self):
        """A single encoding has a *non-zero* leading coefficient by
        construction, so the below-degree test never passes for it: the
        interpolant at zero is (leading coeff) * (non-zero constant)."""
        rng = random.Random(0)
        for _ in range(500):
            poly = Polynomial.random(5, SMALL_Q, rng)
            points = list(range(1, 6))  # 5 points: tests degree 4
            value = interpolate_at_zero(points,
                                        [poly.evaluate(x) for x in points],
                                        SMALL_Q)
            assert value != 0

    def test_summed_polys_false_positive_at_rate_one_over_q(self):
        """The protocol resolves SUMS (E = sum e_i): when two bidders tie
        on the minimum bid their leading coefficients can cancel, with
        probability ~ 1/q — the paper's cited failure rate, measured."""
        rng = random.Random(0)
        hits = 0
        for _ in range(TRIALS):
            total = (Polynomial.random(5, SMALL_Q, rng)
                     + Polynomial.random(5, SMALL_Q, rng))
            points = list(range(1, 6))  # 5 points: tests degree 4
            value = interpolate_at_zero(points,
                                        [total.evaluate(x) for x in points],
                                        SMALL_Q)
            hits += (value == 0)
        rate = hits / TRIALS
        # Leading coefficients cancel with probability 1/(q-1) ~ 0.01.
        assert 0.002 < rate < 0.030, rate

    def test_at_degree_test_always_passes(self):
        rng = random.Random(1)
        for _ in range(200):
            poly = Polynomial.random(5, SMALL_Q, rng)
            points = list(range(1, 7))  # 6 points: tests degree 5
            value = interpolate_at_zero(points,
                                        [poly.evaluate(x) for x in points],
                                        SMALL_Q)
            assert value == 0

    def test_resolution_error_is_always_underestimation(self):
        """When resolution errs (the 1/q event, via summed encodings), it
        reports a degree *below* the truth — i.e. DMW would report a
        too-high first price, never a too-low one."""
        rng = random.Random(2)
        underestimates, overestimates = 0, 0
        for _ in range(TRIALS):
            total = (Polynomial.random(5, SMALL_Q, rng)
                     + Polynomial.random(5, SMALL_Q, rng))
            if total.degree < 5:
                continue  # the cancellation itself; skip, counted above
            points = list(range(1, 9))
            resolved = resolve_degree(points,
                                      [total.evaluate(x) for x in points],
                                      SMALL_Q)
            if resolved < 5:
                underestimates += 1
            elif resolved > 5:
                overestimates += 1
        assert overestimates == 0
        assert 0 < underestimates < TRIALS * 0.10

    def test_interpolant_of_underdetermined_poly_is_spread_out(self):
        """The interpolated value below the degree is near-uniform over
        Z_q — the hiding property that keeps losing bids private."""
        rng = random.Random(3)
        values = Counter()
        for _ in range(TRIALS):
            poly = Polynomial.random(4, SMALL_Q, rng)
            points = [1, 2, 3]
            values[interpolate_at_zero(
                points, [poly.evaluate(x) for x in points], SMALL_Q)] += 1
        # Every residue shows up and no residue dominates.
        assert len(values) == SMALL_Q
        assert max(values.values()) < TRIALS * 0.05


class TestRealFieldRates:
    def test_no_false_positives_at_real_sizes(self, group_small):
        """At 40-bit q the 1/q event never shows in 300 trials."""
        q = group_small.group.q
        rng = random.Random(4)
        for _ in range(300):
            poly = Polynomial.random(4, q, rng)
            points = list(range(1, 5))
            value = interpolate_at_zero(points,
                                        [poly.evaluate(x) for x in points],
                                        q)
            assert value != 0
