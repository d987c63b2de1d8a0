"""Unit tests for repro.crypto.commitments."""

import contextlib
import random

import pytest

from repro.crypto.commitments import (
    PedersenCommitter,
    product_of_commitment_evaluations,
)
from repro.crypto.fastexp import naive_mode
from repro.crypto.groups import fixture_group
from repro.crypto.modular import OperationCounter
from repro.crypto.polynomials import Polynomial


@pytest.fixture()
def committer(group_small):
    return PedersenCommitter(group_small)


class TestScalarCommitment:
    def test_commit_verify_roundtrip(self, committer, rng):
        q = committer.parameters.group.q
        value, blinding = rng.randrange(q), rng.randrange(q)
        commitment = committer.commit(value, blinding)
        assert committer.verify(commitment, value, blinding)

    def test_wrong_value_rejected(self, committer):
        commitment = committer.commit(10, 20)
        assert not committer.verify(commitment, 11, 20)
        assert not committer.verify(commitment, 10, 21)

    def test_homomorphic_addition(self, committer):
        group = committer.parameters.group
        a = committer.commit(3, 4)
        b = committer.commit(5, 6)
        assert group.mul(a, b) == committer.commit(8, 10)

    def test_hiding_randomizes(self, committer):
        assert committer.commit(7, 1) != committer.commit(7, 2)

    def test_exponents_reduced_mod_q(self, committer):
        q = committer.parameters.group.q
        assert committer.commit(3, 4) == committer.commit(3 + q, 4 + q)


class TestPolynomialCommitment:
    def make(self, committer, rng, value_degree=3, size=6):
        q = committer.parameters.group.q
        values = Polynomial.random(value_degree, q, rng)
        blindings = Polynomial.random(size, q, rng)
        commitment = committer.commit_polynomial(values, blindings, size)
        return values, blindings, commitment

    def test_size_is_sigma(self, committer, rng):
        _, _, commitment = self.make(committer, rng, size=6)
        assert commitment.size == 6

    def test_verify_share_accepts_true_share(self, committer, rng):
        values, blindings, commitment = self.make(committer, rng)
        for point in (1, 2, 5):
            assert commitment.verify_share(point, values.evaluate(point),
                                           blindings.evaluate(point))

    def test_verify_share_rejects_wrong_share(self, committer, rng):
        values, blindings, commitment = self.make(committer, rng)
        assert not commitment.verify_share(3, values.evaluate(3) + 1,
                                           blindings.evaluate(3))
        assert not commitment.verify_share(3, values.evaluate(3),
                                           blindings.evaluate(3) + 1)

    def test_degree_hidden_by_fixed_size(self, committer, rng):
        # Commitments to degree-2 and degree-5 polynomials are structurally
        # identical: same vector length, all slots blinded.
        _, _, low = self.make(committer, rng, value_degree=2, size=6)
        _, _, high = self.make(committer, rng, value_degree=5, size=6)
        assert low.size == high.size

    def test_nonzero_constant_term_rejected(self, committer, rng):
        q = committer.parameters.group.q
        values = Polynomial([1, 2, 3], q)
        blindings = Polynomial.random(4, q, rng)
        with pytest.raises(ValueError):
            committer.commit_polynomial(values, blindings, 4)

    def test_degree_above_size_rejected(self, committer, rng):
        q = committer.parameters.group.q
        values = Polynomial.random(5, q, rng)
        blindings = Polynomial.random(5, q, rng)
        with pytest.raises(ValueError):
            committer.commit_polynomial(values, blindings, 3)

    def test_evaluation_is_metered(self, committer, rng):
        _, _, commitment = self.make(committer, rng)
        counter = OperationCounter()
        commitment.evaluate(3, counter)
        assert counter.exponentiations == commitment.size

    def test_binding_product_polynomial(self, committer, rng):
        """The eq. (7) use case: commit to e*f blinded by g."""
        q = committer.parameters.group.q
        e = Polynomial.random(2, q, rng)
        f = Polynomial.random(4, q, rng)
        g = Polynomial.random(6, q, rng)
        commitment = committer.commit_polynomial(e * f, g, 6)
        point = 9
        product_value = (e.evaluate(point) * f.evaluate(point)) % q
        assert commitment.verify_share(point, product_value,
                                       g.evaluate(point))


class TestCommitPolynomialPair:
    """Q and R under one blinding: the pair equals two single commitments
    in elements and in counted cost, on the fast and the naive path."""

    @pytest.mark.parametrize("group_size", ["small", "large"])
    def test_equals_two_single_commitments(self, group_size):
        parameters = fixture_group(group_size)
        committer = PedersenCommitter(parameters)
        q = parameters.group.q
        rng = random.Random("commit-pair-" + group_size)
        size = 5
        first = Polynomial.random(3, q, rng)
        second = Polynomial.random(size - 3, q, rng)
        blindings = Polynomial.random(size, q, rng)
        for mode in (contextlib.nullcontext, naive_mode):
            with mode():
                reference = OperationCounter()
                expected = (
                    committer.commit_polynomial(first, blindings, size,
                                                reference),
                    committer.commit_polynomial(second, blindings, size,
                                                reference))
                counter = OperationCounter()
                pair = committer.commit_polynomial_pair(first, second,
                                                        blindings, size,
                                                        counter)
            assert pair == expected
            assert counter.snapshot() == reference.snapshot()

    def test_nonzero_constant_term_rejected(self, committer, rng):
        q = committer.parameters.group.q
        good = Polynomial.random(3, q, rng)
        for first, second, blindings in (
                (Polynomial([1, 2], q), good, good),
                (good, Polynomial([1, 2], q), good),
                (good, good, Polynomial([1, 2, 3, 4], q))):
            with pytest.raises(ValueError):
                committer.commit_polynomial_pair(first, second, blindings, 4)


class TestAggregateProduct:
    def test_product_equals_commitment_to_sums(self, committer, rng):
        """The eq. (11) identity: prod_k Gamma_{i,k} = z1^E z2^H."""
        q = committer.parameters.group.q
        group = committer.parameters.group
        polynomials = [(Polynomial.random(3, q, rng),
                        Polynomial.random(6, q, rng)) for _ in range(4)]
        commitments = [committer.commit_polynomial(e, h, 6)
                       for e, h in polynomials]
        point = 7
        product = product_of_commitment_evaluations(commitments, point)
        e_sum = sum(e.evaluate(point) for e, _ in polynomials) % q
        h_sum = sum(h.evaluate(point) for _, h in polynomials) % q
        expected = group.mul(
            group.exp(committer.parameters.z1, e_sum),
            group.exp(committer.parameters.z2, h_sum),
        )
        assert product == expected

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            product_of_commitment_evaluations([], 3)
