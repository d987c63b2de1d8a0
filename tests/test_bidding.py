"""Unit tests for repro.core.bidding (Phase II)."""

import contextlib
import random

import pytest

from repro.core.bidding import all_share_bundles, encode_bid
from repro.core.exceptions import ParameterError
from repro.core.parameters import DMWParameters
from repro.crypto.fastexp import naive_mode
from repro.crypto.groups import fixture_group
from repro.crypto.modular import OperationCounter


class TestEncodeBid:
    def test_degrees_follow_encoding_rule(self, params5, rng):
        for bid in params5.bid_values:
            package = encode_bid(params5, bid, rng)
            tau = params5.sigma - bid
            assert package.e.degree == tau
            assert package.f.degree == bid          # deg f = sigma - tau
            assert package.g.degree == params5.sigma
            assert package.h.degree == params5.sigma

    def test_zero_constant_terms(self, params5, rng):
        package = encode_bid(params5, 2, rng)
        for poly in (package.e, package.f, package.g, package.h):
            assert poly.coefficient(0) == 0

    def test_product_polynomial_linear_term_vanishes(self, params5, rng):
        # (e*f) has v_1 = 0 automatically (both factors start at x).
        package = encode_bid(params5, 2, rng)
        product = package.e * package.f
        assert product.coefficient(0) == 0
        assert product.coefficient(1) == 0
        assert product.degree == params5.sigma

    def test_commitment_vectors_have_width_sigma(self, params5, rng):
        package = encode_bid(params5, 1, rng)
        for vector in package.commitments:
            assert type(vector) is tuple and len(vector) == params5.sigma
        assert package.commitments.field_elements == 3 * params5.sigma

    def test_invalid_bid_rejected(self, params5, rng):
        with pytest.raises(ParameterError):
            encode_bid(params5, 0, rng)
        with pytest.raises(ParameterError):
            encode_bid(params5, 99, rng)

    def test_fresh_randomness_each_call(self, params5, rng):
        a = encode_bid(params5, 2, rng)
        b = encode_bid(params5, 2, rng)
        assert a.e != b.e  # overwhelmingly likely; deterministic rng seed

    def test_operations_metered(self, params5, rng):
        counter = OperationCounter()
        encode_bid(params5, 2, rng, counter)
        assert counter.exponentiations > 0


class TestShareBundles:
    def test_bundle_values_are_evaluations(self, params5, rng):
        package = encode_bid(params5, 2, rng)
        alpha = params5.pseudonyms[3]
        bundle = package.share_bundle_for(alpha)
        assert bundle.e_value == package.e.evaluate(alpha)
        assert bundle.f_value == package.f.evaluate(alpha)
        assert bundle.g_value == package.g.evaluate(alpha)
        assert bundle.h_value == package.h.evaluate(alpha)

    def test_all_share_bundles_cover_every_agent(self, params5, rng):
        package = encode_bid(params5, 2, rng)
        bundles = all_share_bundles(params5, package)
        assert set(bundles) == set(range(params5.num_agents))

    def test_bundle_weight(self, params5, rng):
        package = encode_bid(params5, 2, rng)
        bundle = package.share_bundle_for(1)
        assert bundle.FIELD_ELEMENTS == 4


class ScriptedRandom(random.Random):
    """Answers ``getrandbits`` from ``script`` first, then draws as
    usual: the script puts chosen coefficients into the polynomials."""

    def __init__(self, seed, script):
        super().__init__(seed)
        self.script = list(script)

    def getrandbits(self, k):
        if self.script:
            return self.script.pop(0)
        return super().getrandbits(k)


class TestCommitPassMatchesListing:
    """The one-pass committer and the one-pass shares equal the literal
    listing (``naive_mode``: ``commit_polynomial`` for O, Q and R, and
    ``share_bundle_for`` per recipient) in every vector, every bundle and
    every counted operation."""

    @pytest.mark.parametrize("group_size", ["tiny", "small", "medium",
                                            "large"])
    def test_pass_equals_listing(self, group_size):
        group_parameters = fixture_group(group_size)
        parameters = DMWParameters.generate(
            6, fault_bound=1, group_parameters=group_parameters)
        p, q = group_parameters.group.p, group_parameters.group.q
        z1, z2 = group_parameters.z1, group_parameters.z2
        bids = (parameters.bid_values[0], parameters.bid_values[-1])
        special = (0, 1, q - 2, q - 1)  # draws of 0, 1, q - 1 (and 2)
        seen = set()
        for bid in bids:
            for seed in range(3):
                picker = random.Random(seed)
                script = [picker.choice(special)
                          for _ in range(4 * parameters.sigma)]
                for scripted in (False, True):
                    results = []
                    for mode in (contextlib.nullcontext, naive_mode):
                        rng = ScriptedRandom(seed, script if scripted
                                             else ())
                        committed, shared = (OperationCounter(),
                                             OperationCounter())
                        with mode():
                            package = encode_bid(parameters, bid, rng,
                                                 committed)
                            bundles = all_share_bundles(parameters, package,
                                                        shared)
                        results.append((package, bundles,
                                        committed.snapshot(),
                                        shared.snapshot()))
                    assert results[0] == results[1]
                    package, bundles = results[0][:2]
                    assert all(type(element) is int
                               for vector in package.commitments
                               for element in vector)
                    assert all(type(value) is int
                               for bundle in bundles.values()
                               for value in bundle)
                    product = package.e * package.f
                    for slot, (o, q_element, r) in enumerate(
                            zip(*package.commitments), 1):
                        h = package.h.coefficient(slot)
                        assert o == (pow(z1, product.coefficient(slot), p)
                                     * pow(z2, package.g.coefficient(slot),
                                           p) % p)
                        assert q_element == (
                            pow(z1, package.e.coefficient(slot), p)
                            * pow(z2, h, p) % p)
                        assert r == (pow(z1, package.f.coefficient(slot), p)
                                     * pow(z2, h, p) % p)
                    if scripted:
                        seen.update(
                            polynomial.coefficient(slot)
                            for polynomial in (package.e, package.f,
                                               package.g, package.h)
                            for slot in range(1, polynomial.degree + 1))
        assert {0, 1, q - 1} <= seen
