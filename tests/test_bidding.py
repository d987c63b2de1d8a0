"""Unit tests for repro.core.bidding (Phase II)."""

import pytest

from repro.core.bidding import all_share_bundles, encode_bid
from repro.core.exceptions import ParameterError
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
