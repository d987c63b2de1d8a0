"""The execution fast paths (repro.crypto.fastexp).

Two layers of guarantees:

* **primitive correctness** — fixed-base tables, Straus multi-
  exponentiation and Montgomery batch inversion agree with the naive
  implementations on random and edge-case inputs, including the error
  diagnostics of :func:`~repro.crypto.modular.mod_inv`;
* **whole-protocol equivalence** — running DMW with the fast paths on
  and off (``fastexp.naive_mode``) produces byte-identical outcomes:
  schedules, payments, transcripts, the full bulletin board, and every
  agent's :class:`~repro.crypto.modular.OperationCounter` snapshot.  The
  fast paths change wall-clock only; the paper's counted cost model
  (Theorem 12, Table 1) is charged on the same analytic schedule either
  way.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.audit import audit_protocol_run
from repro.core.deviant import standard_deviations
from repro.core.parameters import DMWParameters
from repro.core.protocol import DMWProtocol, run_dmw
from repro.core.agent import DMWAgent
from repro.crypto import fastexp, interpolation
from repro.crypto.commitments import PolynomialCommitment, evaluate_commitment
from repro.crypto.fastexp import (
    FixedBaseTable,
    PublicValueCache,
    batch_mod_inv,
    fixed_base_table,
    multi_exp,
    multi_exp_with_tables,
    naive_mode,
    straus_tables,
)
from repro.crypto.groups import fixture_group
from repro.crypto.modular import (NULL_COUNTER, OperationCounter, mod_inv,
                                  popcount)


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------

class TestFixedBaseTable:
    def test_matches_builtin_pow(self, group_small, rng):
        group = group_small.group
        table = FixedBaseTable(group_small.z1, group.p, group.q.bit_length())
        for exponent in [0, 1, 2, group.q - 1,
                         *(rng.randrange(group.q) for _ in range(50))]:
            assert table.pow(exponent) == pow(group_small.z1, exponent,
                                              group.p)

    def test_out_of_range_exponent_falls_back(self, group_small):
        group = group_small.group
        table = FixedBaseTable(group_small.z1, group.p, 8, window=4)
        big = group.q + 12345
        assert table.pow(big) == pow(group_small.z1, big, group.p)

    def test_negative_exponent_rejected(self, group_small):
        table = FixedBaseTable(group_small.z1, group_small.group.p, 16)
        with pytest.raises(ValueError):
            table.pow(-1)

    def test_factory_is_cached(self, group_small):
        group = group_small.group
        first = fixed_base_table(group_small.z1, group.p,
                                 group.q.bit_length())
        second = fixed_base_table(group_small.z1, group.p,
                                  group.q.bit_length())
        assert first is second

    def test_window_one(self):
        table = FixedBaseTable(3, 101, 6, window=1)
        for exponent in range(64):
            assert table.pow(exponent) == pow(3, exponent, 101)


class TestFixedBaseTableCache:
    """Daemon-grade table cache: observable, bounded, evictable.

    Regression guard for the former opaque ``@lru_cache`` on the factory
    — a long-lived service needs hit/size/byte stats for the metrics
    registry and a per-modulus eviction hook for the warm-cache store.
    """

    def test_stats_observe_hits_misses_and_bytes(self, group_small):
        group = group_small.group
        cache = fastexp.FixedBaseTableCache(maxsize=8)
        before = dict(hits=cache.hits, misses=cache.misses)
        first = cache.get(group_small.z1, group.p, group.q.bit_length())
        again = cache.get(group_small.z1, group.p, group.q.bit_length())
        assert again is first
        assert cache.misses == before["misses"] + 1
        assert cache.hits == before["hits"] + 1
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["approx_bytes"] > 0

    def test_lru_bound_evicts_oldest(self):
        cache = fastexp.FixedBaseTableCache(maxsize=2)
        cache.get(3, 101, 6)
        cache.get(5, 101, 6)
        cache.get(3, 101, 6)  # refresh 3 so 5 is the LRU entry
        cache.get(7, 101, 6)  # evicts 5
        assert cache.stats()["entries"] == 2
        assert cache.evictions == 1
        hits = cache.hits
        cache.get(5, 101, 6)  # rebuilt, not a hit
        assert cache.hits == hits

    def test_per_modulus_eviction_hook(self, group_small):
        group = group_small.group
        fastexp.clear_fixed_base_tables()
        fixed_base_table(group_small.z1, group.p, group.q.bit_length())
        fixed_base_table(3, 101, 6)
        assert fastexp.fixed_base_table_stats()["entries"] == 2
        assert fastexp.clear_fixed_base_tables(group.p) == 1
        assert fastexp.fixed_base_table_stats()["entries"] == 1
        # The surviving small-modulus table is untouched.
        assert fastexp.clear_fixed_base_tables(101) == 1

    def test_process_wide_stats_surface(self, group_small):
        group = group_small.group
        stats = fastexp.fixed_base_table_stats()
        assert set(stats) >= {"hits", "misses", "evictions", "entries",
                              "approx_bytes"}
        fixed_base_table(group_small.z1, group.p, group.q.bit_length())
        fixed_base_table(group_small.z1, group.p, group.q.bit_length())
        after = fastexp.fixed_base_table_stats()
        assert after["hits"] > stats["hits"] or \
            after["misses"] > stats["misses"]


class TestMultiExp:
    def _naive(self, bases, exponents, modulus):
        result = 1
        for base, exponent in zip(bases, exponents):
            result = (result * pow(base, exponent, modulus)) % modulus
        return result

    def test_matches_naive_product(self, group_small, rng):
        group = group_small.group
        for count in (1, 2, 5, 13):
            bases = [rng.randrange(2, group.p) for _ in range(count)]
            exps = [rng.randrange(group.q) for _ in range(count)]
            assert multi_exp(bases, exps, group.p) == self._naive(
                bases, exps, group.p)

    def test_zero_exponents_skipped(self, group_small, rng):
        group = group_small.group
        bases = [rng.randrange(2, group.p) for _ in range(4)]
        exps = [0, rng.randrange(1, group.q), 0, rng.randrange(1, group.q)]
        assert multi_exp(bases, exps, group.p) == self._naive(bases, exps,
                                                              group.p)
        assert multi_exp(bases, [0, 0, 0, 0], group.p) == 1

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            multi_exp([2, 3], [1], 101)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            multi_exp([2], [-1], 101)

    def test_precomputed_tables_agree(self, group_small, rng):
        group = group_small.group
        bases = [rng.randrange(2, group.p) for _ in range(9)]
        tables = straus_tables(bases, group.p, window=5)
        for _ in range(10):
            exps = [rng.randrange(group.q) for _ in range(9)]
            assert multi_exp_with_tables(tables, exps, group.p,
                                         window=5) == self._naive(
                                             bases, exps, group.p)

    def test_tables_prefix_compatible(self, group_small, rng):
        """A prefix slice of a table set serves the prefix of the bases."""
        group = group_small.group
        bases = [rng.randrange(2, group.p) for _ in range(6)]
        tables = straus_tables(bases, group.p, window=5)
        exps = [rng.randrange(group.q) for _ in range(4)]
        assert multi_exp_with_tables(list(tables[:4]), exps, group.p,
                                     window=5) == self._naive(
                                         bases[:4], exps, group.p)


class TestBatchModInv:
    def test_matches_mod_inv(self, group_small, rng):
        q = group_small.group.q
        values = [rng.randrange(1, q) for _ in range(17)]
        assert batch_mod_inv(values, q) == [mod_inv(v, q) for v in values]

    def test_counts_one_inv_per_value(self, group_small, rng):
        q = group_small.group.q
        values = [rng.randrange(1, q) for _ in range(8)]
        fast_counter = OperationCounter()
        batch_mod_inv(values, q, fast_counter)
        naive_counter = OperationCounter()
        for value in values:
            mod_inv(value, q, naive_counter)
        assert fast_counter.snapshot() == naive_counter.snapshot()

    def test_zero_raises_same_message(self):
        with pytest.raises(ZeroDivisionError) as fast_error:
            batch_mod_inv([3, 0, 5], 101)
        with pytest.raises(ZeroDivisionError) as naive_error:
            mod_inv(0, 101)
        assert str(fast_error.value) == str(naive_error.value)

    def test_non_invertible_raises_same_message(self):
        # 6 shares a factor with 15; the batch must identify it exactly
        # as mod_inv would.
        with pytest.raises(ZeroDivisionError) as fast_error:
            batch_mod_inv([2, 6], 15)
        with pytest.raises(ZeroDivisionError) as naive_error:
            mod_inv(6, 15)
        assert str(fast_error.value) == str(naive_error.value)

    def test_empty_and_single(self):
        assert batch_mod_inv([], 101) == []
        assert batch_mod_inv([7], 101) == [mod_inv(7, 101)]

    def test_naive_mode_fallback(self, group_small, rng):
        q = group_small.group.q
        values = [rng.randrange(1, q) for _ in range(5)]
        with naive_mode():
            assert not fastexp.enabled()
            assert batch_mod_inv(values, q) == [mod_inv(v, q)
                                                for v in values]
        assert fastexp.enabled()


class TestCounterBatching:
    def test_count_exp_batch_equals_repeated_count_exp(self, rng):
        exponents = [rng.randrange(1 << 40) for _ in range(20)] + [0, 1, 2]
        reference = OperationCounter()
        for exponent in exponents:
            reference.count_exp(exponent)
        batched = OperationCounter()
        work = sum(e.bit_length() + popcount(e) - 2
                   for e in exponents if e > 1)
        batched.count_exp_batch(len(exponents), work)
        assert (batched.exponentiations, batched.multiplication_work) == (
            reference.exponentiations, reference.multiplication_work)

    def test_null_counter_ignores_batch_and_merge(self):
        before = NULL_COUNTER.snapshot()
        NULL_COUNTER.count_exp_batch(10, 1000)
        full = OperationCounter()
        full.count_mul(99)
        NULL_COUNTER.merge(full)
        assert NULL_COUNTER.snapshot() == before


class TestPublicValueCache:
    def test_commitment_evaluation_hit_replays_counts(self, params5, rng):
        group_parameters = params5.group_parameters
        # Build a commitment through the protocol layer.
        from repro.core.bidding import encode_bid
        encoded = encode_bid(params5, bid=2, rng=rng)
        vector = encoded.commitments.q_vector
        point = params5.pseudonyms[0]
        cache = PublicValueCache()
        miss_counter = OperationCounter()
        first = evaluate_commitment(group_parameters, vector, point,
                                    miss_counter, cache)
        hit_counter = OperationCounter()
        second = evaluate_commitment(group_parameters, vector, point,
                                     hit_counter, cache)
        assert first == second
        assert hit_counter.snapshot() == miss_counter.snapshot()
        assert cache.stats()["hits"] == 1

    def test_cache_stats_of_a_seeded_run_are_pinned(self, params5,
                                                     problem53):
        """The published-openings slot is not in the stats: a seeded
        run's ``cache_stats`` are what they were before it existed."""
        outcome = run_dmw(problem53, parameters=params5,
                          rng=random.Random(0))
        assert outcome.completed
        assert outcome.cache_stats == {
            "hits": 384, "misses": 211,
            "evaluation_hits": 336, "evaluation_misses": 204,
            "weight_hits": 48, "weight_misses": 7,
            "evaluations": 204, "weight_vectors": 7, "straus_tables": 0,
        }

    def test_cache_keys_are_content_addressed(self, params5, rng):
        from repro.core.bidding import encode_bid
        cache = PublicValueCache()
        a = encode_bid(params5, bid=1, rng=random.Random(1))
        b = encode_bid(params5, bid=1, rng=random.Random(2))
        point = params5.pseudonyms[1]
        value_a = evaluate_commitment(params5.group_parameters,
                                      a.commitments.q_vector, point,
                                      NULL_COUNTER, cache)
        value_b = evaluate_commitment(params5.group_parameters,
                                      b.commitments.q_vector, point,
                                      NULL_COUNTER, cache)
        # Distinct blinding -> distinct commitments -> distinct entries.
        assert value_a != value_b
        assert cache.stats()["evaluations"] == 2


def _first_wrapping_point(order, slot):
    """Smallest point whose ``slot``-th power reaches ``order``."""
    point = max(2, int(order ** (1.0 / slot)))
    while point ** slot >= order:
        point -= 1
    while point ** slot < order:
        point += 1
    return point


class TestCommitmentEvaluationExactness:
    """Horner in the exponent equals the naive per-slot reference.

    The protocol never checks that published commitment elements lie in
    the order-q subgroup, so the fast evaluation must be exact for any
    element of ``Z_p^*`` — including at points whose powers wrap mod q,
    where plain Horner over every slot would not be.  Every sigma from 1
    to 12 meets every point, so the counted schedule memoised per
    ``(q, point, sigma)`` is pinned too, on its first use and on reuse.
    """

    SIGMA = 12

    @pytest.mark.parametrize("group_size", ["tiny", "small"])
    def test_matches_naive_for_any_base(self, group_size):
        parameters = fixture_group(group_size)
        group = parameters.group
        q = group.q
        rng = random.Random("exactness-" + group_size)
        points = {0, 1, 2, 6, q - 1}
        for slot in (2, 3, 6, self.SIGMA):
            wrapping = _first_wrapping_point(q, slot)
            points.update((wrapping - 1, wrapping))
        points.update(rng.randrange(q) for _ in range(3))
        for width in range(1, self.SIGMA + 1):
            elements = tuple(rng.randrange(1, group.p) for _ in range(width))
            assert not all(group.contains(e) for e in elements)
            commitment = PolynomialCommitment(parameters, elements)
            for point in sorted(points):
                reference_counter = OperationCounter()
                with naive_mode():
                    expected = commitment.evaluate(point, reference_counter)
                cache = PublicValueCache()
                for cache_arg in (None, cache, cache):  # plain, miss, hit
                    counter = OperationCounter()
                    assert commitment.evaluate(point, counter,
                                               cache_arg) == expected
                    assert counter.snapshot() == reference_counter.snapshot()
        assert any(point ** self.SIGMA >= q for point in points)


def _special_exponents(order, rng, count=12):
    """Edge exponents around the group order plus random ones."""
    return ([0, 1, 2, order - 1, order, order + 1, -1]
            + [rng.randrange(-order, 2 * order) for _ in range(count)])


class TestGeneratorPathsMatchReference:
    """The bound-table generator paths equal builtin ``pow`` in value and
    ``naive_mode()`` in counted cost, and return plain ints."""

    @pytest.mark.parametrize("group_size", ["tiny", "small", "large"])
    def test_exp_z1_and_exp_z2(self, group_size):
        parameters = fixture_group(group_size)
        group = parameters.group
        rng = random.Random("generator-paths-" + group_size)
        for exponent in _special_exponents(group.q, rng):
            for base, method in ((parameters.z1, parameters.exp_z1),
                                 (parameters.z2, parameters.exp_z2)):
                counter = OperationCounter()
                value = method(exponent, counter)
                assert type(value) is int
                assert value == pow(base, exponent, group.p)
                reference = OperationCounter()
                with naive_mode():
                    assert method(exponent, reference) == value
                assert counter.snapshot() == reference.snapshot()

    @pytest.mark.parametrize("group_size", ["tiny", "small", "large"])
    def test_open_value(self, group_size):
        parameters = fixture_group(group_size)
        group = parameters.group
        rng = random.Random("fused-opening-" + group_size)
        exponents = _special_exponents(group.q, rng)
        pairs = [(value, blinding) for value in exponents[:7]
                 for blinding in exponents[:7]]
        pairs += list(zip(exponents[7:], reversed(exponents)))
        for value, blinding in pairs:
            counter = OperationCounter()
            opening = parameters.open_value(value, blinding, counter)
            assert type(opening) is int
            assert opening == (pow(parameters.z1, value, group.p)
                               * pow(parameters.z2, blinding, group.p)
                               % group.p)
            reference = OperationCounter()
            with naive_mode():
                assert parameters.open_value(value, blinding,
                                             reference) == opening
            assert counter.snapshot() == reference.snapshot()

    @pytest.mark.parametrize("group_size", ["small", "large"])
    def test_open_pair(self, group_size):
        """One walk of the shared ``z2`` power gives both openings, and
        charges both ``open_value`` schedules."""
        parameters = fixture_group(group_size)
        rng = random.Random("pair-opening-" + group_size)
        exponents = _special_exponents(parameters.group.q, rng)
        special = exponents[:7]
        triples = [(first, second, blinding) for first in special
                   for second in special for blinding in special]
        triples += list(zip(exponents[7:], reversed(exponents),
                            exponents[5:]))
        for first, second, blinding in triples:
            reference = OperationCounter()
            expected = (parameters.open_value(first, blinding, reference),
                        parameters.open_value(second, blinding, reference))
            counter = OperationCounter()
            pair = parameters.open_pair(first, second, blinding, counter)
            assert pair == expected
            assert all(type(opening) is int for opening in pair)
            assert counter.snapshot() == reference.snapshot()
            naive = OperationCounter()
            with naive_mode():
                assert parameters.open_pair(first, second, blinding,
                                            naive) == expected
            assert naive.snapshot() == reference.snapshot()

    @pytest.mark.parametrize("group_size", ["tiny", "small", "large"])
    def test_div_z1_and_div_z2(self, group_size):
        """Dividing out a generator power needs no inversion: same value
        as ``group.div`` for any dividend, same counted cost."""
        parameters = fixture_group(group_size)
        group = parameters.group
        p = group.p
        rng = random.Random("generator-division-" + group_size)
        dividends = [0, 1, p - 1, p, -3, p + 5, parameters.z1,
                     rng.randrange(p)]
        for exponent in _special_exponents(group.q, rng, count=3):
            for base, method in ((parameters.z1, parameters.div_z1),
                                 (parameters.z2, parameters.div_z2)):
                inverse = pow(pow(base, exponent % group.q, p), -1, p)
                for dividend in dividends:
                    counter = OperationCounter()
                    quotient = method(dividend, exponent, counter)
                    assert type(quotient) is int
                    assert quotient == dividend * inverse % p
                    reference = OperationCounter()
                    with naive_mode():
                        assert method(dividend, exponent,
                                      reference) == quotient
                    assert counter.snapshot() == reference.snapshot()
                    assert counter.inversions == 1


class TestSignedWeightExponentTest:
    """The eq. (12) test with signed small weights equals the Straus
    product test ``multi_exp(...) == 1`` for every base, and charges the
    naive schedule; weights with no small signed representative take the
    Straus fallback."""

    @pytest.mark.parametrize("group_size", ["tiny", "small", "large"])
    def test_matches_multi_exp(self, group_size, monkeypatch):
        parameters = fixture_group(group_size)
        group = parameters.group
        p, q = group.p, group.q
        rng = random.Random("signed-weights-" + group_size)
        subgroup = [parameters.exp_z1(rng.randrange(q)) for _ in range(4)]
        outside = [p - 1, 2, 3, rng.randrange(2, p - 1)]
        assert not group.contains(p - 1)
        odd = [0, p, 3 * p, -1, -5, -(p - 2), p + 7,
               2 * p + rng.randrange(p)]
        bases = subgroup + outside + odd
        small = interpolation.SIGNED_WEIGHT_BOUND

        def draw_weight():
            kind = rng.randrange(4)
            if kind == 0:
                return rng.randrange(0, 40)
            if kind == 1:
                return q - rng.randrange(1, 40)
            if kind == 2:
                return rng.choice((small, small + 1, q - small,
                                   q - small - 1, -rng.randrange(1, 40)))
            return rng.randrange(q)

        fallbacks = []
        straus = fastexp.multi_exp

        def counting(*args, **kwargs):
            fallbacks.append(1)
            return straus(*args, **kwargs)

        monkeypatch.setattr(fastexp, "multi_exp", counting)
        verdicts = []
        for case in range(300 if group_size != "large" else 150):
            size = rng.randrange(1, 7)
            values = [rng.choice(bases) for _ in range(size)]
            weights = [draw_weight() for _ in range(size)]
            if case % 3 == 0:
                # Balance one weight-1 term so that the product is 1.
                slot = rng.randrange(size)
                rest = straus(values[:slot] + values[slot + 1:],
                              [w % q for w in weights[:slot]
                               + weights[slot + 1:]], p)
                if rest:
                    values[slot] = pow(rest, -1, p)
                    weights[slot] = 1
            elif case % 3 == 1:
                # Lambda-style bases at contiguous pseudonyms.
                points = list(range(1, size + 1))
                secret = [0] + [rng.randrange(q) for _ in range(size - 1)]
                values = [parameters.exp_z1(sum(c * point ** k for k, c
                                                in enumerate(secret)))
                          for point in points]
                weights = interpolation.lagrange_weights_at_zero(points, q)
            expected = straus(values, [w % q for w in weights], p) == 1
            counter = OperationCounter()
            assert interpolation._exponent_test(group, values, weights,
                                                counter) is expected
            reference = OperationCounter()
            with naive_mode():
                assert interpolation._exponent_test(group, values, weights,
                                                    reference) is expected
            assert counter.snapshot() == reference.snapshot()
            verdicts.append(expected)
        assert any(verdicts) and not all(verdicts)
        if q.bit_length() > 34:
            assert fallbacks
        else:
            assert not fallbacks  # every weight has a signed form < 2^32

    def test_zero_base_with_small_weight_is_not_one(self, group_small):
        group = group_small.group
        for weights in ([1, 1], [1, group.q - 1], [group.q - 2, 3]):
            assert not interpolation._exponent_test(
                group, [0, group_small.z1], weights, OperationCounter())
        # A zero weight skips its base, as 0^0 = 1 in the reference.
        assert interpolation._exponent_test(group, [0, 1], [0, 5],
                                            OperationCounter())


class TestOnePassChargesMatchReference:
    def test_share_bundle_for(self, params5, rng):
        from repro.core.bidding import encode_bid
        package = encode_bid(params5, bid=2, rng=rng)
        polynomials = (package.e, package.f, package.g, package.h)
        slots = sum(len(p.coefficients) for p in polynomials)
        q = params5.group.q
        for pseudonym in params5.pseudonyms:
            counter = OperationCounter()
            bundle = package.share_bundle_for(pseudonym, counter)
            reference = OperationCounter()
            with naive_mode():
                assert package.share_bundle_for(pseudonym,
                                                reference) == bundle
            assert counter.snapshot() == reference.snapshot()
            assert (counter.multiplications, counter.additions) == (slots,
                                                                    slots)
            assert (bundle.e_value, bundle.f_value, bundle.g_value,
                    bundle.h_value) == tuple(
                sum(c * pow(pseudonym, i, q)
                    for i, c in enumerate(p.coefficients)) % q
                for p in polynomials)

    @pytest.mark.parametrize("exclude", [None, 0, 3])
    def test_verify_lambda_psi(self, params5, exclude):
        from repro.core.bidding import encode_bid
        from repro.core.verification import verify_lambda_psi
        packages = [encode_bid(params5, bid=1 + index % 3,
                               rng=random.Random(index))
                    for index in range(params5.num_agents)]
        commitments = [package.commitments for package in packages]
        publisher = 1
        point = params5.pseudonyms[publisher]
        included = [index for index in range(params5.num_agents)
                    if index != exclude]
        e_total = sum(packages[k].e.evaluate(point) for k in included)
        h_total = sum(packages[k].h.evaluate(point) for k in included)
        group_parameters = params5.group_parameters
        honest = (group_parameters.exp_z1(e_total),
                  group_parameters.exp_z2(h_total))
        wrong = (honest[0], group_parameters.exp_z2(h_total + 1))
        for lambda_value, psi_value in (honest, wrong):
            outcomes = []
            for mode in ("fast", "naive"):
                cache = PublicValueCache()
                counter = OperationCounter()
                if mode == "naive":
                    with naive_mode():
                        valid = verify_lambda_psi(
                            params5, commitments, point, lambda_value,
                            psi_value, exclude=exclude, counter=counter,
                            cache=cache)
                else:
                    valid = verify_lambda_psi(
                        params5, commitments, point, lambda_value,
                        psi_value, exclude=exclude, counter=counter,
                        cache=cache)
                outcomes.append((valid, counter.snapshot()))
            assert outcomes[0] == outcomes[1]
            assert outcomes[0][0] is ((lambda_value, psi_value) == honest)
            # The listing the paper prices: one Gamma evaluation and one
            # multiplication per included agent, plus Lambda * Psi.
            reference = OperationCounter()
            for index in included:
                evaluate_commitment(params5.group_parameters,
                                    commitments[index].q_vector, point,
                                    reference)
            reference.count_mul(len(included) + 1)
            assert outcomes[0][1] == reference.snapshot()


# ---------------------------------------------------------------------------
# Whole-protocol equivalence: fast vs naive must be byte-identical
# ---------------------------------------------------------------------------

def _build_protocol(num_agents, group_size, times, deviant_mix, seed):
    parameters = DMWParameters.generate(
        num_agents, fault_bound=1,
        group_parameters=fixture_group(group_size))
    deviations = standard_deviations()
    master = random.Random(seed)
    agents = []
    for index in range(num_agents):
        agent_rng = random.Random(master.getrandbits(64))
        name = deviant_mix.get(index)
        if name is None:
            agents.append(DMWAgent(index, parameters, times[index],
                                   rng=agent_rng))
        else:
            agents.append(deviations[name](index, parameters, times[index],
                                           agent_rng))
    return DMWProtocol(parameters, agents)


def _run_both_ways(num_agents, group_size, times, deviant_mix, seed,
                   num_tasks):
    fast_protocol = _build_protocol(num_agents, group_size, times,
                                    deviant_mix, seed)
    fast_outcome = fast_protocol.execute(num_tasks)
    with naive_mode():
        naive_protocol = _build_protocol(num_agents, group_size, times,
                                         deviant_mix, seed)
        naive_outcome = naive_protocol.execute(num_tasks)
    return fast_protocol, fast_outcome, naive_protocol, naive_outcome


def _assert_identical(fast_protocol, fast_outcome, naive_protocol,
                      naive_outcome):
    assert fast_outcome.completed == naive_outcome.completed
    if fast_outcome.completed:
        assert (fast_outcome.schedule.assignment
                == naive_outcome.schedule.assignment)
    else:
        assert fast_outcome.abort.phase == naive_outcome.abort.phase
    assert fast_outcome.payments == naive_outcome.payments
    assert fast_outcome.transcripts == naive_outcome.transcripts
    # The full bulletin board: same messages, same order, same payloads.
    assert (fast_protocol.network.published()
            == naive_protocol.network.published())
    # The analytic cost model: bit-identical per-agent counters.
    assert fast_outcome.agent_operations == naive_outcome.agent_operations


TIMES_6 = [[2, 1], [1, 3], [3, 2], [2, 2], [3, 3], [1, 1]]


@pytest.mark.parametrize("deviant_mix", [
    {},
    {0: "misreport_bid"},
    {2: "wrong_aggregates"},
    {1: "withhold_aggregates", 4: "misreport_bid"},
])
def test_fast_and_naive_identical(deviant_mix):
    _assert_identical(*_run_both_ways(6, "small", TIMES_6, deviant_mix,
                                      seed=7, num_tasks=2))


def test_fast_and_naive_identical_full_verification():
    parameters = DMWParameters.generate(
        5, fault_bound=1, group_parameters=fixture_group("small"),
        verification_mode="full")
    times = [[2, 1], [1, 3], [3, 2], [2, 2], [3, 3]]

    def run():
        master = random.Random(3)
        agents = [DMWAgent(i, parameters, times[i],
                           rng=random.Random(master.getrandbits(64)))
                  for i in range(5)]
        protocol = DMWProtocol(parameters, agents)
        return protocol, protocol.execute(2)

    fast_protocol, fast_outcome = run()
    with naive_mode():
        naive_protocol, naive_outcome = run()
    _assert_identical(fast_protocol, fast_outcome, naive_protocol,
                      naive_outcome)


@pytest.mark.parametrize("deviant", ["wrong_aggregates",
                                     "corrupt_commitments"])
def test_fast_and_naive_identical_large_group(deviant, monkeypatch):
    """On the 512-bit group, with agent 2 (pseudonym 3) deviating.  Its
    excluded aggregate leaves the point set {1, 2, 4, ...}, whose eq. (12)
    weights are full-width: the Straus fallback runs."""
    fallbacks = []
    straus = fastexp.multi_exp

    def counting(*args, **kwargs):
        fallbacks.append(1)
        return straus(*args, **kwargs)

    monkeypatch.setattr(fastexp, "multi_exp", counting)
    times = [[3], [2], [4], [3], [4], [2]]
    _assert_identical(*_run_both_ways(6, "large", times, {2: deviant},
                                      seed=5, num_tasks=1))
    if deviant == "wrong_aggregates":
        assert fallbacks


def test_audit_identical_fast_and_naive():
    fast_protocol, fast_outcome, naive_protocol, naive_outcome = (
        _run_both_ways(6, "small", TIMES_6, {}, seed=11, num_tasks=2))
    fast_report = audit_protocol_run(fast_protocol, fast_outcome)
    with naive_mode():
        naive_report = audit_protocol_run(naive_protocol, naive_outcome)
    assert fast_report.ok and naive_report.ok
    assert (fast_report.reconstructed_assignment
            == naive_report.reconstructed_assignment)
    assert fast_report.operations == naive_report.operations


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_property_fast_naive_equivalence(data):
    """Across seeds, sizes, groups and deviant mixes: identical runs."""
    num_agents = data.draw(st.integers(min_value=4, max_value=7),
                           label="n")
    group_size = data.draw(st.sampled_from(["tiny", "small"]),
                           label="group")
    seed = data.draw(st.integers(min_value=0, max_value=2**16),
                     label="seed")
    num_tasks = data.draw(st.integers(min_value=1, max_value=2),
                          label="m")
    parameters = DMWParameters.generate(
        num_agents, fault_bound=1,
        group_parameters=fixture_group(group_size))
    bid_values = list(parameters.bid_values)
    value_rng = random.Random(seed)
    times = [[value_rng.choice(bid_values) for _ in range(num_tasks)]
             for _ in range(num_agents)]
    names = sorted(standard_deviations())
    num_deviants = data.draw(st.integers(min_value=0, max_value=1),
                             label="deviants")
    deviant_mix = {}
    if num_deviants:
        index = data.draw(st.integers(min_value=0,
                                      max_value=num_agents - 1),
                          label="deviant_index")
        deviant_mix[index] = data.draw(st.sampled_from(names),
                                       label="deviation")
    _assert_identical(*_run_both_ways(num_agents, group_size, times,
                                      deviant_mix, seed, num_tasks))


def test_degree_resolution_memoised_for_both_prices(monkeypatch):
    """One eq. (12) resolution per price per task, shared by all agents."""
    calls = []
    original = interpolation._resolve_degree_in_exponent

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(interpolation, "_resolve_degree_in_exponent",
                        counting)
    outcome = _build_protocol(6, "small", TIMES_6, {}, seed=7).execute(2)
    assert outcome.completed
    assert len(calls) == 2 * 2  # first and second price, per task
