"""Unit tests for repro.core.verification (eqs. (7)-(9), (11), (13))."""

import contextlib
import random

import pytest

from repro.core.agent import DMWAgent
from repro.core.bidding import ShareBundle, all_share_bundles, encode_bid
from repro.core.parameters import DMWParameters
from repro.core.verification import (
    gamma_value,
    phi_value,
    verify_f_disclosure,
    verify_lambda_psi,
    verify_share_bundle,
)
from repro.crypto.commitments import evaluate_commitment
from repro.crypto.fastexp import PublicValueCache, naive_mode
from repro.crypto.groups import fixture_group
from repro.crypto.modular import OperationCounter


@pytest.fixture()
def setup(params5, rng):
    """Packages and bundles for all 5 agents bidding (1, 2, 3, 2, 1)."""
    bids = [1, 2, 3, 2, 1]
    packages = [encode_bid(params5, bid, rng) for bid in bids]
    bundles = [all_share_bundles(params5, package) for package in packages]
    return bids, packages, bundles


class TestShareVerification:
    def test_honest_bundles_verify(self, params5, setup):
        _, packages, bundles = setup
        for sender in range(5):
            for receiver in range(5):
                assert verify_share_bundle(
                    params5, packages[sender].commitments,
                    params5.pseudonyms[receiver],
                    bundles[sender][receiver],
                )

    def test_corrupted_e_detected(self, params5, setup):
        _, packages, bundles = setup
        bundle = bundles[0][1]
        q = params5.group.q
        corrupted = ShareBundle((bundle.e_value + 1) % q, bundle.f_value,
                                bundle.g_value, bundle.h_value)
        assert not verify_share_bundle(params5, packages[0].commitments,
                                       params5.pseudonyms[1], corrupted)

    def test_corrupted_f_detected(self, params5, setup):
        _, packages, bundles = setup
        bundle = bundles[0][1]
        q = params5.group.q
        corrupted = ShareBundle(bundle.e_value, (bundle.f_value + 1) % q,
                                bundle.g_value, bundle.h_value)
        assert not verify_share_bundle(params5, packages[0].commitments,
                                       params5.pseudonyms[1], corrupted)

    def test_corrupted_blinding_detected(self, params5, setup):
        _, packages, bundles = setup
        bundle = bundles[2][3]
        q = params5.group.q
        for field in ("g_value", "h_value"):
            values = {
                "e_value": bundle.e_value, "f_value": bundle.f_value,
                "g_value": bundle.g_value, "h_value": bundle.h_value,
            }
            values[field] = (values[field] + 1) % q
            corrupted = ShareBundle(**values)
            assert not verify_share_bundle(params5, packages[2].commitments,
                                           params5.pseudonyms[3], corrupted)

    def test_swapped_commitments_detected(self, params5, setup):
        # Bundle from agent 0 checked against agent 1's commitments fails.
        _, packages, bundles = setup
        assert not verify_share_bundle(params5, packages[1].commitments,
                                       params5.pseudonyms[2],
                                       bundles[0][2])


class TestGammaPhi:
    def test_gamma_opens_to_e_and_h(self, params5, setup):
        _, packages, _ = setup
        group = params5.group
        alpha = params5.pseudonyms[2]
        expected = group.mul(
            group.exp(params5.z1, packages[0].e.evaluate(alpha)),
            group.exp(params5.z2, packages[0].h.evaluate(alpha)),
        )
        assert gamma_value(params5, packages[0].commitments, alpha) == expected

    def test_phi_opens_to_f_and_h(self, params5, setup):
        _, packages, _ = setup
        group = params5.group
        alpha = params5.pseudonyms[4]
        expected = group.mul(
            group.exp(params5.z1, packages[1].f.evaluate(alpha)),
            group.exp(params5.z2, packages[1].h.evaluate(alpha)),
        )
        assert phi_value(params5, packages[1].commitments, alpha) == expected


class TestLambdaPsi:
    def aggregates_for(self, params5, packages, index):
        group = params5.group
        q = group.q
        alpha = params5.pseudonyms[index]
        e_sum = sum(p.e.evaluate(alpha) for p in packages) % q
        h_sum = sum(p.h.evaluate(alpha) for p in packages) % q
        return (group.exp(params5.z1, e_sum), group.exp(params5.z2, h_sum))

    def test_honest_aggregates_verify(self, params5, setup):
        _, packages, _ = setup
        commitments = [p.commitments for p in packages]
        for index in range(5):
            lam, psi = self.aggregates_for(params5, packages, index)
            assert verify_lambda_psi(params5, commitments,
                                     params5.pseudonyms[index], lam, psi)

    def test_corrupted_lambda_detected(self, params5, setup):
        _, packages, _ = setup
        commitments = [p.commitments for p in packages]
        lam, psi = self.aggregates_for(params5, packages, 0)
        bad = params5.group.mul(lam, params5.z1)
        assert not verify_lambda_psi(params5, commitments,
                                     params5.pseudonyms[0], bad, psi)

    def test_excluding_variant(self, params5, setup):
        """Eq. (15): dividing out the winner still verifies with
        exclude=winner."""
        _, packages, _ = setup
        group = params5.group
        commitments = [p.commitments for p in packages]
        winner = 0
        index = 2
        alpha = params5.pseudonyms[index]
        lam, psi = self.aggregates_for(params5, packages, index)
        lam_prime = group.div(lam, group.exp(params5.z1,
                                             packages[winner].e.evaluate(alpha)))
        psi_prime = group.div(psi, group.exp(params5.z2,
                                             packages[winner].h.evaluate(alpha)))
        assert verify_lambda_psi(params5, commitments, alpha,
                                 lam_prime, psi_prime, exclude=winner)
        # But not with the full product:
        assert not verify_lambda_psi(params5, commitments, alpha,
                                     lam_prime, psi_prime)


class TestDisclosure:
    def test_honest_disclosure_verifies(self, params5, setup):
        _, packages, bundles = setup
        discloser = 1
        row = {
            sender: (bundles[sender][discloser].f_value,
                     bundles[sender][discloser].h_value)
            for sender in range(5)
        }
        assert verify_f_disclosure(params5, [p.commitments for p in packages],
                                   params5.pseudonyms[discloser], row)

    def test_tampered_entry_detected(self, params5, setup):
        _, packages, bundles = setup
        discloser = 1
        q = params5.group.q
        row = {
            sender: (bundles[sender][discloser].f_value,
                     bundles[sender][discloser].h_value)
            for sender in range(5)
        }
        f_value, h_value = row[3]
        row[3] = ((f_value + 1) % q, h_value)
        assert not verify_f_disclosure(params5,
                                       [p.commitments for p in packages],
                                       params5.pseudonyms[discloser], row)

    def test_incomplete_row_rejected(self, params5, setup):
        _, packages, bundles = setup
        discloser = 1
        row = {0: (bundles[0][discloser].f_value,
                   bundles[0][discloser].h_value)}
        assert not verify_f_disclosure(params5,
                                       [p.commitments for p in packages],
                                       params5.pseudonyms[discloser], row)


def _perturbed(vector, slot, factor, modulus):
    elements = list(vector)
    elements[slot] = elements[slot] * factor % modulus
    return tuple(elements)


def _opens(parameters, vector, pseudonym, value, blinding):
    """One share equation (eqs. (7)-(9)) in the literal listing."""
    group_parameters = parameters.group_parameters
    return (group_parameters.open_value(value, blinding)
            == evaluate_commitment(group_parameters, vector, pseudonym))


def _parameters(group_size):
    return DMWParameters.generate(
        5, fault_bound=1, group_parameters=fixture_group(group_size))


def _variants(parameters, vector):
    """Received forms of one vector, each with the evaluation it should
    give: ``True`` when it keeps every slot's residue mod ``p``."""
    group = parameters.group
    p = group.p
    outside = next(x for x in range(2, p) if not group.contains(x))
    variants = {"*z1": (_perturbed(vector, 1, parameters.z1, p), False),
                "short": (vector[:-1], False),
                "long": (vector + vector[:1], False)}
    for label, element in (("=0", 0), ("=p-1", p - 1), ("=p+1", p + 1),
                           ("=-1", -1), ("=outside", outside)):
        variants[label] = ((element,) + vector[1:], False)
    for label, shift in (("+p", p), ("-p", -p)):
        variants[label] = ((vector[0] + shift,) + vector[1:], True)
    return variants


def _cache(kind, warm):
    """No cache, a fresh one, or one seeded from ``warm``."""
    if kind == "none":
        return None
    cache = PublicValueCache()
    if kind == "warm":
        cache.seed_from(warm)
    return cache


def _warm_cache(parameters, vectors, pseudonym):
    warm = PublicValueCache()
    for vector in vectors:
        evaluate_commitment(parameters.group_parameters, vector, pseudonym,
                            cache=warm)
    return warm


def _expected_stats(parameters, kind, warm, vectors, pseudonym):
    """The statistics of one lookup per evaluated vector."""
    reference = _cache(kind, warm)
    for vector in vectors:
        evaluate_commitment(parameters.group_parameters, vector, pseudonym,
                            cache=reference)
    return reference.stats()


class RecordingCounter(OperationCounter):
    """An :class:`OperationCounter` that also lists the calls charging it."""

    __slots__ = ("calls",)

    def __init__(self):
        super().__init__()
        self.calls = []

    def count_add(self, times=1):
        self.calls.append("count_add")
        super().count_add(times)

    def count_mul(self, times=1):
        self.calls.append("count_mul")
        super().count_mul(times)

    def count_inv(self, times=1):
        self.calls.append("count_inv")
        super().count_inv(times)

    def count_exp(self, exponent):
        self.calls.append("count_exp")
        super().count_exp(exponent)

    def count_exp_batch(self, count, work):
        self.calls.append("count_exp_batch")
        super().count_exp_batch(count, work)


ONE_CHARGE = ["count_exp_batch", "count_mul"]


class TestShareBundleMatchesReference:
    """The per-share path checks a bundle in one pass with one charge and
    derives eq. (9) from eq. (8).  Every verdict, every counter snapshot
    and the cache statistics equal the literal listing's (``naive_mode``)
    with no cache, a fresh one and a warm-seeded one, including values
    outside ``[0, q)``, elements outside the subgroup and vectors of the
    wrong length."""

    def cases(self, parameters, packages, bundles):
        sender, receiver = 0, 2
        commitments = packages[sender].commitments
        bundle = bundles[sender][receiver]
        q = parameters.group.q
        yield "honest", commitments, bundle, True
        yield "honest+q", commitments, bundle._replace(
            e_value=bundle.e_value + q,
            f_value=bundle.f_value - q), True
        for field in ("e_value", "f_value", "g_value", "h_value"):
            for delta in (1, -1):
                shifted = bundle._replace(
                    **{field: getattr(bundle, field) + delta})
                yield "%s%+d" % (field, delta), commitments, shifted, False
        for name in ("o_vector", "q_vector", "r_vector"):
            for label, (vector, honest) in _variants(
                    parameters, getattr(commitments, name)).items():
                yield (name + label,
                       commitments._replace(**{name: vector}),
                       bundle, honest)
        # R-only: O and Q still open, only eq. (9) fails.
        yield ("r_vector of another agent",
               commitments._replace(
                   r_vector=packages[sender + 1].commitments.r_vector),
               bundle, False)

    def verdict(self, parameters, commitments, pseudonym, bundle, naive,
                cache, counter=None):
        counter = OperationCounter() if counter is None else counter
        if naive:
            with naive_mode():
                valid = verify_share_bundle(parameters, commitments,
                                            pseudonym, bundle, counter, cache)
        else:
            valid = verify_share_bundle(parameters, commitments, pseudonym,
                                        bundle, counter, cache)
        return valid, counter.snapshot()

    @staticmethod
    def evaluated(parameters, commitments, pseudonym, bundle):
        """The vectors the listing evaluates, up to its first failure."""
        q = parameters.group.q
        e_value, f_value, g_value, h_value = bundle
        openings = (((e_value * f_value) % q, g_value), (e_value, h_value),
                    (f_value, h_value))
        vectors = []
        for (value, blinding), vector in zip(openings, commitments):
            vectors.append(vector)
            if not _opens(parameters, vector, pseudonym, value, blinding):
                break
        return vectors

    @pytest.mark.parametrize("group_size", ["tiny", "small", "large"])
    def test_verdicts_and_counters(self, group_size):
        parameters = _parameters(group_size)
        rng = random.Random("eq9-from-eq8-" + group_size)
        packages = [encode_bid(parameters, bid, rng) for bid in (1, 3, 2)]
        bundles = [all_share_bundles(parameters, package)
                   for package in packages]
        pseudonym = parameters.pseudonyms[2]
        warm = _warm_cache(parameters, packages[0].commitments, pseudonym)
        r_only = r_tampered = 0
        for name, commitments, bundle, honest in self.cases(
                parameters, packages, bundles):
            reference = self.verdict(parameters, commitments, pseudonym,
                                     bundle, naive=True, cache=None)
            assert reference[0] is honest, name
            evaluated = self.evaluated(parameters, commitments, pseudonym,
                                       bundle)
            for kind in ("none", "fresh", "warm"):
                cache = _cache(kind, warm)
                counter = RecordingCounter()
                assert self.verdict(parameters, commitments, pseudonym,
                                    bundle, naive=False, cache=cache,
                                    counter=counter) == reference, (name,
                                                                    kind)
                assert counter.calls == ONE_CHARGE, (name, kind)
                if cache is not None:
                    assert cache.stats() == _expected_stats(
                        parameters, kind, warm, evaluated,
                        pseudonym), (name, kind)
            if name.startswith("r_vector") and not honest:
                r_tampered += 1
                r_only += len(evaluated) == 3
        assert r_only == r_tampered == 9

    @pytest.mark.parametrize("group_size", ["tiny", "small"])
    def test_warm_hits_replay_the_listing(self, group_size):
        """Every vector hits a warm-seeded cache, and each hit charges
        what the listing charges."""
        parameters = _parameters(group_size)
        rng = random.Random("warm-" + group_size)
        package = encode_bid(parameters, 2, rng)
        for receiver, pseudonym in enumerate(parameters.pseudonyms):
            bundle = package.share_bundle_for(pseudonym)
            warm = _warm_cache(parameters, package.commitments, pseudonym)
            cache = _cache("warm", warm)
            reference = self.verdict(parameters, package.commitments,
                                     pseudonym, bundle, naive=True,
                                     cache=None)
            assert reference[0]
            assert self.verdict(parameters, package.commitments, pseudonym,
                                bundle, naive=False,
                                cache=cache) == reference, receiver
            assert cache.stats()["evaluation_hits"] == 3
            assert cache.stats()["evaluation_misses"] == 0


#: In-flight rewrites of one sender's bidding records: name ->
#: ``(record, field, element slot or None, replacement)``.
MALFORMED = {
    "q_vector as a list": ("commitments", "q_vector", None, "list"),
    "q_vector[0] None": ("commitments", "q_vector", 0, None),
    "q_vector[0] str": ("commitments", "q_vector", 0, "s"),
    "q_vector[0] list": ("commitments", "q_vector", 0, [1]),
    "q_vector[0] float": ("commitments", "q_vector", 0, 1.5),
    "q_vector[0] bool": ("commitments", "q_vector", 0, True),
    "e_value None": ("share_bundle", "e_value", None, None),
    "e_value str": ("share_bundle", "e_value", None, "s"),
    "e_value list": ("share_bundle", "e_value", None, [1]),
    "e_value float": ("share_bundle", "e_value", None, 1.5),
    # The other vectors and a later value: the equations before a
    # malformed vector stay charged.
    "o_vector[2] None": ("commitments", "o_vector", 2, None),
    "r_vector[0] str": ("commitments", "r_vector", 0, "s"),
    "r_vector as a list": ("commitments", "r_vector", None, "list"),
    "h_value bool": ("share_bundle", "h_value", None, True),
}


def _rewrite(record, field, slot, replacement):
    """``record`` with ``field`` (or its element ``slot``) replaced."""
    value = getattr(record, field)
    if replacement == "list" and slot is None:
        value = list(value)
    elif slot is None:
        value = replacement
    else:
        value = value[:slot] + (replacement,) + value[slot + 1:]
    return record._replace(**{field: value})


class TestMalformedContents:
    """A bundle value that is not an int, or a vector that is not a tuple
    of ints, fails the share check; the pass and the listing agree on the
    verdict and on what was charged."""

    @pytest.mark.parametrize("name", list(MALFORMED))
    def test_rejected_like_the_listing(self, params5, setup, name):
        kind, field, slot, replacement = MALFORMED[name]
        _, packages, bundles = setup
        commitments = packages[1].commitments
        bundle = bundles[1][4]
        if kind == "commitments":
            commitments = _rewrite(commitments, field, slot, replacement)
        else:
            bundle = _rewrite(bundle, field, slot, replacement)
        alpha = params5.pseudonyms[4]
        verdicts = []
        for naive, cache in ((True, None), (False, None),
                             (False, PublicValueCache())):
            counter = OperationCounter()
            with contextlib.ExitStack() as stack:
                if naive:
                    stack.enter_context(naive_mode())
                valid = verify_share_bundle(params5, commitments, alpha,
                                            bundle, counter, cache)
            verdicts.append((valid, counter.snapshot()))
        assert verdicts[0][0] is False
        assert verdicts == [verdicts[0]] * 3

    @pytest.mark.parametrize("name", list(MALFORMED))
    def test_rejected_uncharged_when_batched(self, params5, setup, name):
        """The batched path rejects every rewrite before the combination
        touches it, with and without a cache, and charges nothing; the
        honest records still pass."""
        kind, field, slot, replacement = MALFORMED[name]
        _, packages, bundles = setup
        commitments = packages[1].commitments
        bundle = bundles[1][4]
        batched = DMWParameters.generate(
            5, fault_bound=1, group_parameters=params5.group_parameters,
            share_verification_mode="batched")
        alpha = params5.pseudonyms[4]
        assert verify_share_bundle(batched, commitments, alpha, bundle,
                                   rng=random.Random(4))
        if kind == "commitments":
            commitments = _rewrite(commitments, field, slot, replacement)
        else:
            bundle = _rewrite(bundle, field, slot, replacement)
        for cache in (None, PublicValueCache()):
            counter = OperationCounter()
            assert verify_share_bundle(batched, commitments, alpha, bundle,
                                       counter, cache,
                                       rng=random.Random(4)) is False
            assert counter.snapshot() == OperationCounter().snapshot()


class TestLambdaPsiPassMatchesReference:
    """Eqs. (11) and (15) walk the ``Q`` vectors once and charge once:
    verdicts, counters and cache statistics equal the listing's."""

    @pytest.mark.parametrize("group_size", ["tiny", "small", "large"])
    @pytest.mark.parametrize("exclude", [None, 2])
    def test_verdicts_counters_and_cache_stats(self, group_size, exclude):
        parameters = _parameters(group_size)
        rng = random.Random("eq11-" + group_size)
        packages = [encode_bid(parameters, bid, rng)
                    for bid in (1, 3, 2, 2, 1)]
        commitments = [package.commitments for package in packages]
        group_parameters = parameters.group_parameters
        alpha = parameters.pseudonyms[1]
        included = [k for k in range(5) if k != exclude]
        honest = (group_parameters.exp_z1(
                      sum(packages[k].e.evaluate(alpha) for k in included)),
                  group_parameters.exp_z2(
                      sum(packages[k].h.evaluate(alpha) for k in included)))
        p = parameters.group.p
        cases = [("honest", commitments, honest, True),
                 ("lambda*z1", commitments,
                  (honest[0] * parameters.z1 % p, honest[1]), False),
                 ("psi*z2", commitments,
                  (honest[0], honest[1] * parameters.z2 % p), False)]
        for label, (vector, same) in _variants(
                parameters, commitments[3].q_vector).items():
            changed = list(commitments)
            changed[3] = changed[3]._replace(q_vector=vector)
            cases.append(("q_vector" + label, changed, honest, same))
        warm = _warm_cache(parameters, [c.q_vector for c in commitments],
                           alpha)
        for name, vectors, (lambda_value, psi_value), honest_case in cases:
            reference = OperationCounter()
            with naive_mode():
                valid = verify_lambda_psi(parameters, vectors, alpha,
                                          lambda_value, psi_value,
                                          exclude=exclude, counter=reference)
            assert valid is honest_case, name
            for kind in ("none", "fresh", "warm"):
                cache = _cache(kind, warm)
                counter = RecordingCounter()
                assert verify_lambda_psi(
                    parameters, vectors, alpha, lambda_value, psi_value,
                    exclude=exclude, counter=counter,
                    cache=cache) is valid, (name, kind)
                assert counter.snapshot() == reference.snapshot(), (name,
                                                                    kind)
                assert counter.calls == ONE_CHARGE, (name, kind)
                if cache is not None:
                    assert cache.stats() == _expected_stats(
                        parameters, kind, warm,
                        [vectors[k].q_vector for k in included],
                        alpha), (name, kind)


class TestDisclosurePassMatchesReference:
    """Eq. (13) walks the ``R`` vectors once beside the published-openings
    memo and charges once, stopping at the first pair that fails."""

    @pytest.mark.parametrize("group_size", ["tiny", "small", "large"])
    def test_verdicts_counters_and_cache_stats(self, group_size):
        parameters = _parameters(group_size)
        rng = random.Random("eq13-" + group_size)
        packages = [encode_bid(parameters, bid, rng)
                    for bid in (1, 3, 2, 2, 1)]
        commitments = [package.commitments for package in packages]
        discloser = 1
        alpha = parameters.pseudonyms[discloser]
        row = {sender: (package.f.evaluate(alpha), package.h.evaluate(alpha))
               for sender, package in enumerate(packages)}
        q = parameters.group.q
        cases = [("honest", commitments, row, True),
                 ("f+q", commitments, {**row, 3: (row[3][0] + q, row[3][1])},
                  True),
                 ("f+1", commitments, {**row, 3: (row[3][0] + 1, row[3][1])},
                  False),
                 ("h-1", commitments, {**row, 0: (row[0][0], row[0][1] - 1)},
                  False)]
        for label, (vector, same) in _variants(
                parameters, commitments[2].r_vector).items():
            changed = list(commitments)
            changed[2] = changed[2]._replace(r_vector=vector)
            cases.append(("r_vector" + label, changed, row, same))
        warm = _warm_cache(parameters, [c.r_vector for c in commitments],
                           alpha)
        group_parameters = parameters.group_parameters
        for name, vectors, disclosed, honest in cases:
            reference = OperationCounter()
            with naive_mode():
                valid = verify_f_disclosure(parameters, vectors, alpha,
                                            disclosed, reference)
            assert valid is honest, name
            reached = []
            for index, commitment in enumerate(vectors):
                reached.append(index)
                if not _opens(parameters, commitment.r_vector, alpha,
                              *disclosed[index]):
                    break
            for kind in ("none", "fresh", "warm"):
                cache = _cache(kind, warm)
                counter = RecordingCounter()
                assert verify_f_disclosure(parameters, vectors, alpha,
                                           disclosed, counter,
                                           cache) is valid, (name, kind)
                assert counter.snapshot() == reference.snapshot(), (name,
                                                                    kind)
                assert counter.calls == ONE_CHARGE, (name, kind)
                if cache is None:
                    continue
                assert cache.stats() == _expected_stats(
                    parameters, kind, warm,
                    [vectors[k].r_vector for k in reached],
                    alpha), (name, kind)
                # The memo holds exactly the openings of the pairs reached.
                assert set(cache._openings) == {
                    (parameters.group.p, group_parameters.z1,
                     group_parameters.z2, disclosed[k][0] % q,
                     disclosed[k][1] % q) for k in reached}, (name, kind)

    def test_incomplete_row_charges_nothing(self, params5, setup):
        _, packages, bundles = setup
        counter = RecordingCounter()
        assert not verify_f_disclosure(
            params5, [p.commitments for p in packages],
            params5.pseudonyms[1],
            {0: (bundles[0][1].f_value, bundles[0][1].h_value)}, counter)
        assert counter.calls == []


class TestPublishedOpenings:
    """Eq. (13) openings of published pairs are memoised per execution."""

    def row(self, bundles, discloser):
        return {sender: (bundles[sender][discloser].f_value,
                         bundles[sender][discloser].h_value)
                for sender in range(len(bundles))}

    def test_hit_charges_what_a_miss_charges(self, params5, setup):
        _, packages, bundles = setup
        commitments = [package.commitments for package in packages]
        discloser = 3
        alpha = params5.pseudonyms[discloser]
        row = self.row(bundles, discloser)
        reference = OperationCounter()
        with naive_mode():
            assert verify_f_disclosure(params5, commitments, alpha, row,
                                       reference)
        cache = PublicValueCache()
        snapshots = []
        for _ in range(2):  # miss, then hit
            counter = OperationCounter()
            assert verify_f_disclosure(params5, commitments, alpha, row,
                                       counter, cache)
            snapshots.append(counter.snapshot())
        assert snapshots == [reference.snapshot()] * 2
        # The openings slot stays out of the stats.
        evaluations_only = PublicValueCache()
        for _ in range(2):
            for vector in commitments:
                evaluate_commitment(params5.group_parameters,
                                    vector.r_vector, alpha,
                                    OperationCounter(), evaluations_only)
        assert cache.stats() == evaluations_only.stats()

    def test_memo_keeps_a_tampered_row_invalid(self, params5, setup):
        _, packages, bundles = setup
        commitments = [package.commitments for package in packages]
        discloser = 1
        alpha = params5.pseudonyms[discloser]
        cache = PublicValueCache()
        row = self.row(bundles, discloser)
        assert verify_f_disclosure(params5, commitments, alpha, row,
                                   cache=cache)
        f_value, h_value = row[3]
        row[3] = (f_value + 1, h_value)
        assert not verify_f_disclosure(params5, commitments, alpha, row,
                                       cache=cache)
        row[3] = (f_value + params5.group.q, h_value)
        assert verify_f_disclosure(params5, commitments, alpha, row,
                                   cache=cache)

    def test_share_checks_leave_the_slot_empty(self, params5):
        """Share-check openings have private arguments and never enter
        the memo."""
        times = [[1], [3], [2], [2], [1]]
        agents = [DMWAgent(index, params5, times[index],
                           rng=random.Random(index)) for index in range(5)]
        cache = PublicValueCache()
        for agent in agents:
            agent.adopt_cache(cache)
        for sender, agent in enumerate(agents):
            commitments, bundles = agent.begin_task(0)
            for receiver in agents:
                receiver.receive_commitments(0, sender, commitments)
                if receiver.index != sender:
                    receiver.receive_bundle(0, sender,
                                            bundles[receiver.index])
        for agent in agents:
            assert agent.check_shares(0) is None
        assert cache.stats()["evaluations"] > 0
        assert not cache._openings
