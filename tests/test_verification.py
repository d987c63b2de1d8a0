"""Unit tests for repro.core.verification (eqs. (7)-(9), (11), (13))."""

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


class TestShareBundleMatchesReference:
    """The per-share path derives eq. (9) from eq. (8); every verdict and
    every counter snapshot equals the literal listing's (``naive_mode``),
    with and without a cache, including values outside ``[0, q)``."""

    def cases(self, parameters, packages, bundles):
        sender, receiver = 0, 2
        commitments = packages[sender].commitments
        bundle = bundles[sender][receiver]
        q, p, z1 = parameters.group.q, parameters.group.p, parameters.z1
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
            vector = _perturbed(getattr(commitments, name), 1, z1, p)
            yield (name + "*z1",
                   commitments._replace(**{name: vector}),
                   bundle, False)
        # R-only: O and Q still open, only eq. (9) fails.
        yield ("r_vector of another agent",
               commitments._replace(
                   r_vector=packages[sender + 1].commitments.r_vector),
               bundle, False)

    def verdict(self, parameters, commitments, pseudonym, bundle, naive,
                cache):
        counter = OperationCounter()
        if naive:
            with naive_mode():
                valid = verify_share_bundle(parameters, commitments,
                                            pseudonym, bundle, counter, cache)
        else:
            valid = verify_share_bundle(parameters, commitments, pseudonym,
                                        bundle, counter, cache)
        return valid, counter.snapshot()

    @pytest.mark.parametrize("group_size", ["small", "large"])
    def test_verdicts_and_counters(self, group_size):
        parameters = DMWParameters.generate(
            5, fault_bound=1, group_parameters=fixture_group(group_size))
        rng = random.Random("eq9-from-eq8-" + group_size)
        packages = [encode_bid(parameters, bid, rng) for bid in (1, 3, 2)]
        bundles = [all_share_bundles(parameters, package)
                   for package in packages]
        pseudonym = parameters.pseudonyms[2]
        r_only = 0
        for name, commitments, bundle, honest in self.cases(
                parameters, packages, bundles):
            reference = self.verdict(parameters, commitments, pseudonym,
                                     bundle, naive=True, cache=None)
            assert reference[0] is honest, name
            for cache in (None, PublicValueCache()):
                assert self.verdict(parameters, commitments, pseudonym,
                                    bundle, naive=False,
                                    cache=cache) == reference, name
            q_opens = _opens(parameters, commitments.q_vector, pseudonym,
                             bundle.e_value, bundle.h_value)
            o_opens = _opens(parameters, commitments.o_vector, pseudonym,
                             bundle.e_value * bundle.f_value,
                             bundle.g_value)
            if o_opens and q_opens and not honest:
                r_only += 1
        assert r_only == 2  # r_vector*z1 and the foreign r_vector


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
