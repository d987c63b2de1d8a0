"""Phase III verification checks (eqs. (7)-(9), (11), (13) and (15)).

Every check here is something *any* agent can compute from public
commitments plus the values it received or that were published — the
protocol's entire security rests on honest agents running these and
terminating on failure.

Because the inputs are public, the derived quantities (``Gamma_{i,k}``,
``Phi_{i,k}``, commitment evaluations) are identical for every verifier.
Each check therefore accepts an optional per-execution
:class:`~repro.crypto.fastexp.PublicValueCache` so the ``O(n^2)``
verification loops compute each public value exactly once per execution;
the *counted* cost charged to each agent's
:class:`~repro.crypto.modular.OperationCounter` is the paper's analytic
schedule regardless (cache hits replay it), keeping Theorem 12 accounting
exact.  See ``docs/PERFORMANCE.md``.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..crypto import fastexp
from ..crypto.commitments import (PolynomialCommitment, evaluate_commitment,
                                  evaluation_walk, only_ints,
                                  verify_share_batch)
from ..crypto.fastexp import PublicValueCache
from ..crypto.groups import GroupParameters
from ..crypto.modular import NULL_COUNTER, OperationCounter, exp_work
from .bidding import AgentCommitments, ShareBundle
from .parameters import DMWParameters


class CheckStats:
    """Pass/fail tallies of verification-equation evaluations.

    One instance per verifier (each :class:`~repro.core.agent.DMWAgent`
    and the :class:`~repro.core.audit.TranscriptAuditor` own one); the
    observability layer exports the tallies as
    ``dmw_verification_checks_total{agent=..., equation=..., result=...}``.
    Recording is two dict operations per verification — it never touches
    the :class:`~repro.crypto.modular.OperationCounter` accounting.

    Equation names: ``share_bundle`` (eqs. 7-9), ``lambda_psi`` (eq. 11
    and its eq.-15 excluding variant), ``f_disclosure`` (eq. 13).
    """

    __slots__ = ("_counts",)

    def __init__(self) -> None:
        self._counts: dict = {}

    def record(self, equation: str, passed: bool) -> None:
        key = (equation, bool(passed))
        self._counts[key] = self._counts.get(key, 0) + 1

    def items(self) -> List[Tuple[Tuple[str, bool], int]]:
        """Sorted ``((equation, passed), count)`` pairs."""
        return sorted(self._counts.items())

    def __iter__(self) -> Iterator[Tuple[Tuple[str, bool], int]]:
        return iter(self.items())

    def total(self, equation: Optional[str] = None,
              passed: Optional[bool] = None) -> int:
        """Total checks, optionally filtered by equation and/or verdict."""
        return sum(count for (eq, ok), count in self._counts.items()
                   if (equation is None or eq == equation)
                   and (passed is None or ok == passed))

    def as_dict(self) -> Dict[str, int]:
        """Flat ``{"equation:pass|fail": count}`` summary (JSON-friendly)."""
        return {"%s:%s" % (eq, "pass" if ok else "fail"): count
                for (eq, ok), count in self.items()}

    def merge(self, entries: Sequence[Tuple[Tuple[str, bool], int]]) -> None:
        """Fold :meth:`items`-shaped tallies into this instance.

        Used by the process-pool driver (:mod:`repro.parallel`) to fold
        each shard's verification tallies back into the parent agents so
        the merged observability export matches the sequential driver.
        """
        for (equation, passed), count in entries:
            key = (equation, bool(passed))
            self._counts[key] = self._counts.get(key, 0) + count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "CheckStats(%r)" % (self.as_dict(),)


def verify_share_bundle(parameters: DMWParameters,
                        commitments: AgentCommitments,
                        pseudonym: int,
                        bundle: ShareBundle,
                        counter: OperationCounter = NULL_COUNTER,
                        cache: Optional[PublicValueCache] = None,
                        stats: Optional[CheckStats] = None,
                        rng: Optional[random.Random] = None) -> bool:
    """Step III.1: check a received bundle against public commitments.

    Verifies, at the receiver's pseudonym ``alpha``:

    * eq. (7): ``z1^{e(a) f(a)} z2^{g(a)} = prod O_l^{a^l}``
      (the product polynomial has degree at most ``sigma`` and zero
      constant/linear terms — this binds ``deg e + deg f = sigma``);
    * eq. (8): ``z1^{e(a)} z2^{h(a)} = prod Q_l^{a^l}``;
    * eq. (9): ``z1^{f(a)} z2^{h(a)} = prod R_l^{a^l}``.

    The equations are checked in that order, stopping at the first
    failure.  A bundle value that is not an ``int`` fails the check; a
    vector that is not a tuple of ints fails its equation uncharged (the
    whole check, on the batched path).

    The per-share path is one pass with one charge, what the literal
    listing (:func:`~repro.crypto.fastexp.naive_mode`) charges up to the
    same failure: one walk over the generator tables builds every
    left-hand side, and :func:`~repro.crypto.commitments.evaluation_walk`
    evaluates ``O``, ``Q`` and ``R``.  Eq. (9) is derived from eq. (8):
    ``z1`` has order ``q``, so once ``Q(a) = z1^e z2^h``, ``z1^f z2^h ==
    R(a)`` exactly when ``z1^((f - e) mod q) * Q(a) == R(a)``.

    When ``parameters.share_verification_mode == "batched"`` and an
    ``rng`` is supplied, the three equations are folded into one
    random-linear-combination multi-exponentiation
    (:func:`~repro.crypto.commitments.verify_share_batch`): same counted
    cost, same verdicts up to a ``1/q`` soundness error, one combined
    Straus chain instead of three openings plus three evaluations.  Both
    fast paths defer to the listing under ``naive_mode``.
    """
    group_parameters = parameters.group_parameters
    if not only_ints(bundle):
        valid = False
    elif not fastexp.enabled():
        valid = _share_listing(group_parameters, commitments, pseudonym,
                               bundle, counter)
    elif (parameters.share_verification_mode == "batched"
            and rng is not None):
        # A vector that is not a tuple of ints fails uncharged, as on the
        # per-share path, before the combination touches it.
        valid = (all(type(vector) is tuple and only_ints(vector)
                     for vector in commitments)
                 and _share_batch(group_parameters, commitments, pseudonym,
                                  bundle, rng, counter, cache))
    else:
        valid = _share_pass(group_parameters, commitments, pseudonym,
                            bundle, counter, cache)
    if stats is not None:
        stats.record("share_bundle", valid)
    return valid


def _share_batch(group_parameters: GroupParameters,
                 commitments: AgentCommitments, pseudonym: int,
                 bundle: ShareBundle, rng: random.Random,
                 counter: OperationCounter,
                 cache: Optional[PublicValueCache]) -> bool:
    """Eqs. (7)-(9) folded into one random linear combination (see
    :func:`verify_share_bundle`)."""
    q = group_parameters.group.q
    coefficients = [rng.randrange(1, q) for _ in range(3)]
    product_value = (bundle.e_value * bundle.f_value) % q
    return verify_share_batch(
        [PolynomialCommitment(group_parameters, vector)
         for vector in commitments],
        pseudonym,
        [(product_value, bundle.g_value),
         (bundle.e_value, bundle.h_value),
         (bundle.f_value, bundle.h_value)],
        coefficients, counter, cache,
    )


def _share_listing(group_parameters: GroupParameters,
                   commitments: AgentCommitments, pseudonym: int,
                   bundle: ShareBundle, counter: OperationCounter) -> bool:
    """Eqs. (7), (8) and (9) as the paper lists them, one after another."""
    e_value, f_value, g_value, h_value = bundle
    q = group_parameters.group.q
    openings = (((e_value * f_value) % q, g_value), (e_value, h_value),
                (f_value, h_value))
    for (value, blinding), vector in zip(openings, commitments):
        if not (type(vector) is tuple and only_ints(vector)):
            return False
        if (group_parameters.open_value(value, blinding, counter)
                != evaluate_commitment(group_parameters, vector, pseudonym,
                                       counter)):
            return False
    return True


def _share_pass(group_parameters: GroupParameters,
                commitments: AgentCommitments, pseudonym: int,
                bundle: ShareBundle, counter: OperationCounter,
                cache: Optional[PublicValueCache]) -> bool:
    """Eqs. (7)-(9) in one pass with one charge (see
    :func:`verify_share_bundle`)."""
    group = group_parameters.group
    q = group.q
    e_value, f_value, g_value, h_value = (
        bundle.e_value % q, bundle.f_value % q, bundle.g_value % q,
        bundle.h_value % q)
    product = e_value * f_value % q
    o_side, q_side, shift = group_parameters.opening_walk(
        product, g_value, e_value, h_value, (f_value - e_value) % q)
    left_sides = (o_side, q_side, shift * q_side % group.p)
    h_work = exp_work(h_value)
    opening_works = (exp_work(product) + exp_work(g_value),
                     exp_work(e_value) + h_work, exp_work(f_value) + h_work)
    exps = work = muls = 0
    valid = False
    for left, opening_work, entry in zip(
            left_sides, opening_works,
            evaluation_walk(group_parameters, commitments, pseudonym, cache)):
        if entry is None:
            break
        right, count, schedule = entry
        # The opening's two exps and one mul, then the evaluation's.
        exps += count + 2
        work += schedule + opening_work
        muls += count + 1
        if left != right:
            break
    else:
        valid = True
    counter.count_exp_batch(exps, work)
    counter.count_mul(muls)
    return valid


def gamma_value(parameters: DMWParameters, commitments: AgentCommitments,
                pseudonym: int,
                counter: OperationCounter = NULL_COUNTER,
                cache: Optional[PublicValueCache] = None) -> int:
    """Return ``Gamma_{i,k} = prod_l Q_{k,l}^{alpha_i^l}``.

    Publicly computable; equals ``z1^{e_k(alpha_i)} z2^{h_k(alpha_i)}``
    when agent ``k`` is honest.
    """
    return evaluate_commitment(parameters.group_parameters,
                               commitments.q_vector, pseudonym, counter, cache)


def phi_value(parameters: DMWParameters, commitments: AgentCommitments,
              pseudonym: int,
              counter: OperationCounter = NULL_COUNTER,
              cache: Optional[PublicValueCache] = None) -> int:
    """Return ``Phi_{i,k} = prod_l R_{k,l}^{alpha_i^l}``.

    Publicly computable; equals ``z1^{f_k(alpha_i)} z2^{h_k(alpha_i)}``
    when agent ``k`` is honest.
    """
    return evaluate_commitment(parameters.group_parameters,
                               commitments.r_vector, pseudonym, counter, cache)


def verify_lambda_psi(parameters: DMWParameters,
                      all_commitments: Sequence[AgentCommitments],
                      publisher_pseudonym: int,
                      lambda_value: int,
                      psi_value_: int,
                      exclude: Optional[int] = None,
                      counter: OperationCounter = NULL_COUNTER,
                      cache: Optional[PublicValueCache] = None,
                      stats: Optional[CheckStats] = None) -> bool:
    """Eq. (11) (and its eq.-(15) excluding variant).

    Checks ``prod_k Gamma_{i,k} = Lambda_i * Psi_i`` at the publisher's
    pseudonym ``alpha_i``, where the product runs over all agents except
    ``exclude`` (used for the second-price values, which divide the winner
    out of the aggregates).

    The fast path is one :func:`~repro.crypto.commitments.evaluation_walk`
    over the ``Q`` vectors, multiplied in place, charged once as the
    listing charges: a ``Gamma`` evaluation (:func:`gamma_value`) and a
    multiplication per included agent, plus ``Lambda_i * Psi_i``.
    """
    group_parameters = parameters.group_parameters
    modulus = parameters.group.p
    vectors = [commitments.q_vector
               for index, commitments in enumerate(all_commitments)
               if index != exclude]
    product = 1
    well_formed = True
    if fastexp.enabled():
        exps = work = 0
        for entry in evaluation_walk(group_parameters, vectors,
                                     publisher_pseudonym, cache):
            if entry is None:
                well_formed = False
                break
            gamma, count, schedule = entry
            product = product * gamma % modulus
            exps += count
            work += schedule
        counter.count_exp_batch(exps, work)
        counter.count_mul(exps + len(vectors) + 1)
    else:
        for vector in vectors:
            product = product * evaluate_commitment(
                group_parameters, vector, publisher_pseudonym,
                counter) % modulus
        counter.count_mul(len(vectors) + 1)
    valid = well_formed and product == lambda_value * psi_value_ % modulus
    if stats is not None:
        stats.record("lambda_psi", valid)
    return valid


def verify_f_disclosure(parameters: DMWParameters,
                        all_commitments: Sequence[AgentCommitments],
                        discloser_pseudonym: int,
                        disclosed: Dict[int, Tuple[int, int]],
                        counter: OperationCounter = NULL_COUNTER,
                        cache: Optional[PublicValueCache] = None,
                        stats: Optional[CheckStats] = None) -> bool:
    """Verify one agent's winner-identification disclosure (eq. (13)).

    ``disclosed`` maps each agent index ``l`` to the pair
    ``(f_l(alpha_k), h_l(alpha_k))`` the discloser ``A_k`` claims to hold.
    Each pair must open ``Phi_{k,l}`` (:func:`phi_value`), checked in
    index order up to the first that does not; a complete and valid row
    lets anyone run plain degree resolution on every ``f_l``.
    """
    if set(disclosed) != set(range(len(all_commitments))):
        valid = False
    elif fastexp.enabled():
        valid = _disclosure_pass(parameters.group_parameters,
                                 all_commitments, discloser_pseudonym,
                                 disclosed, counter, cache)
    else:
        valid = all(
            parameters.group_parameters.open_value(*disclosed[index],
                                                   counter)
            == phi_value(parameters, commitments, discloser_pseudonym,
                         counter)
            for index, commitments in enumerate(all_commitments))
    if stats is not None:
        stats.record("f_disclosure", valid)
    return valid


def _disclosure_pass(group_parameters: GroupParameters,
                     all_commitments: Sequence[AgentCommitments],
                     discloser_pseudonym: int,
                     disclosed: Dict[int, Tuple[int, int]],
                     counter: OperationCounter,
                     cache: Optional[PublicValueCache]) -> bool:
    """Eq. (13) in one walk over the ``R`` vectors, each beside its
    disclosed opening, charged once as the listing charges up to the first
    pair that fails.  Every verifier opens the same published pairs, so a
    cache memoises each opening for the execution, keyed ``(p, z1, z2, f
    mod q, h mod q)``; private share openings never come here.
    """
    group = group_parameters.group
    q = group.q
    key_prefix = (group.p, group_parameters.z1, group_parameters.z2)
    exps = work = muls = 0
    valid = False
    r_vectors = (commitments.r_vector for commitments in all_commitments)
    for index, entry in enumerate(evaluation_walk(
            group_parameters, r_vectors, discloser_pseudonym, cache)):
        if entry is None:
            break
        phi, count, schedule = entry
        f_value, h_value = disclosed[index]
        f_value %= q
        h_value %= q
        exps += count + 2
        work += schedule + exp_work(f_value) + exp_work(h_value)
        muls += count + 1
        key = key_prefix + (f_value, h_value)
        opened = None if cache is None else cache.get_opening(key)
        if opened is None:  # opened uncharged: the pass charges below
            opened = group_parameters.open_value(f_value, h_value,
                                                 NULL_COUNTER)
            if cache is not None:
                cache.put_opening(key, opened)
        if opened != phi:
            break
    else:
        valid = True
    counter.count_exp_batch(exps, work)
    counter.count_mul(muls)
    return valid
