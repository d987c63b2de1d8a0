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
                                  verify_share_batch)
from ..crypto.fastexp import PublicValueCache
from ..crypto.groups import GroupParameters
from ..crypto.modular import NULL_COUNTER, OperationCounter
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

    When ``parameters.share_verification_mode == "batched"`` and an
    ``rng`` is supplied, the three equations are folded into one
    random-linear-combination multi-exponentiation
    (:func:`~repro.crypto.commitments.verify_share_batch`): same counted
    cost, same verdicts up to a ``1/q`` soundness error, one combined
    Straus chain instead of three openings plus three evaluations.  The
    batched path is an execution fast path, so it defers to the
    per-share listing under :func:`~repro.crypto.fastexp.naive_mode`.

    The per-share path checks the equations in that order and stops at the
    first failure; eq. (9) is derived from eq. (8) (see
    :func:`_verify_q_then_r`).
    """
    group_parameters = parameters.group_parameters
    q = parameters.group.q
    product_value = (bundle.e_value * bundle.f_value) % q
    if (parameters.share_verification_mode == "batched"
            and rng is not None and fastexp.enabled()):
        coefficients = [rng.randrange(1, q) for _ in range(3)]
        valid = verify_share_batch(
            [PolynomialCommitment(group_parameters, vector)
             for vector in commitments],
            pseudonym,
            [(product_value, bundle.g_value),
             (bundle.e_value, bundle.h_value),
             (bundle.f_value, bundle.h_value)],
            coefficients, counter, cache,
        )
    else:
        valid = (
            group_parameters.open_value(product_value, bundle.g_value,
                                        counter)
            == evaluate_commitment(group_parameters, commitments.o_vector,
                                   pseudonym, counter, cache)
            and _verify_q_then_r(group_parameters, commitments, pseudonym,
                                 bundle, counter, cache)
        )
    if stats is not None:
        stats.record("share_bundle", valid)
    return valid


def _verify_q_then_r(group_parameters: GroupParameters,
                     commitments: AgentCommitments, pseudonym: int,
                     bundle: ShareBundle, counter: OperationCounter,
                     cache: Optional[PublicValueCache]) -> bool:
    """Eqs. (8) and (9) in that order, the second derived from the first.

    Once eq. (8) holds, ``Q(a) = z1^e z2^h``; ``z1`` has order ``q``, so
    eq. (9) ``z1^f z2^h == R(a)`` holds exactly when
    ``z1^((f - e) mod q) * Q(a) == R(a)``, for any ``R(a)`` and any share
    values.  One ``z1`` table walk then replaces the ``R`` opening, whose
    schedule is still charged, and only when eq. (8) passes, as the
    literal listing (``naive_mode``) charges it.
    """
    q_vector, r_vector = commitments.q_vector, commitments.r_vector
    open_value = group_parameters.open_value
    if not fastexp.enabled():
        return (open_value(bundle.e_value, bundle.h_value, counter)
                == evaluate_commitment(group_parameters, q_vector, pseudonym,
                                       counter, cache)
                and open_value(bundle.f_value, bundle.h_value, counter)
                == evaluate_commitment(group_parameters, r_vector, pseudonym,
                                       counter, cache))
    group = group_parameters.group
    q_at = evaluate_commitment(group_parameters, q_vector, pseudonym, counter,
                               cache)
    if open_value(bundle.e_value, bundle.h_value, counter) != q_at:
        return False
    group_parameters.charge_opening(bundle.f_value, bundle.h_value, counter)
    r_at = evaluate_commitment(group_parameters, r_vector, pseudonym, counter,
                               cache)
    shift = group_parameters.generator_tables[0].pow(
        (bundle.f_value - bundle.e_value) % group.q)
    return shift * q_at % group.p == r_at


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
    """
    group_parameters = parameters.group_parameters
    modulus = parameters.group.p
    product = 1
    terms = 0
    for index, commitments in enumerate(all_commitments):
        if index == exclude:
            continue
        # Gamma_{i,k} (gamma_value), multiplied in place.
        gamma = evaluate_commitment(group_parameters, commitments.q_vector,
                                    publisher_pseudonym, counter, cache)
        product = product * gamma % modulus
        terms += 1
    # One multiplication per Gamma term plus Lambda_i * Psi_i.
    counter.count_mul(terms + 1)
    valid = product == lambda_value * psi_value_ % modulus
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
    Each pair must open ``Phi_{k,l}``; a complete and valid row lets anyone
    run plain degree resolution on every ``f_l``.
    """
    valid = _f_disclosure_consistent(parameters, all_commitments,
                                     discloser_pseudonym, disclosed,
                                     counter, cache)
    if stats is not None:
        stats.record("f_disclosure", valid)
    return valid


def _f_disclosure_consistent(parameters: DMWParameters,
                             all_commitments: Sequence[AgentCommitments],
                             discloser_pseudonym: int,
                             disclosed: Dict[int, Tuple[int, int]],
                             counter: OperationCounter,
                             cache: Optional[PublicValueCache]) -> bool:
    if set(disclosed) != set(range(len(all_commitments))):
        return False
    group_parameters = parameters.group_parameters
    for index, commitments in enumerate(all_commitments):
        f_value, h_value = disclosed[index]
        expected = phi_value(parameters, commitments, discloser_pseudonym,
                             counter, cache)
        opened = _open_published(group_parameters, f_value, h_value,
                                 counter, cache)
        if opened != expected:
            return False
    return True


def _open_published(group_parameters: GroupParameters, value: int,
                    blinding: int, counter: OperationCounter,
                    cache: Optional[PublicValueCache]) -> int:
    """Open one disclosed eq. (13) pair, once per execution.

    Every assigned verifier, and the auditor, opens the same published
    pairs, so with a cache each opening is memoised by content and its
    counted schedule replayed on a hit.  Share-check openings never come
    here: their arguments are private.
    """
    if cache is None or not fastexp.enabled():
        return group_parameters.open_value(value, blinding, counter)
    group = group_parameters.group
    key = (group.p, group_parameters.z1, group_parameters.z2,
           value % group.q, blinding % group.q)
    opened = cache.get_opening(key)
    if opened is None:
        opened = group_parameters.open_value(value, blinding, counter)
        cache.put_opening(key, opened)
    else:
        group_parameters.charge_opening(value, blinding, counter)
    return opened
