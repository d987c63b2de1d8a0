"""Pedersen-style commitments over a Schnorr group.

DMW binds each agent to its secret polynomials with commitment *vectors*
(one group element per coefficient slot up to ``sigma``):

* ``O_i`` commits to the coefficients of the product ``e_i * f_i`` blinded
  by ``g_i``'s coefficients,
* ``Q_i`` commits to ``e_i``'s coefficients blinded by ``h_i``'s,
* ``R_i`` commits to ``f_i``'s coefficients blinded by ``h_i``'s.

Because commitments are multiplicatively homomorphic, a verifier can check a
received *share* against the public vector without learning anything else:

``prod_l C_l^(alpha^l) = z1^{value(alpha)} z2^{blinding(alpha)}``

(eqs. (7)-(9) of the paper).  This module provides the single-value
commitment, the coefficient-vector commitment, and the homomorphic
evaluation used by those checks (:func:`evaluate_commitment`, which takes a
vector's bare elements and the verifier's own group parameters).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, NamedTuple, Optional, Sequence, Tuple

from . import fastexp
from .fastexp import PublicValueCache, multi_exp
from .groups import GroupParameters
from .modular import NULL_COUNTER, OperationCounter
from .polynomials import Polynomial


@lru_cache(maxsize=4096)
def _horner_schedule(order: int, point: int, size: int) -> int:
    """Counted work of the exponents ``point^1 .. point^size mod order``.

    The summed square-and-multiply schedules that
    :func:`evaluate_commitment` charges for a ``size``-slot
    vector at ``point`` (``0 <= point < order``), i.e. what ``size``
    :meth:`~repro.crypto.modular.OperationCounter.count_exp` calls would
    add to ``multiplication_work``.  It depends only on public
    parameters, so it is worked out once per ``(order, point, size)``.
    """
    schedule = OperationCounter()
    power = 1
    for _ in range(size):
        power = (power * point) % order
        schedule.count_exp(power)
    return schedule.multiplication_work


@dataclass(frozen=True)
class PedersenCommitter:
    """Commitment scheme ``commit(v, r) = z1^v * z2^r (mod p)``."""

    parameters: GroupParameters

    def commit(self, value: int, blinding: int,
               counter: OperationCounter = NULL_COUNTER) -> int:
        """Commit to ``value`` with blinding factor ``blinding``.

        Execution goes through the generators' fixed-base tables
        (:meth:`~repro.crypto.groups.GroupParameters.open_value`); the
        counted cost is the naive two-exponentiations-plus-multiplication
        schedule either way.
        """
        return self.parameters.open_value(value, blinding, counter)

    def verify(self, commitment: int, value: int, blinding: int,
               counter: OperationCounter = NULL_COUNTER) -> bool:
        """Return True if ``commitment`` opens to ``(value, blinding)``."""
        return commitment == self.commit(value, blinding, counter)

    def commit_polynomial(self, values: Polynomial, blindings: Polynomial,
                          size: int,
                          counter: OperationCounter = NULL_COUNTER
                          ) -> "PolynomialCommitment":
        """Commit to coefficients ``1..size`` of ``values``/``blindings``.

        Coefficient slot ``l`` holds ``z1^{a_l} z2^{r_l}`` where ``a_l`` and
        ``r_l`` are the degree-``l`` coefficients (constant terms are zero by
        protocol construction and are *not* committed — the verification
        equations start the product at ``l = 1``).

        Parameters
        ----------
        size:
            Number of slots (the protocol's ``sigma``); polynomials of lower
            degree are zero-padded, which is what hides their degree.
        """
        value_coefficients, blinding_coefficients = _slot_coefficients(
            size, values, blindings)
        open_value = self.parameters.open_value
        elements = tuple(
            open_value(value_coefficients[l], blinding_coefficients[l],
                       counter)
            for l in range(1, size + 1)
        )
        return PolynomialCommitment(self.parameters, elements)

    def commit_polynomial_pair(self, first: Polynomial, second: Polynomial,
                               blindings: Polynomial, size: int,
                               counter: OperationCounter = NULL_COUNTER
                               ) -> Tuple["PolynomialCommitment",
                                          "PolynomialCommitment"]:
        """Commit ``first`` and ``second`` under the same ``blindings``.

        Equal, in elements and counted cost, to
        ``commit_polynomial(first, blindings, size)`` and
        ``commit_polynomial(second, blindings, size)``; each slot pair is
        one :meth:`~repro.crypto.groups.GroupParameters.open_pair`, which
        walks the shared ``z2`` power once.  ``Q`` and ``R`` are committed
        this way: both are blinded by ``h``.
        """
        first_coefficients, second_coefficients, blinding_coefficients = (
            _slot_coefficients(size, first, second, blindings))
        open_pair = self.parameters.open_pair
        pairs = [open_pair(first_coefficients[l], second_coefficients[l],
                           blinding_coefficients[l], counter)
                 for l in range(1, size + 1)]
        return (
            PolynomialCommitment(self.parameters,
                                 tuple(pair[0] for pair in pairs)),
            PolynomialCommitment(self.parameters,
                                 tuple(pair[1] for pair in pairs)),
        )


def _slot_coefficients(size: int,
                       *polynomials: Polynomial) -> List[List[int]]:
    """Coefficients ``0..size`` of each polynomial (zero-padded).

    Committed polynomials must have zero constant terms: slot 0 is never
    committed, and the verification equations start at ``l = 1``.
    """
    padded = [polynomial.padded_coefficients(size + 1)
              for polynomial in polynomials]
    if any(coefficients[0] != 0 for coefficients in padded):
        raise ValueError("committed polynomials must have zero constant terms")
    return padded


class PolynomialCommitment(NamedTuple):
    """A vector of per-coefficient Pedersen commitments (slots ``1..sigma``).

    The commitment reveals only ``sigma`` (public protocol parameter), never
    the underlying degree, because every slot is blinded.  What
    :class:`PedersenCommitter` returns; only the ``elements`` are
    published (:class:`~repro.core.bidding.AgentCommitments`), and a
    verifier evaluates them under its own parameters
    (:func:`evaluate_commitment`).
    """

    parameters: GroupParameters
    elements: Tuple[int, ...]

    @property
    def size(self) -> int:
        """The number of committed coefficient slots (``sigma``)."""
        return len(self.elements)

    def evaluate(self, point: int,
                 counter: OperationCounter = NULL_COUNTER,
                 cache: Optional[PublicValueCache] = None) -> int:
        """Homomorphically evaluate the committed polynomials at ``point``
        (:func:`evaluate_commitment` under this vector's parameters)."""
        return evaluate_commitment(self.parameters, self.elements, point,
                                   counter, cache)

    def verify_share(self, point: int, value: int, blinding: int,
                     counter: OperationCounter = NULL_COUNTER,
                     cache: Optional[PublicValueCache] = None) -> bool:
        """Check a received share pair against this commitment.

        Verifies ``z1^value * z2^blinding == evaluate(point)`` — i.e. that
        ``value = f(point)`` and ``blinding = r(point)`` for the committed
        ``f`` and blinding polynomial ``r``.
        """
        left = self.parameters.open_value(value, blinding, counter)
        return left == self.evaluate(point, counter, cache)


def evaluate_commitment(parameters: GroupParameters,
                        elements: Tuple[int, ...], point: int,
                        counter: OperationCounter = NULL_COUNTER,
                        cache: Optional[PublicValueCache] = None) -> int:
    """Homomorphically evaluate a committed vector at ``point``.

    ``elements`` are the vector's group elements (slots ``1..sigma``),
    evaluated under ``parameters`` — the verifier's own group, never one
    that arrived with the vector.  Returns ``prod_{l=1}^{sigma}
    C_l^(point^l) = z1^{value(point)} z2^{blinding(point)}`` — the
    right-hand side of eqs. (7)-(9).

    Execution uses Horner in the exponent at the (small) point
    (:func:`~repro.crypto.fastexp.horner_multi_exp`) and, when ``cache``
    is given, a per-execution memo keyed by ``(modulus, elements,
    point)``; the counted cost is the per-term square-and-multiply
    schedule in every case (replayed against ``counter`` on cache hits).
    """
    group = parameters.group
    if not fastexp.enabled():
        result = 1
        power = 1
        for element in elements:
            power = (power * point) % group.q
            result = group.mul(result, group.exp(element, power, counter),
                               counter)
        return result
    q = group.q
    reduced_point = point % q
    key = None
    if cache is not None:
        key = (group.p, elements, reduced_point)
        entry = cache.get_evaluation(key)
        if entry is not None:
            value, exp_count, exp_work = entry
            counter.count_exp_batch(exp_count, exp_work)
            counter.count_mul(exp_count)
            return value
    exp_count = len(elements)
    exp_work = _horner_schedule(q, reduced_point, exp_count)
    counter.count_exp_batch(exp_count, exp_work)
    counter.count_mul(exp_count)
    value = fastexp.horner_multi_exp(elements, reduced_point, q, group.p)
    if key is not None:
        cache.put_evaluation(key, (value, exp_count, exp_work))
    return value


def verify_share_batch(commitments: Sequence[PolynomialCommitment],
                       point: int,
                       openings: Sequence[Tuple[int, int]],
                       coefficients: Sequence[int],
                       counter: OperationCounter = NULL_COUNTER,
                       cache: Optional[PublicValueCache] = None) -> bool:
    """Batch-verify several share openings with one random linear combination.

    Checks, in a single Straus multi-exponentiation, that every
    ``(value_j, blinding_j)`` in ``openings`` opens the matching
    commitment vector at ``point``:

    ``z1^{sum_j c_j v_j} z2^{sum_j c_j b_j}
    prod_j prod_l C_{j,l}^{-c_j point^l} == 1  (mod p)``

    which holds whenever every per-share equation (eqs. (7)-(9)) holds,
    and fails — for uniformly random non-zero ``coefficients`` drawn from
    ``Z_q^*`` — with probability at least ``1 - 1/q`` whenever at least
    one opening is wrong: conditioned on the other terms, a single
    deviating term ``D_j != 1`` would need ``c_j`` to hit the unique
    exponent cancelling the rest.  Callers draw the coefficients from a
    seeded per-agent substream (:meth:`repro.core.agent.DMWAgent`), so
    replays stay deterministic.

    Counting parity: the charged schedule is *exactly* the per-share
    path's — for every opening, two generator exponentiations plus one
    multiplication (the Pedersen opening) and the per-slot
    square-and-multiply evaluation schedule — so honest-run
    :class:`OperationCounter` totals are bit-identical between the
    batched and per-share verification modes.  The execution shortcut
    (one combined multi-exp instead of ``3`` openings and ``3``
    evaluations) is invisible to the counted model, like every other
    fast path in :mod:`repro.crypto.fastexp`.
    """
    if not commitments:
        raise ValueError("need at least one commitment vector")
    if not (len(commitments) == len(openings) == len(coefficients)):
        raise ValueError(
            "commitments, openings, and coefficients must have equal length")
    parameters = commitments[0].parameters
    group = parameters.group
    q = group.q
    reduced_point = point % q
    # Shared powers of the evaluation point (all vectors have width sigma,
    # but tolerate ragged sizes by extending lazily).
    max_size = max(c.size for c in commitments)
    powers: List[int] = []
    power = 1
    for _ in range(max_size):
        power = (power * reduced_point) % q
        powers.append(power)
    for vector, (value, blinding), coefficient in zip(commitments, openings,
                                                      coefficients):
        if coefficient % q == 0:
            raise ValueError("RLC coefficients must be non-zero mod q")
        # Charged schedule of PolynomialCommitment.verify_share: the
        # Pedersen opening (two generator exps + one mul) ...
        counter.count_exp(value % q)
        counter.count_exp(blinding % q)
        counter.count_mul()
        # ... plus the homomorphic evaluation (sigma exps + sigma muls).
        counter.count_exp_batch(vector.size,
                                _horner_schedule(q, reduced_point,
                                                vector.size))
        counter.count_mul(vector.size)
    # Execution: fold everything into one multi-exp over 2 + sum sigma_j
    # bases.  Negated slot exponents are lifted to q - x (the generators
    # have order q).
    value_total = 0
    blinding_total = 0
    bases: List[int] = [parameters.z1, parameters.z2]
    exponents: List[int] = [0, 0]
    for vector, (value, blinding), coefficient in zip(commitments, openings,
                                                      coefficients):
        c = coefficient % q
        value_total = (value_total + c * value) % q
        blinding_total = (blinding_total + c * blinding) % q
        for slot in range(vector.size):
            exponents.append((-(c * powers[slot])) % q)
        bases.extend(vector.elements)
    exponents[0] = value_total
    exponents[1] = blinding_total
    if cache is not None:
        # Compose cached window-5 Straus tables: the generator pair is
        # shared protocol-wide, and each vector's tables serve every
        # pseudonym that batch-verifies against it in this execution.
        tables: List[Sequence[int]] = []
        generator_key = ("batch-generators", group.p, parameters.z1,
                         parameters.z2)
        generator_tables = cache.get_tables(generator_key)
        if generator_tables is None:
            generator_tables = fastexp.straus_tables(
                [parameters.z1, parameters.z2], group.p, window=5)
            cache.put_tables(generator_key, generator_tables)
        tables.extend(generator_tables)
        for vector in commitments:
            table_key = (group.p, vector.elements)
            vector_tables = cache.get_tables(table_key)
            if vector_tables is None:
                vector_tables = fastexp.straus_tables(vector.elements,
                                                      group.p, window=5)
                cache.put_tables(table_key, vector_tables)
            tables.extend(vector_tables)
        combined = fastexp.multi_exp_with_tables(tables, exponents, group.p,
                                                 window=5)
    else:
        combined = multi_exp(bases, exponents, group.p, window=5)
    return combined == 1


def product_of_commitment_evaluations(commitments: Sequence[PolynomialCommitment],
                                      point: int,
                                      counter: OperationCounter = NULL_COUNTER,
                                      cache: Optional[PublicValueCache] = None
                                      ) -> int:
    """Return ``prod_k commitments[k].evaluate(point)``.

    Used for the aggregate checks (eq. (11) and (13)): the product over all
    agents' ``Q`` (resp. ``R``) evaluations at ``alpha_i`` must equal
    ``Lambda_i * Psi_i`` (resp. ``z1^{F(alpha_i)} * Psi_i``).
    """
    if not commitments:
        raise ValueError("need at least one commitment")
    group = commitments[0].parameters.group
    result = 1
    for commitment in commitments:
        result = group.mul(result, commitment.evaluate(point, counter, cache),
                           counter)
    return result
