"""Phase II of DMW: bid encoding, shares, and commitments.

For task ``T^j``, agent ``A_i`` with bid ``y`` chooses (step II.1) four
random zero-constant-term polynomials over ``Z_q``:

* ``e`` of exact degree ``tau = sigma - y``  (the bid encoding),
* ``f`` of exact degree ``sigma - tau = y``  (the witness used for winner
  identification — its degree *is* the bid),
* ``g`` of degree ``sigma``                  (blinding for the ``O`` commitments),
* ``h`` of degree ``sigma``                  (blinding for ``Q``/``R`` and ``Psi``).

It then sends each agent ``A_k`` the share bundle
``(e(alpha_k), f(alpha_k), g(alpha_k), h(alpha_k))`` over the private
channel (step II.2) and publishes the commitment vectors (step II.3):

* ``O`` — coefficients of the product ``e*f`` blinded by ``g``'s,
* ``Q`` — coefficients of ``e`` blinded by ``h``'s,
* ``R`` — coefficients of ``f`` blinded by ``h``'s

(see DESIGN.md decision 3 for the reconstruction of the garbled ``Q``/``R``
formulas).  Verifying eq. (7) against ``O`` proves ``deg e + deg f = sigma``
with zero constant terms, which binds ``deg f`` (revealed during winner
identification) to the bid hidden in ``deg e``.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import (Any, Callable, Dict, Iterable, List, NamedTuple, Tuple,
                    cast)

from ..crypto import fastexp
from ..crypto.commitments import PedersenCommitter
from ..crypto.groups import GroupParameters
from ..crypto.modular import NULL_COUNTER, OperationCounter, exp_work_total
from ..crypto.polynomials import Polynomial, evaluate_all
from ..crypto.secret import SecretInt, local_value
from .parameters import DMWParameters


class ShareBundle(NamedTuple):
    """The four share values one agent sends another for one task.

    All values are elements of ``Z_q`` evaluated at the recipient's
    pseudonym.  Weight: 4 field elements.  An immutable tuple; it
    crosses every network as the plain tuple of its values
    (:data:`as_share_bundle` rebuilds it).
    """

    e_value: int
    f_value: int
    g_value: int
    h_value: int

    FIELD_ELEMENTS = 4


class AgentCommitments(NamedTuple):
    """The published commitment vectors ``(O, Q, R)`` of one agent/task.

    Each vector is the tuple of its committed group elements (slots
    ``1..sigma``) and carries no group: every verifier evaluates it under
    its own parameters (:func:`~repro.crypto.commitments
    .evaluate_commitment`).  It crosses every network as the plain tuple
    of its three vectors (:data:`as_commitments` rebuilds it).

    Weight: ``3 * sigma`` group elements.
    """

    o_vector: Tuple[int, ...]
    q_vector: Tuple[int, ...]
    r_vector: Tuple[int, ...]

    @property
    def field_elements(self) -> int:
        return len(self.o_vector) + len(self.q_vector) + len(self.r_vector)


#: Rebuild a record from its wire form (the plain tuple of its fields) in
#: C: a Python function here would add a call per receipt.  A bundle is
#: also built from a row of share values.
as_commitments = cast(Callable[[Tuple[Any, ...]], AgentCommitments],
                      functools.partial(tuple.__new__, AgentCommitments))
as_share_bundle = cast(Callable[[Iterable[Any]], ShareBundle],
                       functools.partial(tuple.__new__, ShareBundle))


@dataclass(frozen=True)
class BidPackage:
    """Everything an agent generates for one task's auction.

    ``polynomials`` stay private to the bidding agent; ``commitments`` are
    published; per-recipient bundles come from :meth:`share_bundle_for`.

    ``bid`` is taint-wrapped (:class:`~repro.crypto.secret.Secret`) when
    the ``DMW_SANITIZE=1`` sanitizer mode is active, so it cannot be
    printed or serialized without an audited ``declassify``.
    """

    bid: SecretInt
    e: Polynomial
    f: Polynomial
    g: Polynomial
    h: Polynomial
    commitments: AgentCommitments

    def share_bundle_for(self, pseudonym: int,
                         counter: OperationCounter = NULL_COUNTER
                         ) -> ShareBundle:
        """Evaluate the four polynomials at ``pseudonym`` (step II.2)."""
        return ShareBundle(*evaluate_all((self.e, self.f, self.g, self.h),
                                         (pseudonym,), counter)[0])


def encode_bid(parameters: DMWParameters, bid: SecretInt,
               rng: random.Random,
               counter: OperationCounter = NULL_COUNTER) -> BidPackage:
    """Perform steps II.1 and II.3 for one agent and task.

    Parameters
    ----------
    parameters:
        The published Phase I parameters.
    bid:
        The agent's (possibly untruthful) bid; must be in ``W``.  May be
        taint-wrapped (``Secret``): encoding one's *own* bid into share
        polynomials is owner-local computation, so the raw value is taken
        via :func:`~repro.crypto.secret.local_value`, not ``declassify``.
    rng:
        The agent's private randomness.
    counter:
        The agent's operation meter.

    Returns
    -------
    A :class:`BidPackage` with freshly drawn polynomials and commitments;
    its ``bid`` attribute preserves the taint wrapper.

    The commitments are one pass with one charge (:func:`_commit_pass`);
    under :func:`~repro.crypto.fastexp.naive_mode` they are the literal
    listing, :meth:`PedersenCommitter.commit_polynomial
    <repro.crypto.commitments.PedersenCommitter.commit_polynomial>` for
    ``O``, ``Q`` and ``R``.  Both give the same vectors and charge the
    same totals.
    """
    raw_bid = local_value(bid)
    parameters.validate_bid(raw_bid)
    q = parameters.group.q
    sigma = parameters.sigma
    tau = parameters.degree_for_bid(raw_bid)
    e = Polynomial.random(tau, q, rng, zero_constant_term=True)
    f = Polynomial.random(sigma - tau, q, rng, zero_constant_term=True)
    g = Polynomial.random(sigma, q, rng, zero_constant_term=True)
    h = Polynomial.random(sigma, q, rng, zero_constant_term=True)
    product = e * f
    if fastexp.enabled():
        commitments = _commit_pass(parameters.group_parameters, sigma,
                                   product, e, f, g, h, counter)
    else:
        committer = PedersenCommitter(parameters.group_parameters)
        commitments = AgentCommitments(*(
            committer.commit_polynomial(values, blindings, sigma,
                                        counter).elements
            for values, blindings in ((product, g), (e, h), (f, h))))
    return BidPackage(bid=bid, e=e, f=f, g=g, h=h, commitments=commitments)


def _commit_pass(group_parameters: GroupParameters, sigma: int,
                 product: Polynomial, e: Polynomial, f: Polynomial,
                 g: Polynomial, h: Polynomial,
                 counter: OperationCounter) -> AgentCommitments:
    """``O``, ``Q`` and ``R`` in one pass with one charge.

    Slot ``l`` is one :meth:`~repro.crypto.groups.GroupParameters
    .opening_walk` of ``(a_l, g_l, e_l, h_l, (f_l - e_l) mod q)``, where
    ``a_l`` is the coefficient of ``e*f``: it gives ``O_l``, ``Q_l`` and
    ``z1^((f_l - e_l) mod q)``, and ``R_l`` is the last times ``Q_l``.
    The charge is the listing's, two exponentiations and a multiplication
    per opening, three openings per slot.  Every polynomial has a zero
    constant term and degree at most ``sigma``, so slots ``1..sigma``
    hold all the rest.
    """
    group = group_parameters.group
    q, p = group.q, group.p
    walk = group_parameters.opening_walk
    o_vector: List[int] = []
    q_vector: List[int] = []
    r_vector: List[int] = []
    slots = [polynomial.coefficients[1:]
             + (0,) * (sigma + 1 - len(polynomial.coefficients))
             for polynomial in (product, g, e, f, h)]
    for a_l, g_l, e_l, f_l, h_l in zip(*slots):
        o_l, q_l, shift = walk(a_l, g_l, e_l, h_l, (f_l - e_l) % q)
        o_vector.append(o_l)
        q_vector.append(q_l)
        r_vector.append(shift * q_l % p)
    # h blinds both Q and R; a padded zero adds no work.
    counter.count_exp_batch(6 * sigma, exp_work_total(
        product.coefficients + g.coefficients + e.coefficients
        + f.coefficients + 2 * h.coefficients))
    counter.count_mul(3 * sigma)
    return AgentCommitments(tuple(o_vector), tuple(q_vector),
                            tuple(r_vector))


def all_share_bundles(parameters: DMWParameters, package: BidPackage,
                      counter: OperationCounter = NULL_COUNTER
                      ) -> Dict[int, ShareBundle]:
    """Step II.2: the bundle for every agent (index -> bundle), own
    included.

    The agent keeps its own bundle (evaluated at its own pseudonym): the
    aggregate values ``E(alpha_i)`` and ``H(alpha_i)`` it must publish in
    step III.2 include its own polynomials.

    One :func:`~repro.crypto.polynomials.evaluate_all` pass evaluates the
    four polynomials at every pseudonym, charged once; under
    :func:`~repro.crypto.fastexp.naive_mode` each bundle is its own
    :meth:`BidPackage.share_bundle_for`.  The totals are the same.
    """
    pseudonyms = parameters.pseudonyms
    if not fastexp.enabled():
        return {index: package.share_bundle_for(pseudonym, counter)
                for index, pseudonym in enumerate(pseudonyms)}
    rows = evaluate_all((package.e, package.f, package.g, package.h),
                        pseudonyms, counter)
    return dict(enumerate(map(as_share_bundle, rows)))
