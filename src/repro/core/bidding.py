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

import random
from dataclasses import dataclass
from typing import Any, Dict, NamedTuple, Tuple

from ..crypto.commitments import PedersenCommitter, PolynomialCommitment
from ..crypto.modular import NULL_COUNTER, OperationCounter
from ..crypto.polynomials import Polynomial, evaluate_all
from ..crypto.secret import SecretInt, local_value
from .parameters import DMWParameters


class ShareBundle(NamedTuple):
    """The four share values one agent sends another for one task.

    All values are elements of ``Z_q`` evaluated at the recipient's
    pseudonym.  Weight: 4 field elements.  An immutable tuple, like
    :class:`~repro.network.message.Message` that carries it.
    """

    e_value: int
    f_value: int
    g_value: int
    h_value: int

    FIELD_ELEMENTS = 4

    def __reduce__(self) -> Tuple[Any, Tuple[Any, ...]]:
        # Unpickled in C from the socket transport's frames.
        return (tuple.__new__, (type(self), tuple(self)))


class AgentCommitments(NamedTuple):
    """The published commitment vectors ``(O, Q, R)`` of one agent/task.

    Weight: ``3 * sigma`` group elements.
    """

    o_vector: PolynomialCommitment
    q_vector: PolynomialCommitment
    r_vector: PolynomialCommitment

    @property
    def field_elements(self) -> int:
        return (self.o_vector.size + self.q_vector.size + self.r_vector.size)

    def __reduce__(self) -> Tuple[Any, Tuple[Any, ...]]:
        # Unpickled in C from the socket transport's frames.
        return (tuple.__new__, (type(self), tuple(self)))


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
                                         pseudonym, counter))


def encode_bid(parameters: DMWParameters, bid: SecretInt,
               rng: random.Random,
               counter: OperationCounter = NULL_COUNTER) -> BidPackage:
    """Perform step II.1 for one agent and task.

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
    committer = PedersenCommitter(parameters.group_parameters)
    product = e * f
    o_vector = committer.commit_polynomial(product, g, sigma, counter)
    # Q and R are both blinded by h: one pass commits them together.
    q_vector, r_vector = committer.commit_polynomial_pair(e, f, h, sigma,
                                                          counter)
    commitments = AgentCommitments(o_vector, q_vector, r_vector)
    return BidPackage(bid=bid, e=e, f=f, g=g, h=h, commitments=commitments)


def all_share_bundles(parameters: DMWParameters, package: BidPackage,
                      counter: OperationCounter = NULL_COUNTER
                      ) -> Dict[int, ShareBundle]:
    """Return the bundle for every agent (index -> bundle), own included.

    The agent keeps its own bundle (evaluated at its own pseudonym): the
    aggregate values ``E(alpha_i)`` and ``H(alpha_i)`` it must publish in
    step III.2 include its own polynomials.
    """
    return {
        index: package.share_bundle_for(pseudonym, counter)
        for index, pseudonym in enumerate(parameters.pseudonyms)
    }
