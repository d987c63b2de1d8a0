"""Phase I of DMW: the published protocol parameters.

Phase I publishes ``p, q, z1, z2`` (the Schnorr group and commitment
generators), the fault bound ``c``, the pseudonym set ``A``, and the
discrete bid set ``W``.  This module bundles them as
:class:`DMWParameters`, validates the paper's constraints, and derives the
protocol constants:

* ``sigma = w_k + c + 1`` — the committed polynomial width;
* the bid/degree correspondence ``tau = sigma - y`` (small bids map to
  large degrees so that summing polynomials and resolving the degree of the
  sum reveals the *minimum* bid).

Validation is slightly stricter than the paper's stated
``w_k < n - c + 1``: we require ``w_k <= n - c - 1`` so that even the
largest possible degree ``sigma - w_1`` stays resolvable from the ``n``
available pseudonym shares (DESIGN.md decision 5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..crypto.groups import GroupParameters, SchnorrGroup, fixture_group
from .exceptions import ParameterError


@dataclass(frozen=True)
class DMWParameters:
    """The published parameters of one DMW execution.

    Attributes
    ----------
    group_parameters:
        The Schnorr group and generators ``(p, q, z1, z2)``.
    fault_bound:
        ``c`` — the maximum number of faulty agents tolerated; also the
        collusion-resistance threshold of Theorem 10.
    pseudonyms:
        ``A = (alpha_1, ..., alpha_n)``; ``alpha_i`` is agent ``A_i``'s
        public pseudonym, a distinct non-zero element of ``Z_q``.
    bid_values:
        ``W = (w_1 < ... < w_k)`` — the legal discrete bids.
    """

    group_parameters: GroupParameters
    fault_bound: int
    pseudonyms: Tuple[int, ...]
    bid_values: Tuple[int, ...]
    #: How published values (Lambda/Psi, disclosure rows, second-price
    #: values) are verified:
    #:
    #: * ``"assigned"`` (default) — each publisher is checked by ``c + 1``
    #:   assigned verifiers; failures are broadcast as complaints and
    #:   arbitrated by full recomputation.  Per-agent cost
    #:   ``O(m n^2 log p)``, the Theorem 12 budget (at least one of any
    #:   ``c + 1`` verifiers is honest under the threshold trust model).
    #: * ``"full"`` — every agent recomputes every check itself
    #:   (``O(m n^3 log p)`` per agent); kept as the cost-model ablation.
    verification_mode: str = "assigned"
    #: How each received share bundle is checked against eqs. (7)-(9)
    #: (distinct from :attr:`verification_mode`, which governs the
    #: aggregate-check regime):
    #:
    #: * ``"per-share"`` (default) — three independent openings and
    #:   homomorphic evaluations per sender, exactly the paper's listing.
    #: * ``"batched"`` — one random-linear-combination multi-exp per
    #:   sender (:func:`repro.crypto.commitments.verify_share_batch`);
    #:   same accept/reject verdicts up to a ``1/q`` soundness error,
    #:   identical counted cost, lower wall-clock.
    share_verification_mode: str = "per-share"

    def __post_init__(self) -> None:
        if self.verification_mode not in ("assigned", "full"):
            raise ParameterError(
                "verification_mode must be 'assigned' or 'full', got %r"
                % (self.verification_mode,)
            )
        if self.share_verification_mode not in ("per-share", "batched"):
            raise ParameterError(
                "share_verification_mode must be 'per-share' or 'batched', "
                "got %r" % (self.share_verification_mode,)
            )
        q = self.group_parameters.group.q
        n = len(self.pseudonyms)
        if n < 2:
            raise ParameterError("DMW needs at least two agents")
        if self.fault_bound < 0 or self.fault_bound >= n:
            raise ParameterError(
                "fault bound c must satisfy 0 <= c < n, got c=%d, n=%d"
                % (self.fault_bound, n)
            )
        reduced = [alpha % q for alpha in self.pseudonyms]
        if any(alpha == 0 for alpha in reduced):
            raise ParameterError("pseudonyms must be non-zero mod q")
        if len(set(reduced)) != n:
            raise ParameterError("pseudonyms must be distinct mod q")
        bids = tuple(self.bid_values)
        if not bids:
            raise ParameterError("bid set W must be non-empty")
        if list(bids) != sorted(set(bids)):
            raise ParameterError("bid set W must be strictly increasing")
        if bids[0] < 1:
            raise ParameterError("bids must be positive (0 < w_1)")
        if bids[-1] > n - self.fault_bound - 1:
            raise ParameterError(
                "w_k=%d too large: need w_k <= n - c - 1 = %d so every "
                "degree stays resolvable from n shares"
                % (bids[-1], n - self.fault_bound - 1)
            )
        sigma = bids[-1] + self.fault_bound + 1
        if sigma - bids[0] > n - 1:
            raise ParameterError(
                "sigma - w_1 = %d exceeds n - 1 = %d: the smallest bid's "
                "degree could not be resolved" % (sigma - bids[0], n - 1)
            )
        if sigma >= q:
            raise ParameterError("sigma must be far below q")

    # -- derived constants ---------------------------------------------------
    @property
    def num_agents(self) -> int:
        return len(self.pseudonyms)

    @property
    def sigma(self) -> int:
        """``sigma = w_k + c + 1`` — the committed coefficient width."""
        return self.bid_values[-1] + self.fault_bound + 1

    @property
    def group(self) -> SchnorrGroup:
        return self.group_parameters.group

    @property
    def z1(self) -> int:
        return self.group_parameters.z1

    @property
    def z2(self) -> int:
        return self.group_parameters.z2

    # -- bid/degree correspondence ---------------------------------------------
    def degree_for_bid(self, bid: int) -> int:
        """Return ``tau = sigma - bid`` (the degree of ``e``)."""
        self.validate_bid(bid)
        return self.sigma - bid

    def bid_for_degree(self, degree: int) -> int:
        """Return the bid encoded by an ``e``-polynomial degree."""
        bid = self.sigma - degree
        self.validate_bid(bid)
        return bid

    def validate_bid(self, bid: int) -> None:
        """Raise :class:`ParameterError` unless ``bid`` is in ``W``."""
        if bid not in self.bid_values:
            raise ParameterError(
                "bid %r is not in the published bid set W=%s"
                % (bid, list(self.bid_values))
            )

    def first_price_degree_candidates(self) -> List[int]:
        """Candidate degrees for eq. (12), ascending.

        Degrees are ``sigma - w`` for ``w in W``; scanning them ascending
        makes the first hit the degree of ``E``, i.e. the minimum bid.
        """
        return [self.sigma - w for w in reversed(self.bid_values)]

    def disclosure_width(self, first_price: int) -> int:
        """Number of share rows disclosed for winner identification.

        ``first_price + 1`` rows are needed to resolve a degree-
        ``first_price`` polynomial (DESIGN.md decision 2); ``c`` extra rows
        are disclosed up-front so up to ``c`` corrupt rows can be discarded
        without an extra recovery round (DESIGN.md decision 4).
        """
        return min(self.num_agents, first_price + 1 + self.fault_bound)

    def assigned_verifiers(self, publisher: int) -> List[int]:
        """The ``c + 1`` agents responsible for checking ``publisher``.

        The ring assignment ``publisher - 1, ..., publisher - (c + 1)``
        (mod ``n``) guarantees every publisher is covered by ``c + 1``
        *distinct* other agents, so under the threshold trust model (at
        most ``c`` faulty) at least one assigned verifier is honest.
        """
        n = self.num_agents
        return [(publisher - offset) % n
                for offset in range(1, self.fault_bound + 2)]

    def verification_assignments(self, verifier: int) -> List[int]:
        """The publishers agent ``verifier`` is responsible for checking."""
        n = self.num_agents
        return [(verifier + offset) % n
                for offset in range(1, self.fault_bound + 2)]

    # -- construction -----------------------------------------------------------
    @classmethod
    def generate(cls, num_agents: int, fault_bound: int = 1,
                 bid_values: Optional[Sequence[int]] = None,
                 group_parameters: Optional[GroupParameters] = None,
                 group_size: str = "small",
                 verification_mode: str = "assigned",
                 share_verification_mode: str = "per-share"
                 ) -> "DMWParameters":
        """Build a standard parameter set for ``num_agents`` agents.

        Parameters
        ----------
        num_agents:
            Number of participating agents ``n``.
        fault_bound:
            The fault/collusion bound ``c``.
        bid_values:
            The bid set ``W``; defaults to the maximal legal set
            ``{1, ..., n - c - 1}``.
        group_parameters:
            Cryptographic group; defaults to the cached fixture of
            ``group_size``.
        group_size:
            Fixture name used when ``group_parameters`` is omitted.
        """
        if bid_values is None:
            top = num_agents - fault_bound - 1
            if top < 1:
                raise ParameterError(
                    "no legal bid set for n=%d, c=%d (need n >= c + 2 and a "
                    "positive w_k)" % (num_agents, fault_bound)
                )
            bid_values = list(range(1, top + 1))
        if group_parameters is None:
            group_parameters = fixture_group(group_size)
        pseudonyms = tuple(range(1, num_agents + 1))
        return cls(group_parameters=group_parameters,
                   fault_bound=fault_bound,
                   pseudonyms=pseudonyms,
                   bid_values=tuple(bid_values),
                   verification_mode=verification_mode,
                   share_verification_mode=share_verification_mode)
