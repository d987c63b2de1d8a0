"""The DMW agent implementing the suggested strategy ``chi_suggest``.

A :class:`DMWAgent` holds an agent's private types, randomness, and
operation meter, and exposes one method per protocol action.  The
orchestrator (:mod:`repro.core.protocol`) moves the returned values over
the simulated network and routes incoming messages back — so all *logic*
lives here while all *communication accounting* lives in the network.

The method set decomposes exactly along Shneidman-Parkes action types used
by Theorems 3-4:

* information revelation: :meth:`choose_bid` (truthful by default);
* computational actions: everything else (encode, verify, publish
  aggregates, disclose, resolve, claim payments).

Deviating strategies (:mod:`repro.core.deviant`) subclass this and override
individual actions; each honest verification method detects the deviations
the corresponding theorem says it must.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..crypto.fastexp import PublicValueCache
from ..crypto.modular import OperationCounter
from ..crypto.secret import SecretInt, declassify, tag_secret
from .bidding import (
    AgentCommitments,
    BidPackage,
    ShareBundle,
    all_share_bundles,
    encode_bid,
)
from .exceptions import ProtocolAbort
from .parameters import DMWParameters
from .resolution import (
    identify_winner,
    resolve_first_price,
    resolve_second_price,
)
from .verification import (
    CheckStats,
    verify_f_disclosure,
    verify_lambda_psi,
    verify_share_bundle,
)


@dataclass
class _TaskState:
    """Per-task private state accumulated over the auction."""

    package: Optional[BidPackage] = None
    received_bundles: Dict[int, ShareBundle] = field(default_factory=dict)
    commitments: Dict[int, AgentCommitments] = field(default_factory=dict)
    lambda_value: Optional[int] = None
    psi_value: Optional[int] = None
    valid_lambdas: Dict[int, int] = field(default_factory=dict)
    first_price: Optional[int] = None
    valid_disclosures: Dict[int, Dict[int, Tuple[int, int]]] = field(
        default_factory=dict)
    winner_claimants: Optional[List[int]] = None
    winner: Optional[int] = None
    valid_excluded_lambdas: Dict[int, int] = field(default_factory=dict)
    second_price: Optional[int] = None


class DMWAgent:
    """An agent following the suggested strategy.

    Parameters
    ----------
    index:
        The agent's index ``i`` (its pseudonym is
        ``parameters.pseudonyms[index]``).
    parameters:
        The published Phase I parameters.
    true_values:
        The agent's private types ``t_i^j`` per task; every value must lie
        in the published bid set ``W``.
    rng:
        Private randomness (polynomial coefficients).
    """

    def __init__(self, index: int, parameters: DMWParameters,
                 true_values: Sequence[int],
                 rng: Optional[random.Random] = None) -> None:
        self.index = index
        self.parameters = parameters
        self.true_values = [int(v) for v in true_values]
        for value in self.true_values:
            parameters.validate_bid(value)
        self.rng = rng or random.Random(index)
        # Determinism contract (docs/PERFORMANCE.md, "Process-pool
        # execution"): private randomness is consumed through per-task
        # substreams derived from this root, so every driver — sequential,
        # phase-barrier, process-pool — draws identical polynomial
        # coefficients for a given (seed, task) regardless of execution
        # order or process boundaries.
        self.rng_root = self.rng.getrandbits(64)
        self.counter = OperationCounter()
        # Memo for publicly derivable values (Gamma/Phi, commitment
        # evaluations, Lagrange weights).  The protocol replaces it with
        # one cache shared across the execution's agents — the values are
        # public, and each agent's counter is still charged the full
        # analytic schedule on every (cached or not) access.
        self.cache = PublicValueCache()
        # Pass/fail tallies of every verification equation this agent
        # evaluates (read by repro.obs; never touches the counted model).
        self.check_stats = CheckStats()
        self._tasks: Dict[int, _TaskState] = {}

    # -- small helpers -----------------------------------------------------------
    @property
    def pseudonym(self) -> int:
        return self.parameters.pseudonyms[self.index]

    def adopt_cache(self, cache: PublicValueCache) -> None:
        """Install the execution-scoped public-value cache (protocol hook)."""
        self.cache = cache

    def _state(self, task: int) -> _TaskState:
        state = self._tasks.get(task)
        if state is None:
            state = self._tasks[task] = _TaskState()
        return state

    def task_rng(self, task: int) -> random.Random:
        """The private randomness substream for ``task``'s auction.

        Derived by hashing ``(rng_root, task)`` so the stream is a pure
        function of the agent's seed and the task index — independent of
        the order auctions are run in and of process boundaries.  This is
        what makes the process-pool driver (:mod:`repro.parallel`)
        bit-identical to the sequential one.
        """
        digest = hashlib.sha256(
            b"dmw-task-rng|%d|%d" % (self.rng_root, task)).digest()
        return random.Random(int.from_bytes(digest, "big"))

    def batch_verify_rng(self, task: int, sender: int) -> random.Random:
        """The RLC-coefficient substream for batched share verification.

        Batched mode (``share_verification_mode == "batched"``) folds each
        sender's eq. (7)-(9) checks into one random-linear-combination
        multi-exp; the combination coefficients come from this stream.
        Like :meth:`task_rng` it is a pure function of
        ``(rng_root, task, sender)`` — a distinct domain-separation tag
        keeps it disjoint from the bidding stream — so replays, resumed
        checkpoints, and the process-pool driver all draw identical
        coefficients regardless of execution order.
        """
        digest = hashlib.sha256(
            b"dmw-batch-verify|%d|%d|%d"
            % (self.rng_root, task, sender)).digest()
        return random.Random(int.from_bytes(digest, "big"))

    def _abort(self, reason: str, phase: str, task: Optional[int] = None,
               offender: Optional[int] = None) -> ProtocolAbort:
        return ProtocolAbort(reason=reason, phase=phase, task=task,
                             detected_by=self.index, offender=offender)

    # ==== information-revelation action =====================================
    def choose_bid(self, task: int) -> SecretInt:
        """The bid to encode for ``task``.

        The suggested strategy reveals the true type.  Misreporting
        strategies override only this method — the centralized
        truthfulness of MinWork (Theorem 2) is what makes such deviations
        unprofitable.

        Under ``DMW_SANITIZE=1`` the returned value is taint-wrapped in
        :class:`~repro.crypto.secret.Secret`: any attempt to print, format,
        or serialize it raises ``SecretLeakError`` unless it first passes
        the ``declassify`` gate (the paper sanctions revealing only ``y*``,
        the winner identity, and ``y**``).
        """
        return tag_secret(self.true_values[task],
                          label="bid[agent=%d,task=%d]" % (self.index, task))

    # ==== Phase II: bidding ====================================================
    def begin_task(self, task: int
                   ) -> Tuple[Optional[AgentCommitments],
                              Dict[int, ShareBundle]]:
        """Steps II.1-II.3: encode the bid, produce commitments and bundles.

        Returns the commitments to publish and the bundle for every *other*
        agent; the own-pseudonym bundle is retained locally (the aggregates
        of step III.2 include the agent's own polynomials).
        """
        state = self._state(task)
        state.package = encode_bid(self.parameters, self.choose_bid(task),
                                   self.task_rng(task), self.counter)
        bundles = all_share_bundles(self.parameters, state.package,
                                    self.counter)
        state.received_bundles[self.index] = bundles.pop(self.index)
        state.commitments[self.index] = state.package.commitments
        return state.package.commitments, bundles

    def receive_bundle(self, task: int, sender: int,
                       bundle: ShareBundle) -> None:
        """Store a share bundle received over the private channel."""
        self._state(task).received_bundles[sender] = bundle

    def receive_commitments(self, task: int, sender: int,
                            commitments: AgentCommitments) -> None:
        """Store published commitments read off the bulletin board."""
        self._state(task).commitments[sender] = commitments

    # ==== Phase III: allocating tasks =========================================
    def check_shares(self, task: int) -> Optional[ProtocolAbort]:
        """Step III.1: verify every received bundle against eq. (7)-(9).

        Returns a :class:`ProtocolAbort` describing the first violation
        found, or ``None`` when all bundles check out.  Missing bundles or
        commitments are violations too (step II.4's synchronization barrier
        requires them all).
        """
        state = self._state(task)
        for sender in range(self.parameters.num_agents):
            if sender == self.index:
                continue
            if sender not in state.commitments:
                return self._abort(
                    "agent %d published no commitments" % sender,
                    phase="bidding", task=task, offender=sender,
                )
            if sender not in state.received_bundles:
                return self._abort(
                    "agent %d sent no share bundle" % sender,
                    phase="bidding", task=task, offender=sender,
                )
            batched = self.parameters.share_verification_mode == "batched"
            valid = verify_share_bundle(
                self.parameters, state.commitments[sender], self.pseudonym,
                state.received_bundles[sender], self.counter, self.cache,
                stats=self.check_stats,
                rng=self.batch_verify_rng(task, sender) if batched else None,
            )
            if not valid:
                return self._abort(
                    "agent %d's shares are inconsistent with its commitments"
                    % sender,
                    phase="allocating", task=task, offender=sender,
                )
        return None

    def publish_aggregates(self, task: int) -> Optional[Tuple[int, int]]:
        """Step III.2: compute and return ``(Lambda_i, Psi_i)``.

        ``Lambda_i = z1^{E(alpha_i)}`` and ``Psi_i = z2^{H(alpha_i)}``
        where ``E``/``H`` sum every agent's ``e``/``h`` polynomial and
        ``alpha_i`` is this agent's own pseudonym.
        """
        state = self._state(task)
        q = self.parameters.group.q
        e_total, h_total = 0, 0
        for bundle in state.received_bundles.values():
            e_total = (e_total + bundle.e_value) % q
            h_total = (h_total + bundle.h_value) % q
        group_parameters = self.parameters.group_parameters
        state.lambda_value = group_parameters.exp_z1(e_total, self.counter)
        state.psi_value = group_parameters.exp_z2(h_total, self.counter)
        return state.lambda_value, state.psi_value

    def _verify_one_aggregate(self, task: int, publisher: int,
                              value: Tuple[int, int],
                              exclude: Optional[int] = None) -> bool:
        state = self._state(task)
        commitments = [state.commitments[k]
                       for k in range(self.parameters.num_agents)]
        lambda_value, psi_value = value
        return verify_lambda_psi(
            self.parameters, commitments,
            self.parameters.pseudonyms[publisher],
            lambda_value, psi_value, exclude=exclude, counter=self.counter,
            cache=self.cache, stats=self.check_stats,
        )

    def _checked_publishers(self, published: Dict[int, Tuple[int, int]]
                            ) -> List[int]:
        """Publishers this agent must verify under the current mode."""
        if self.parameters.verification_mode == "full":
            return [p for p in published if p != self.index]
        assigned = self.parameters.verification_assignments(self.index)
        return [p for p in assigned if p in published and p != self.index]

    def validate_aggregates(self, task: int,
                            published: Dict[int, Tuple[int, int]]
                            ) -> List[int]:
        """Check published ``(Lambda_k, Psi_k)`` values with eq. (11).

        Invalid or missing publishers are *excluded* rather than fatal:
        degree resolution can use any sufficiently large valid subset (the
        Theorem 4 discussion's "resolution is unaffected" case).  The
        shortage case surfaces later as a :class:`ResolutionError`.

        In ``"assigned"`` mode this agent verifies only the ``c + 1``
        publishers assigned to it (the Theorem 12 cost budget) and returns
        the failing ones as *complaints* for arbitration; all published
        values are accepted provisionally.  In ``"full"`` mode everything
        is verified locally and no complaints are needed.
        """
        state = self._state(task)
        complaints: List[int] = []
        if self.parameters.verification_mode == "full":
            state.valid_lambdas = {}
            for publisher, value in published.items():
                if self._verify_one_aggregate(task, publisher, value):
                    state.valid_lambdas[publisher] = value[0]
            return complaints
        state.valid_lambdas = {publisher: value[0]
                               for publisher, value in published.items()}
        for publisher in self._checked_publishers(published):
            if not self._verify_one_aggregate(task, publisher,
                                              published[publisher]):
                complaints.append(publisher)
        return complaints

    def arbitrate_aggregates(self, task: int,
                             published: Dict[int, Tuple[int, int]],
                             complaints: Sequence[int]) -> None:
        """Settle complaints by full recomputation (assigned mode only).

        Every honest agent recomputes eq. (11) for each complained
        publisher, so all honest agents converge on the same valid set;
        false complaints cost one recomputation and change nothing.
        """
        if self.parameters.verification_mode == "full":
            return
        state = self._state(task)
        for publisher in set(complaints):
            if publisher not in published:
                continue
            if not self._verify_one_aggregate(task, publisher,
                                              published[publisher]):
                state.valid_lambdas.pop(publisher, None)

    def resolve_first(self, task: int) -> int:
        """Eq. (12): resolve and remember the first price ``y*``.

        The minimum bid is one of the three reveals the paper sanctions;
        it is routed through the ``declassify`` audit gate.
        """
        state = self._state(task)
        first_price, _ = resolve_first_price(self.parameters,
                                             state.valid_lambdas,
                                             self.counter, self.cache)
        state.first_price = declassify(
            first_price, label="y*",
            reason="sanctioned reveal: minimum bid y* resolved from the "
                   "published aggregates (Phase III eq. (12))")
        return state.first_price

    def disclosure_rank(self, task: int) -> Optional[int]:
        """This agent's rank in the disclosure order, or ``None``.

        The disclosure set is the first ``disclosure_width(y*)`` agents in
        pseudonym order — a deterministic public rule, so every agent knows
        whether it must disclose (step III.3).
        """
        state = self._state(task)
        if state.first_price is None:
            return None
        width = self.parameters.disclosure_width(state.first_price)
        order = sorted(range(self.parameters.num_agents),
                       key=lambda i: self.parameters.pseudonyms[i])
        rank = order.index(self.index)
        return rank if rank < width else None

    def disclose_f_shares(self, task: int
                          ) -> Optional[Dict[int, Tuple[int, int]]]:
        """Step III.3: publish the ``(f, h)`` share row this agent holds.

        Returns ``{agent l -> (f_l(alpha_i), h_l(alpha_i))}`` when this
        agent is in the disclosure set, else ``None``.
        """
        if self.disclosure_rank(task) is None:
            return None
        state = self._state(task)
        return {
            sender: (bundle.f_value, bundle.h_value)
            for sender, bundle in sorted(state.received_bundles.items())
        }

    def claim_winnership(self, task: int) -> bool:
        """Announce candidacy when this agent's own bid equals ``y*``.

        Claims let winner identification test ``O(1)`` candidates instead
        of all ``n`` agents; a false claim fails the eq. (14) test and a
        silent winner is still found by the fallback scan, so claims are
        a cost optimization, not a trust assumption.
        """
        state = self._state(task)
        claiming = (state.package is not None
                    and state.first_price is not None
                    and state.package.bid == state.first_price)
        if claiming and state.package is not None:
            # Claiming winnership publicly equates this agent's own bid
            # with the already-public y* — a sanctioned self-reveal.
            declassify(state.package.bid, label="winner_bid",
                       reason="sanctioned reveal: winner candidacy equates "
                              "own bid with the public first price y* "
                              "(Phase III step 3)")
        return claiming

    def _verify_one_disclosure(self, task: int, discloser: int,
                               row: Dict[int, Tuple[int, int]]) -> bool:
        state = self._state(task)
        commitments = [state.commitments[k]
                       for k in range(self.parameters.num_agents)]
        return verify_f_disclosure(
            self.parameters, commitments,
            self.parameters.pseudonyms[discloser], row, self.counter,
            self.cache, stats=self.check_stats,
        )

    def validate_disclosures(self, task: int,
                             rows: Dict[int, Dict[int, Tuple[int, int]]]) -> List[int]:
        """Verify disclosed rows with eq. (13).

        Mirrors :meth:`validate_aggregates`: full local verification in
        ``"full"`` mode, assigned verification plus complaints in
        ``"assigned"`` mode.
        """
        state = self._state(task)
        complaints: List[int] = []
        if self.parameters.verification_mode == "full":
            state.valid_disclosures = {}
            for discloser, row in rows.items():
                if self._verify_one_disclosure(task, discloser, row):
                    state.valid_disclosures[discloser] = row
            return complaints
        state.valid_disclosures = dict(rows)
        assigned = set(self.parameters.verification_assignments(self.index))
        for discloser, row in rows.items():
            if discloser in assigned and discloser != self.index:
                if not self._verify_one_disclosure(task, discloser, row):
                    complaints.append(discloser)
        return complaints

    def arbitrate_disclosures(self, task: int,
                              rows: Dict[int, Dict[int, Tuple[int, int]]],
                              complaints: Sequence[int]) -> None:
        """Settle disclosure complaints by full recomputation."""
        if self.parameters.verification_mode == "full":
            return
        state = self._state(task)
        for discloser in set(complaints):
            if discloser not in rows:
                continue
            if not self._verify_one_disclosure(task, discloser,
                                               rows[discloser]):
                state.valid_disclosures.pop(discloser, None)

    def find_winner(self, task: int,
                    claimants: Optional[Sequence[int]] = None) -> int:
        """Eq. (14): identify and remember the winner."""
        state = self._state(task)
        if claimants is not None:
            state.winner_claimants = list(claimants)
        state.winner = declassify(
            identify_winner(self.parameters, state.first_price,
                            state.valid_disclosures,
                            claimants=state.winner_claimants,
                            counter=self.counter,
                            cache=self.cache),
            label="winner",
            reason="sanctioned reveal: winner identity from the disclosed "
                   "f-share rows (Phase III eq. (14))")
        return state.winner

    def publish_excluded_aggregates(self, task: int
                                    ) -> Optional[Tuple[int, int]]:
        """Step III.4: divide the winner out of the published aggregates.

        Returns ``(Lambda'_i, Psi'_i) = (Lambda_i / z1^{e_*(alpha_i)},
        Psi_i / z2^{h_*(alpha_i)})`` computed from the winner's share
        bundle this agent holds (each one table walk, no inversion:
        :meth:`~repro.crypto.groups.GroupParameters.div_z1`).
        """
        state = self._state(task)
        winner_bundle = state.received_bundles[state.winner]
        group_parameters = self.parameters.group_parameters
        lambda_prime = group_parameters.div_z1(
            state.lambda_value, winner_bundle.e_value, self.counter)
        psi_prime = group_parameters.div_z2(
            state.psi_value, winner_bundle.h_value, self.counter)
        return lambda_prime, psi_prime

    def validate_excluded_aggregates(self, task: int,
                                     published: Dict[int, Tuple[int, int]]
                                     ) -> List[int]:
        """Eq. (11) restricted to the non-winners (checks the step III.4
        values before second-price resolution).  Same verification regime
        as :meth:`validate_aggregates`."""
        state = self._state(task)
        complaints: List[int] = []
        if self.parameters.verification_mode == "full":
            state.valid_excluded_lambdas = {}
            for publisher, value in published.items():
                if self._verify_one_aggregate(task, publisher, value,
                                              exclude=state.winner):
                    state.valid_excluded_lambdas[publisher] = value[0]
            return complaints
        state.valid_excluded_lambdas = {publisher: value[0]
                                        for publisher, value
                                        in published.items()}
        for publisher in self._checked_publishers(published):
            if not self._verify_one_aggregate(task, publisher,
                                              published[publisher],
                                              exclude=state.winner):
                complaints.append(publisher)
        return complaints

    def arbitrate_excluded_aggregates(self, task: int,
                                      published: Dict[int, Tuple[int, int]],
                                      complaints: Sequence[int]) -> None:
        """Settle second-price complaints by full recomputation."""
        if self.parameters.verification_mode == "full":
            return
        state = self._state(task)
        for publisher in set(complaints):
            if publisher not in published:
                continue
            if not self._verify_one_aggregate(task, publisher,
                                              published[publisher],
                                              exclude=state.winner):
                state.valid_excluded_lambdas.pop(publisher, None)

    def resolve_second(self, task: int) -> int:
        """Resolve and remember the second price ``y**``."""
        state = self._state(task)
        second_price, _ = resolve_second_price(
            self.parameters, state.valid_excluded_lambdas, self.counter,
            self.cache
        )
        state.second_price = declassify(
            second_price, label="y**",
            reason="sanctioned reveal: second price y** from the "
                   "winner-excluded aggregates (Phase III step 4)")
        return state.second_price

    # ==== Phase IV: payments =====================================================
    def payment_claim(self, tasks: Optional[Iterable[int]] = None
                      ) -> Optional[List[float]]:
        """Step IV.1: the payment vector this agent believes is correct.

        The return type admits ``None`` (submit nothing) so withholding
        strategies are expressible in the strategy space ``X``; the honest
        implementation always returns a full vector.

        ``P_i = sum of second prices over the tasks agent i won`` — every
        agent computes the *full* vector from its own transcript and
        submits it to the payment infrastructure.

        ``tasks`` restricts the claim to the given task set (graceful
        degradation: quarantined auctions contribute no payment).  The
        default claims over every auction this agent participated in, and
        aborts if any of them is unresolved.
        """
        totals = [0.0] * self.parameters.num_agents
        claimed = sorted(self._tasks) if tasks is None else sorted(tasks)
        for task in claimed:
            state = self._tasks[task]
            if state.winner is None or state.second_price is None:
                raise ProtocolAbort(
                    "payment claim requested before task %d resolved" % task,
                    phase="payments", task=task, detected_by=self.index,
                )
            totals[state.winner] += state.second_price
        return totals

    # -- introspection (used by tests and analysis) -----------------------------
    def task_state(self, task: int) -> _TaskState:
        """Expose per-task state (testing/analysis hook, not protocol API)."""
        return self._state(task)
