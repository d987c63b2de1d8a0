"""Passive verification of a DMW execution from its public transcript.

The paper's related-work section highlights the problem of *passively
verifying* that a deployed mechanism execution actually followed the
strategyproof specification (Kang & Parkes [22]; the strategyproof-
computing paradigm of Ng et al. [29]).  DMW is well suited to this: every
protocol value that determines the outcome is either published or
verifiable against published commitments, so a third-party auditor who
merely *reads* the broadcast channel can re-derive the entire outcome and
check every consistency equation — without ever seeing a private share.

:func:`audit_protocol_run` replays the published messages of a completed
:class:`~repro.core.protocol.DMWProtocol` execution:

* completeness of each agent's commitments per task,
* eq. (11) for every published ``(Lambda_i, Psi_i)``,
* eq. (12) first-price resolution over the valid aggregates,
* eq. (13) for every disclosed ``(f, h)`` row,
* eq. (14) winner identification (including tie-breaking),
* eq. (15)+(11) for the winner-excluded aggregates and the second price,
* the payment vector implied by the per-task second prices,

and compares everything against the outcome the participants reported.
The auditor is not cost-constrained, so it verifies everything fully and
ignores the participants' complaint traffic (it re-derives validity from
first principles).

Degraded executions (``docs/RESILIENCE.md``) are audited with the same
public data plus one extra cross-check: a task the participants
*quarantined* must actually be undeterminable from the public transcript.
If the auditor can fully re-derive a quarantined task's winner and second
price, the quarantine decision itself is flagged — honest agents never
quarantine a healthy auction.  Quarantined tasks are excluded from the
assignment/payment comparison (they carry no allocation and no payment).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Tuple

from ..crypto.fastexp import PublicValueCache
from ..crypto.modular import OperationCounter
from .bidding import AgentCommitments, as_commitments
from .outcome import DMWOutcome
from .parameters import DMWParameters
from .resolution import (
    ResolutionError,
    identify_winner,
    resolve_first_price,
    resolve_second_price,
)
from .rounds import (COMMITMENTS, F_DISCLOSURE, LAMBDA_PSI, SECOND_PRICE,
                     WINNER_CLAIM)
from .verification import CheckStats, verify_f_disclosure, verify_lambda_psi

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..network.message import Message
    from .protocol import DMWProtocol


@dataclass(frozen=True)
class AuditFinding:
    """One problem the auditor found."""

    task: Optional[int]
    check: str
    detail: str


@dataclass
class AuditReport:
    """The auditor's verdict on one execution.

    Attributes
    ----------
    ok:
        True when the transcript is internally consistent *and* matches
        the reported outcome.
    findings:
        Every discrepancy found (empty when ``ok``).
    reconstructed_assignment / reconstructed_payments:
        The outcome the auditor derived independently from public data.
    operations:
        The auditor's own counted modular work (for cost reporting).
    check_stats:
        Pass/fail tallies of every verification equation the auditor
        evaluated (``{"equation:pass|fail": count}``; consumed by the
        observability layer).
    """

    ok: bool
    findings: List[AuditFinding] = field(default_factory=list)
    reconstructed_assignment: Optional[Tuple[int, ...]] = None
    reconstructed_payments: Optional[Tuple[float, ...]] = None
    operations: Dict[str, int] = field(default_factory=dict)
    check_stats: Dict[str, int] = field(default_factory=dict)


class TranscriptAuditor:
    """Re-derives a DMW outcome from published messages only."""

    def __init__(self, parameters: DMWParameters) -> None:
        self.parameters = parameters
        self.counter = OperationCounter()
        # The auditor re-derives everything from public data, so it gets
        # the same public-value memoisation as the participants (its own
        # cache: the auditor never shares state with the audited agents).
        self.cache = PublicValueCache()
        self.check_stats = CheckStats()
        self._findings: List[AuditFinding] = []

    # -- helpers ---------------------------------------------------------------
    def _flag(self, task: Optional[int], check: str, detail: str) -> None:
        self._findings.append(AuditFinding(task=task, check=check,
                                           detail=detail))

    # -- the audit -------------------------------------------------------------
    def audit(self, messages: Iterable["Message"], num_tasks: int,
              outcome: Optional[DMWOutcome] = None) -> AuditReport:
        """Audit the published ``messages`` of an execution.

        Parameters
        ----------
        messages:
            The bulletin-board history (``network.published()``).
        num_tasks:
            Number of auctions the execution ran.
        outcome:
            The outcome the participants reported; when given, the
            reconstruction is compared against it.
        """
        n = self.parameters.num_agents
        # kind -> task -> {sender -> payload}, for every published kind.
        boards: Dict[str, Dict[int, Dict[int, object]]] = {
            kind.name: {} for kind in (COMMITMENTS, LAMBDA_PSI, F_DISCLOSURE,
                                       WINNER_CLAIM, SECOND_PRICE)}
        for message in messages:
            if message.kind in boards:
                task, payload = message.payload
                if message.kind == COMMITMENTS.name:
                    # Published as plain vectors; evaluated under this
                    # auditor's own parameters.
                    payload = as_commitments(payload)
                board = boards[message.kind].setdefault(task, {})
                board[message.sender] = payload
        quarantined = set()
        if outcome is not None:
            quarantined = set(getattr(outcome, "task_aborts", {}) or {})

        assignment: List[Optional[int]] = [None] * num_tasks
        payments = [0.0] * n

        for task in range(num_tasks):
            if task in quarantined:
                # Cross-check the quarantine decision itself: re-derive
                # silently; success means the participants condemned an
                # auction the public transcript fully determines.
                resolved = self._reconstruct_task(
                    task, boards, lambda *args: None)
                if resolved is not None:
                    self._flag(task, "quarantine",
                               "task was quarantined but its outcome "
                               "(winner %d, second price %d) is fully "
                               "determined by the public transcript"
                               % resolved)
                continue
            resolved = self._reconstruct_task(task, boards, self._flag)
            if resolved is None:
                continue
            winner, second_price = resolved
            assignment[task] = winner
            payments[winner] += second_price

        complete = all(assignment[task] is not None
                       for task in range(num_tasks)
                       if task not in quarantined)
        reconstructed_assignment = tuple(assignment) if complete else None

        if outcome is not None and outcome.completed:
            if reconstructed_assignment is None:
                self._flag(None, "outcome",
                           "participants report success but the transcript "
                           "does not determine every task")
            else:
                if reconstructed_assignment != outcome.schedule.assignment:
                    self._flag(None, "outcome",
                               "reported schedule %s != reconstructed %s"
                               % (outcome.schedule.assignment,
                                  reconstructed_assignment))
                if tuple(payments) != tuple(outcome.payments):
                    self._flag(None, "outcome",
                               "reported payments %s != reconstructed %s"
                               % (outcome.payments, tuple(payments)))

        return AuditReport(
            ok=not self._findings,
            findings=list(self._findings),
            reconstructed_assignment=reconstructed_assignment,
            reconstructed_payments=(tuple(payments)
                                    if reconstructed_assignment is not None
                                    else None),
            operations=self.counter.snapshot(),
            check_stats=self.check_stats.as_dict(),
        )

    def _reconstruct_task(self, task: int,
                          boards: Dict[str, Dict[int, Dict[int, object]]],
                          flag: Callable[[Optional[int], str, str], None]
                          ) -> Optional[Tuple[int, int]]:
        """Re-derive one task's ``(winner, second_price)`` from public data.

        ``flag`` receives every inconsistency (pass :meth:`_flag` to
        collect findings, or a no-op to probe a quarantined task
        silently).  Returns ``None`` when the public transcript does not
        determine the task.
        """
        parameters = self.parameters
        n = parameters.num_agents
        commitments = boards[COMMITMENTS.name].get(task, {})
        if set(commitments) != set(range(n)):
            flag(task, COMMITMENTS.name,
                 "missing commitments from agents %s"
                 % sorted(set(range(n)) - set(commitments)))
            return None
        ordered: List[AgentCommitments] = [commitments[k] for k in range(n)]

        # eq. (11): which aggregates are valid.
        valid_lambdas: Dict[int, int] = {}
        for publisher, (lam, psi) in boards[LAMBDA_PSI.name].get(
                task, {}).items():
            if verify_lambda_psi(parameters, ordered,
                                 parameters.pseudonyms[publisher],
                                 lam, psi, counter=self.counter,
                                 cache=self.cache,
                                 stats=self.check_stats):
                valid_lambdas[publisher] = lam
            else:
                flag(task, LAMBDA_PSI.name,
                     "agent %d published inconsistent aggregates"
                     % publisher)

        try:
            first_price, _ = resolve_first_price(parameters, valid_lambdas,
                                                 self.counter, self.cache)
        except ResolutionError as error:
            flag(task, "first_price", str(error))
            return None

        # eq. (13): which disclosure rows are valid.
        valid_rows: Dict[int, Dict[int, tuple]] = {}
        for discloser, row in boards[F_DISCLOSURE.name].get(task,
                                                            {}).items():
            if verify_f_disclosure(parameters, ordered,
                                   parameters.pseudonyms[discloser],
                                   row, self.counter, self.cache,
                                   stats=self.check_stats):
                valid_rows[discloser] = row
            else:
                flag(task, F_DISCLOSURE.name,
                     "agent %d disclosed an inconsistent row" % discloser)

        claimants = sorted(boards[WINNER_CLAIM.name].get(task, {}),
                           key=lambda i: parameters.pseudonyms[i])
        try:
            winner = identify_winner(parameters, first_price, valid_rows,
                                     claimants=claimants or None,
                                     counter=self.counter,
                                     cache=self.cache)
        except ResolutionError as error:
            flag(task, "winner", str(error))
            return None

        valid_excluded: Dict[int, int] = {}
        for publisher, (lam, psi) in boards[SECOND_PRICE.name].get(
                task, {}).items():
            if verify_lambda_psi(parameters, ordered,
                                 parameters.pseudonyms[publisher],
                                 lam, psi, exclude=winner,
                                 counter=self.counter,
                                 cache=self.cache,
                                 stats=self.check_stats):
                valid_excluded[publisher] = lam
            else:
                flag(task, SECOND_PRICE.name,
                     "agent %d published inconsistent excluded "
                     "aggregates" % publisher)
        try:
            second_price, _ = resolve_second_price(parameters,
                                                   valid_excluded,
                                                   self.counter, self.cache)
        except ResolutionError as error:
            flag(task, SECOND_PRICE.name, str(error))
            return None

        return winner, second_price


def audit_protocol_run(protocol: "DMWProtocol",
                       outcome: Optional[DMWOutcome] = None,
                       num_tasks: Optional[int] = None) -> AuditReport:
    """Audit a finished :class:`~repro.core.protocol.DMWProtocol` run.

    Reads only the protocol's bulletin board (published messages); private
    channels are never consulted.
    """
    if num_tasks is None:
        if outcome is not None and outcome.schedule is not None:
            num_tasks = outcome.schedule.num_tasks
        elif outcome is not None:
            num_tasks = (len(outcome.transcripts)
                         + len(getattr(outcome, "task_aborts", {}) or {}))
        else:
            raise ValueError("pass num_tasks or an outcome with transcripts")
    auditor = TranscriptAuditor(protocol.parameters)
    return auditor.audit(protocol.network.published(), num_tasks, outcome)
