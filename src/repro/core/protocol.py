"""The DMW protocol orchestrator: Phases I-IV over a pluggable transport.

:class:`DMWProtocol` drives one :class:`~repro.core.machine.AgentMachine`
per :class:`~repro.core.agent.DMWAgent` through the four phases of the
mechanism as explicit receive/act/send state machines, moving every value
over a :class:`~repro.network.transport.Transport` so communication is
*counted*, not assumed.  The default transport wraps the in-process
:class:`~repro.network.simulator.SynchronousNetwork`; the asyncio-socket
transport runs the same state machines over localhost TCP (see
``docs/TRANSPORTS.md``).  The orchestrator is a stand-in for lockstep
execution: it contains no mechanism logic of its own — every decision is
made inside an agent method — and merely sequences the rounds that the
paper's implicit synchronization barriers (step II.4) impose.

Message kinds (matching Fig. 2 top to bottom):

========================  =========================================  ============
kind                      content                                    field elems
========================  =========================================  ============
``share_bundle``          private ``(e, f, g, h)`` shares             4
``commitments``           published ``(O, Q, R)`` vectors             ``3 sigma``
``lambda_psi``            published ``(Lambda_i, Psi_i)``             2
``f_disclosure``          published ``(f, h)`` share row              ``2n``
``winner_claim``          published candidacy announcement            1
``second_price``          published ``(Lambda'_i, Psi'_i)``           2
``payment_claim``         vector sent to the payment escrow           ``n``
``*_complaint``           accusations (only under attack)             #accused
========================  =========================================  ============

Strong communication compatibility (Theorem 3) is vacuous in this model:
the network is obedient and no agent forwards another's messages — every
transmission goes directly from its producer to its consumers.

Termination semantics: when any agent aborts (a failed verification, a
short resolution, or a payment conflict), the entire execution is void —
no allocation, no payments, utility zero for everyone — matching the
proofs of Theorems 4 and 8.

Graceful degradation (``execute(..., degraded=True)``) relaxes the
all-or-nothing rule at *task* granularity while keeping it at *claim*
granularity: the paper's auctions are "parallel and independent", so an
abort provoked inside task ``t``'s auction condemns only that auction —
the task is **quarantined** (no allocation, no payment for it, the abort
recorded in :attr:`DMWOutcome.task_aborts`) and every other task proceeds
exactly as it would have in a fault-free run.  A payment-phase conflict
still voids the whole execution: the escrow's unanimity rule is what
keeps a false claim from ever costing an honest agent, and it has no
per-task structure to degrade along.  See ``docs/RESILIENCE.md``.
"""

from __future__ import annotations

import os
import random
from typing import (TYPE_CHECKING, Any, Callable, Dict, List, Optional,
                    Sequence, Set, Tuple, Union)

if TYPE_CHECKING:  # pragma: no cover - import for annotations only
    from .checkpoint import ProtocolCheckpoint

from ..crypto.fastexp import PublicValueCache
from ..network.faults import FaultPlan
from ..network.simulator import SynchronousNetwork
from ..network.transport import (InProcessTransport, Transport,
                                 create_transport)
from ..obs.recorder import KIND_RUN, KIND_TASK, PAYMENTS_PHASE, Recorder
from ..scheduling.problem import SchedulingProblem
from ..scheduling.schedule import PartialSchedule, Schedule
from .agent import DMWAgent
from .exceptions import ParameterError, ProtocolAbort
from .machine import AgentMachine, Boards
from .outcome import AuctionTranscript, DMWOutcome
from .parameters import DMWParameters
from .payments import PaymentInfrastructure
from .resolution import ResolutionError


class DMWProtocol:
    """One DMW execution over ``m`` tasks.

    Parameters
    ----------
    parameters:
        The published Phase I parameters.
    agents:
        One agent per pseudonym, honest or deviating, in index order.
    fault_plan:
        Optional substrate fault injection.
    recorder:
        Optional :class:`~repro.obs.recorder.Recorder`, installed on the
        network.  The driver records nested ``run -> task -> phase``
        spans, whose operation and network deltas partition the
        execution totals exactly, and each protocol event once; the
        network adds one ``network_round`` event per barrier and, when
        the recorder has a message capacity, the message events (see
        ``docs/OBSERVABILITY.md``).  When omitted, the driver uses the
        network's recorder: the allocation-free
        :data:`~repro.obs.recorder.NULL_RECORDER` unless the caller
        installed one on a network it built.
    """

    def __init__(self, parameters: DMWParameters,
                 agents: Sequence[DMWAgent],
                 fault_plan: Optional[FaultPlan] = None,
                 record_deliveries: bool = False,
                 network: Optional[SynchronousNetwork] = None,
                 recorder: Optional[Recorder] = None,
                 transport: Optional[Transport] = None) -> None:
        if len(agents) != parameters.num_agents:
            raise ParameterError(
                "got %d agents for %d pseudonyms"
                % (len(agents), parameters.num_agents)
            )
        for index, agent in enumerate(agents):
            if agent.index != index:
                raise ParameterError(
                    "agent at position %d has index %d" % (index, agent.index)
                )
        self.parameters = parameters
        self.agents = list(agents)
        #: One receive/act/send state machine per agent, stepped by the
        #: barrier driver through the round barrier of ``self.transport``.
        self.machines = [AgentMachine(agent) for agent in self.agents]
        # Participant n is the payment infrastructure's network endpoint.
        if transport is not None:
            if network is not None:
                raise ParameterError(
                    "pass either a network or a transport, not both")
            view = transport.network_view()
            if view.num_agents != parameters.num_agents or \
                    view.num_participants != parameters.num_agents + 1:
                raise ParameterError(
                    "supplied transport must carry n agents plus the "
                    "payment infrastructure endpoint"
                )
            self.transport = transport
            # ``self.network`` stays the duck-typed state view so
            # checkpoints, the process pool, and observability bindings
            # remain transport-agnostic.
            self.network = view
        elif network is not None:
            if network.num_agents != parameters.num_agents or \
                    network.num_participants != parameters.num_agents + 1:
                raise ParameterError(
                    "supplied network must have n agents plus the payment "
                    "infrastructure endpoint"
                )
            self.network = network
            self.transport = InProcessTransport(network)
        else:
            self.network = SynchronousNetwork(
                parameters.num_agents, fault_plan=fault_plan,
                extra_participants=1, record_deliveries=record_deliveries,
            )
            self.transport = InProcessTransport(self.network)
        # DMW's published values are part of the audit trail the escrow
        # may later need, so the payment endpoint is *explicitly* included
        # in every broadcast (n expanded copies: n - 1 agents plus the
        # endpoint — the accounting the Theorem 11 tests pin down).
        self.network.broadcast_to_extras = True
        self.infrastructure = PaymentInfrastructure(parameters.num_agents)
        if recorder is not None:
            self.network.recorder = recorder
        self.recorder = self.network.recorder
        self._transcripts: List[AuctionTranscript] = []
        self._task_aborts: Dict[int, ProtocolAbort] = {}
        self._shared_cache: Optional[PublicValueCache] = None
        self._degraded = False
        # Process-pool driver state: the merged per-shard cache statistics
        # (shards use per-task caches, so the shared cache's own counters
        # are not the execution's cache_stats) and the driver metadata
        # attached to the outcome's ``parallelism`` section.
        self._cache_stats_override: Optional[Dict[str, int]] = None
        self._parallelism: Dict[str, Any] = {}

    # -- helpers --------------------------------------------------------------
    @property
    def _infrastructure_id(self) -> int:
        return self.parameters.num_agents

    def _reference_agent(self) -> DMWAgent:
        """The lowest-indexed non-deviating agent (transcript source).

        Honest agents compute identical resolution results from the public
        transcript; the reference choice is bookkeeping, not protocol.
        """
        for agent in self.agents:
            if not getattr(agent, "is_deviant", False):
                return agent
        return self.agents[0]

    def _void(self, abort: ProtocolAbort) -> DMWOutcome:
        self.recorder.event("abort", task=abort.task, phase=abort.phase,
                            reason=abort.reason,
                            detected_by=abort.detected_by,
                            offender=abort.offender)
        self.recorder.abort_dump("abort: %s (task=%s phase=%s)"
                                 % (abort.reason, abort.task, abort.phase))
        return DMWOutcome(
            completed=False, schedule=None, payments=None,
            transcripts=list(self._transcripts), abort=abort,
            network_metrics=self.network.metrics,
            agent_operations=[agent.counter.snapshot()
                              for agent in self.agents],
            cache_stats=self._execution_cache_stats(),
            degraded=self._degraded,
            task_aborts=dict(self._task_aborts),
            parallelism=dict(self._parallelism),
        )

    def _execution_cache_stats(self) -> Dict[str, int]:
        """The outcome's ``cache_stats``: merged shard sums (pool driver)
        or the shared execution cache's own tallies (in-process drivers)."""
        if self._cache_stats_override is not None:
            return dict(self._cache_stats_override)
        if self._shared_cache is not None:
            return self._shared_cache.stats()
        return {}

    def _quarantine(self, task: int, abort: ProtocolAbort) -> None:
        """Degraded mode: condemn one auction instead of the whole run."""
        self._task_aborts[task] = abort
        self.recorder.event("task_quarantined", task=task,
                            phase=abort.phase, reason=abort.reason,
                            detected_by=abort.detected_by,
                            offender=abort.offender)
        self.recorder.abort_dump("task_quarantined: task %d (%s)"
                                 % (task, abort.reason))

    def _fail_task(self, task: int, abort: ProtocolAbort,
                   active: List[int]) -> Optional[ProtocolAbort]:
        """The one place that decides what a per-task abort does.

        Strict mode returns the abort (voiding the run); degraded mode
        quarantines the task, removes it from the active batch, and lets
        the remaining auctions continue.  Process-pool shards always run
        strict and hand the abort back; the parent quarantines it.
        """
        if not self._degraded:
            return abort
        self._quarantine(task, abort)
        active.remove(task)
        return None

    def _write_checkpoint(self, path: str, num_tasks: int,
                          next_task: int) -> None:
        """Persist a resume point at the current auction boundary."""
        # Imported lazily: serialization depends on core modules, so a
        # top-level import here would be circular.
        from ..serialization import save_checkpoint
        from .checkpoint import ProtocolCheckpoint
        checkpoint = ProtocolCheckpoint.capture(self, num_tasks, next_task)
        save_checkpoint(checkpoint, path)
        self.recorder.event("checkpoint_written", next_task=next_task)

    def _summed_operations(self) -> Dict[str, int]:
        """Sum of every agent's counter snapshot (the span ops source)."""
        totals: Dict[str, int] = {}
        for agent in self.agents:
            for key, value in agent.counter.snapshot().items():
                totals[key] = totals.get(key, 0) + value
        return totals

    # -- the barrier driver ---------------------------------------------------
    # One driver runs a *batch* of auctions.  Each phase is one pass of the
    # receive/act/send state machines over every task in the batch: every
    # machine queues its sends, the transport steps one round barrier, and
    # every machine absorbs its inbox before the act steps run.  The
    # paper's auctions are "parallel and independent" and step II.4 puts a
    # barrier between phases, so the batch size only chooses the schedule:
    # a batch of one task gives the sequential ``4m + 1`` rounds, a batch of
    # all ``m`` tasks the 5-7 round phase-barrier schedule, with identical
    # messages, computation, and outcomes (``tests/test_parallel.py``).
    def _run_auction(self, task: int) -> Optional[ProtocolAbort]:
        """Run one task's auction on barriers of its own."""
        with self.recorder.span("task", kind=KIND_TASK, task=task):
            return self._run_auctions([task])

    def _run_auctions(self, tasks: Sequence[int]) -> Optional[ProtocolAbort]:
        """Run a batch of auctions, each phase inside one shared barrier.

        Returns the abort that voids the run.  A task that fails in
        degraded mode is quarantined by :meth:`_fail_task` and leaves the
        batch; once no task is left, no further rounds run.
        """
        recorder = self.recorder
        for task in tasks:
            recorder.event("auction_start", task=task)
        active = list(tasks)
        # Phase spans name their task only when the batch is one auction.
        span_task = tasks[0] if len(tasks) == 1 else None
        with recorder.span("bidding", task=span_task):
            abort = self._run_bidding(active)
        if abort is not None or not active:
            return abort
        with recorder.span("aggregation", task=span_task):
            abort = self._run_aggregation(active)
        if abort is not None or not active:
            return abort
        with recorder.span("disclosure", task=span_task):
            abort = self._run_disclosure(active)
        if abort is not None or not active:
            return abort
        with recorder.span("resolution", task=span_task):
            abort = self._run_resolution(active)
        if abort is not None:
            return abort
        reference = self._reference_agent()
        for task in active:
            state = reference.task_state(task)
            recorder.event("auction_resolved", task=task,
                           first_price=state.first_price,
                           winner=state.winner,
                           second_price=state.second_price)
            self._transcripts.append(AuctionTranscript(
                task=task,
                first_price=state.first_price,
                winner=state.winner,
                second_price=state.second_price,
                valid_aggregate_publishers=tuple(sorted(
                    state.valid_lambdas)),
                valid_disclosers=tuple(sorted(state.valid_disclosures)),
            ))
        return None

    def _run_bidding(self, tasks: List[int]) -> Optional[ProtocolAbort]:
        """Phase II (encode, send bundles, publish commitments) plus the
        step III.1 share checks."""
        for task in tasks:
            for machine in self.machines:
                machine.send_bidding(task, self.transport)
        self.transport.step()
        for machine in self.machines:
            machine.recv_bidding(self.transport)
        return self._act_each(tasks, AgentMachine.act_check_shares)

    def _run_aggregation(self, tasks: List[int]) -> Optional[ProtocolAbort]:
        """Step III.2: publish, cross-validate, and arbitrate
        ``(Lambda, Psi)``; then resolve the first price."""
        for task in tasks:
            for machine in self.machines:
                machine.send_aggregates(task, self.transport)
        self.transport.step()
        boards: Boards = {}
        for machine in self.machines:
            machine.collect_published("lambda_psi", self.transport, boards)
        for task in tasks:
            self.recorder.event("aggregates_published", task=task,
                                publishers=sorted(boards.get(task, {})))
        self._run_complaints("aggregate_complaint", "aggregates", tasks,
                             boards, AgentMachine.act_validate_aggregates,
                             AgentMachine.act_arbitrate_aggregates)
        return self._act_each(tasks, AgentMachine.act_resolve_first)

    def _run_disclosure(self, tasks: List[int]) -> Optional[ProtocolAbort]:
        """Step III.3: the disclosure set publishes its ``(f, h)`` rows and
        the lowest bidders announce winner claims; then find the winner."""
        for task in tasks:
            for machine in self.machines:
                machine.send_disclosure(task, self.transport,
                                        self.parameters.num_agents)
        self.transport.step()
        rows: Boards = {}
        claims: Dict[int, List[int]] = {}
        for machine in self.machines:
            machine.collect_published("f_disclosure", self.transport, rows)
            machine.collect_claims(self.transport, claims)
        # Claimants in pseudonym order.
        claimants = {task: sorted(set(claims.get(task, [])),
                                  key=lambda i: self.parameters.pseudonyms[i])
                     for task in tasks}
        for task in tasks:
            self.recorder.event("disclosures_published", task=task,
                                disclosers=sorted(rows.get(task, {})),
                                claimants=claimants[task])
        self._run_complaints("disclosure_complaint", "disclosures", tasks,
                             rows, AgentMachine.act_validate_disclosures,
                             AgentMachine.act_arbitrate_disclosures)
        return self._act_each(
            tasks, lambda machine, task:
                machine.act_find_winner(task, claimants[task]))

    def _run_resolution(self, tasks: List[int]) -> Optional[ProtocolAbort]:
        """Step III.4: publish, cross-validate, and arbitrate the
        winner-excluded aggregates; then resolve the second price."""
        for task in tasks:
            for machine in self.machines:
                machine.send_second_price(task, self.transport)
        self.transport.step()
        boards: Boards = {}
        for machine in self.machines:
            machine.collect_published("second_price", self.transport, boards)
        self._run_complaints("second_price_complaint", "second_price", tasks,
                             boards, AgentMachine.act_validate_excluded,
                             AgentMachine.act_arbitrate_excluded)
        return self._act_each(tasks, AgentMachine.act_resolve_second)

    def _run_complaints(self, kind: str, stage: str, tasks: List[int],
                        boards: Boards,
                        validate: Callable[[AgentMachine, int, Dict[int, Any]],
                                           List[int]],
                        arbitrate: Callable[[AgentMachine, int,
                                             Dict[int, Any], List[int]],
                                            None]) -> None:
        """Cross-validate every task's board; settle the accusations.

        All of the batch's accusations share one complaint barrier, and
        ``arbitrate`` applies the verdict per machine once each task's
        union is known.  Skipped entirely (no extra round, no messages)
        when nobody complains — the honest-path common case, which keeps
        the protocol at the Theorem 11 message budget.
        """
        complaints_by_agent: Dict[int, List[Tuple[int, int]]] = {}
        for task in tasks:
            board = boards.get(task, {})
            for machine in self.machines:
                for accused in validate(machine, task, board):
                    complaints_by_agent.setdefault(machine.index, []).append(
                        (task, accused))
        if not complaints_by_agent:
            return
        for agent_index, complaints in complaints_by_agent.items():
            self.transport.publish(agent_index, kind, complaints,
                                   field_elements=len(complaints))
        self.transport.step()
        union: Dict[int, Set[int]] = {}
        for machine in self.machines:
            for message in machine.drain(kind, self.transport):
                for task, accused in message.payload:
                    union.setdefault(task, set()).add(accused)
        for task, accused in union.items():
            self.recorder.event("complaints", task=task, stage=stage,
                                accused=sorted(accused))
            for machine in self.machines:
                arbitrate(machine, task, boards.get(task, {}),
                          sorted(accused))

    def _act_each(self, tasks: List[int],
                  act: Callable[[AgentMachine, int], Optional[ProtocolAbort]]
                  ) -> Optional[ProtocolAbort]:
        """Run one act step on every machine for every task in the batch.

        A task fails at the first abort its act step returns, or with an
        ``allocating`` abort when resolution cannot complete;
        :meth:`_fail_task` then voids the run or quarantines the task.
        """
        for task in list(tasks):
            abort = None
            try:
                for machine in self.machines:
                    abort = act(machine, task)
                    if abort is not None:
                        break
            except ResolutionError as error:
                abort = ProtocolAbort(str(error), phase="allocating",
                                      task=task)
            if abort is not None and \
                    self._fail_task(task, abort, tasks) is not None:
                return abort
        return None

    def _run_payments(self, completed_tasks: Optional[List[int]] = None
                      ) -> Optional[ProtocolAbort]:
        """Phase IV: collect claims and ask the escrow to decide.

        ``completed_tasks`` restricts every claim to the given tasks
        (degraded mode: quarantined auctions pay nothing); ``None`` claims
        over every task.
        """
        for machine in self.machines:
            try:
                machine.send_payment_claim(self.transport,
                                           self._infrastructure_id,
                                           self.parameters.num_agents,
                                           completed_tasks)
            except ProtocolAbort as abort:
                return abort
        self.transport.step()
        for message in self.transport.receive(self._infrastructure_id,
                                              "payment_claim"):
            self.infrastructure.submit_claim(message.sender, message.payload)
        decision = self.infrastructure.decide()
        if not decision.dispensed:
            return ProtocolAbort(
                "payment claims conflict (agents %s); no payments dispensed"
                % (decision.conflicting_agents,),
                phase="payments",
            )
        self.recorder.event("payments_dispensed",
                            payments=list(decision.payments))
        self._decision = decision
        return None

    # -- public API -----------------------------------------------------------
    def execute(self, num_tasks: int, parallel: bool = False,
                degraded: bool = False,
                checkpoint_path: Optional[str] = None,
                resume: Optional["ProtocolCheckpoint"] = None,
                workers: Optional[int] = None,
                warm_cache: Optional[PublicValueCache] = None,
                pool: Optional[Any] = None) -> DMWOutcome:
        """Run all ``num_tasks`` auctions plus the payments phase.

        Parameters
        ----------
        num_tasks:
            Number of auctions ``m``.
        parallel:
            How the auctions share round barriers.  Every path runs the
            same barrier driver over a batch of tasks.  False runs one
            task per batch, auction after auction: the sequential
            ``4m + 1`` round schedule.  True without ``workers`` (and
            without checkpoint/resume) runs all ``m`` tasks as one batch,
            every phase of every auction inside one shared barrier (the
            paper's "parallel and independent" reading): 5-7 rounds
            total, identical messages and outcomes.  With ``workers`` (or
            with ``checkpoint_path``/``resume``, which imply the pool)
            the process-pool engine in :mod:`repro.parallel` runs each
            one-task batch in a worker process and merges the results
            back deterministically — outcomes, transcripts, payments, and
            per-agent operation counts are bit-identical to the
            sequential schedule (see ``docs/PERFORMANCE.md``).
        degraded:
            When True, a per-task abort quarantines that auction instead
            of voiding the run: surviving tasks complete with transcripts
            and payments identical to a fault-free execution restricted
            to them, and the outcome carries a
            :class:`~repro.scheduling.schedule.PartialSchedule` plus the
            per-task aborts.  A payment-escrow conflict still voids the
            whole execution (see ``docs/RESILIENCE.md``).  Pool shards
            run strict and return their abort; the parent quarantines
            it.
        checkpoint_path:
            When given, a ``dmw_checkpoint`` document is written to this
            path after every completed (or quarantined) auction — the
            sequential driver's prefix boundary, or the process-pool
            driver's completed-auction frontier — so a crashed
            orchestrator can be resumed from the last boundary.  The
            phase-barrier driver (``parallel=True`` without ``workers``)
            has no quiescent auction boundary, so combining it with
            checkpointing routes the run through the process pool.
        resume:
            A :class:`~repro.core.checkpoint.ProtocolCheckpoint` to
            restore before running: auctions inside the checkpoint's
            completed frontier are skipped and the execution runs exactly
            the remaining ones, producing an outcome identical to the
            uninterrupted run — ``cache_stats`` included, since the
            checkpoint carries the public-value cache state.  The
            protocol must be freshly constructed with the original
            configuration.
        workers:
            Number of OS processes for the process-pool engine; requires
            ``parallel=True``.  ``workers=1`` exercises the pool
            machinery on a single worker (useful for differential
            tests).
        warm_cache:
            An externally prepared :class:`PublicValueCache` to use as
            the execution's shared cache instead of a fresh one: the
            service's warm store seeds it with earlier same-group jobs'
            public entries.  Call sites charge the analytic schedule on
            hits, so only ``cache_stats`` and wall-clock differ.  The
            pool driver rejects it with :class:`ParameterError`: pool
            shards always start cold.
        pool:
            A live ``ProcessPoolExecutor`` to run pool shards on instead
            of a per-call executor (requires the pool driver to be
            selected).  A long-lived daemon keeps one resident pool
            across jobs; each shard re-installs its job's
            :class:`~repro.parallel.PoolSpec` (and arithmetic backend)
            when it differs from the worker's installed one.
        """
        if workers is not None:
            if not parallel:
                raise ParameterError(
                    "workers=%d requires parallel=True" % workers)
            if workers < 1:
                raise ParameterError("workers must be >= 1, got %d" % workers)
        # checkpoint/resume needs a quiescent auction boundary; the
        # phase-barrier driver has none, so those runs go through the
        # process pool (which checkpoints at its completed-task frontier).
        use_pool = parallel and (
            workers is not None or checkpoint_path is not None
            or resume is not None)
        if use_pool and workers is None:
            workers = os.cpu_count() or 1
        if use_pool and warm_cache is not None:
            raise ParameterError(
                "warm_cache is in-process only; pool shards start cold")
        if resume is not None:
            if resume.num_tasks != num_tasks:
                raise ParameterError(
                    "checkpoint covers %d tasks, execute() asked for %d"
                    % (resume.num_tasks, num_tasks)
                )
            if resume.degraded != degraded:
                raise ParameterError(
                    "checkpoint was taken with degraded=%s; resume must "
                    "use the same mode" % resume.degraded
                )
        # One execution-scoped public-value cache, shared by every agent:
        # the cached quantities (commitment evaluations, Lagrange weights,
        # resolution results) are functions of *published* data only, so
        # sharing leaks nothing, and each agent's OperationCounter is still
        # charged the full analytic schedule on every hit (see
        # docs/PERFORMANCE.md).  A fresh cache per execute() call keeps
        # auctions from different executions fully isolated; the service
        # warms its in-process jobs by passing a pre-seeded cache.
        shared_cache = (warm_cache if warm_cache is not None
                        else PublicValueCache())
        for agent in self.agents:
            agent.adopt_cache(shared_cache)
        self._shared_cache = shared_cache
        self._degraded = degraded
        skip: Set[int] = set()
        if resume is not None:
            # Restore happens before the recorder binds its delta sources,
            # so the run span measures only post-resume work and the
            # phase-partition invariant is preserved.
            resume.apply(self)
            skip = resume.completed_set()
            self.recorder.event("resumed", next_task=resume.next_task,
                                completed=len(self._transcripts),
                                quarantined=sorted(self._task_aborts))
        if use_pool:
            # The pool's shards each use a fresh per-task cache; the
            # execution's cache_stats are the merged per-shard sums,
            # accumulated here (continuing a resumed run's saved tallies).
            override: Dict[str, int] = {
                key: 0 for key in shared_cache.stats()}
            if resume is not None:
                for key, value in (resume.cache_state.get("stats")
                                   or {}).items():
                    override[key] = int(value)
            self._cache_stats_override = override
            self._parallelism = {"workers": workers,
                                 "tasks_pooled": num_tasks - len(skip)}
        recorder = self.recorder
        if recorder.enabled:
            # Delta sources for the span attribution: summed counted work
            # across agents and the network's running metric totals.
            recorder.bind(self._summed_operations,
                          self.network.metrics.as_dict)
        with recorder.span("run", kind=KIND_RUN, num_tasks=num_tasks,
                           num_agents=self.parameters.num_agents,
                           parallel=parallel, workers=workers):
            if use_pool:
                # Imported lazily: repro.parallel imports core modules, so
                # a top-level import here would be circular.
                from ..parallel import run_pool_auctions
                assert workers is not None
                abort = run_pool_auctions(self, num_tasks, workers,
                                          checkpoint_path, pool=pool)
                if abort is not None:
                    return self._void(abort)
            elif parallel:
                abort = self._run_auctions(range(num_tasks))
                if abort is not None:
                    return self._void(abort)
            else:
                for task in range(num_tasks):
                    if task in skip:
                        continue
                    abort = self._run_auction(task)
                    if abort is not None:
                        return self._void(abort)
                    if checkpoint_path is not None:
                        self._write_checkpoint(checkpoint_path, num_tasks,
                                               task + 1)
            # Resuming from a mid-run frontier can append transcripts out
            # of task order; payments and the outcome expect task order.
            self._transcripts.sort(key=lambda t: t.task)
            completed_tasks = sorted(t.task for t in self._transcripts)
            with recorder.span(PAYMENTS_PHASE):
                abort = self._run_payments(
                    completed_tasks if degraded else None)
            if abort is not None:
                return self._void(abort)
            return self._build_completed_outcome(num_tasks)

    def _build_completed_outcome(self, num_tasks: int) -> DMWOutcome:
        """Assemble the outcome once payments have been dispensed."""
        if self._task_aborts:
            partial: List[Optional[int]] = [None] * num_tasks
            for transcript in self._transcripts:
                partial[transcript.task] = transcript.winner
            schedule: object = PartialSchedule(partial,
                                               self.parameters.num_agents)
        else:
            assignment = [0] * num_tasks
            for transcript in self._transcripts:
                assignment[transcript.task] = transcript.winner
            schedule = Schedule(assignment, self.parameters.num_agents)
        return DMWOutcome(
            completed=True, schedule=schedule,
            payments=self._decision.payments,
            transcripts=list(self._transcripts), abort=None,
            network_metrics=self.network.metrics,
            agent_operations=[agent.counter.snapshot()
                              for agent in self.agents],
            cache_stats=self._execution_cache_stats(),
            degraded=self._degraded,
            task_aborts=dict(self._task_aborts),
            parallelism=dict(self._parallelism),
        )


def run_dmw(problem: SchedulingProblem,
            parameters: Optional[DMWParameters] = None,
            fault_bound: int = 1,
            rng: Optional[random.Random] = None,
            group_size: str = "small",
            parallel: bool = False,
            degraded: bool = False,
            recorder: Optional[Recorder] = None,
            workers: Optional[int] = None,
            transport: Optional[Union[str, Transport]] = None) -> DMWOutcome:
    """Convenience entry point: run DMW on an integer-valued instance.

    Every ``t_i^j`` must be an integer in the (derived or given) bid set
    ``W``; use :func:`repro.scheduling.workloads.discretize_to_bid_set`
    for continuous instances.

    Parameters
    ----------
    problem:
        The instance whose times are the agents' true values.
    parameters:
        Pre-built protocol parameters; generated from the problem shape
        when omitted.
    fault_bound:
        ``c``, used only when generating parameters.
    rng:
        Seeds the per-agent private randomness streams.
    group_size:
        Cryptographic fixture size when generating parameters.
    recorder:
        Optional :class:`~repro.obs.recorder.Recorder` for the run's
        spans, protocol events and (with a message capacity) message
        events (see ``docs/OBSERVABILITY.md``).
    workers:
        With ``parallel=True``, shard the auctions across this many OS
        processes via the pool engine (:mod:`repro.parallel`).
    transport:
        Optional :class:`~repro.network.transport.Transport` (or a name
        accepted by :func:`~repro.network.transport.create_transport`,
        e.g. ``"asyncio"``) to carry the protocol's messages.  A
        transport built here from a name is closed before returning.
    """
    rng = rng or random.Random(0)
    if parameters is None:
        parameters = DMWParameters.generate(problem.num_agents,
                                            fault_bound=fault_bound,
                                            group_size=group_size)
    agents = []
    for index in range(problem.num_agents):
        values = [int(problem.time(index, task))
                  for task in range(problem.num_tasks)]
        agents.append(DMWAgent(index, parameters, values,
                               rng=random.Random(rng.getrandbits(64))))
    owned_transport: Optional[Transport] = None
    if isinstance(transport, str):
        if transport == "inprocess":
            transport = None  # the default self-built simulator path
        else:
            transport = owned_transport = create_transport(
                transport, parameters.num_agents)
    try:
        protocol = DMWProtocol(parameters, agents, recorder=recorder,
                               transport=transport)
        return protocol.execute(problem.num_tasks, parallel=parallel,
                                degraded=degraded, workers=workers)
    finally:
        if owned_transport is not None:
            owned_transport.close()
