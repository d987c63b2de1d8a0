"""Process-pool execution engine: the ``m`` auctions across N OS processes.

The paper's auctions are "parallel and independent" — nothing computed in
task ``j``'s auction feeds task ``k``'s.  ``DMWProtocol`` has one barrier
driver over a batch of tasks; batching all ``m`` tasks
(``execute(parallel=True)``) compresses *rounds* (``4m + 1`` down to 5)
but still serialises all computation on one core.  This module adds the
missing axis: ``execute(parallel=True, workers=N)`` runs the same driver
on one-task batches in ``N`` worker *processes* and deterministically
merges the results back into the parent protocol, bit-identical to the
sequential schedule.

Determinism contract (``docs/PERFORMANCE.md``)
----------------------------------------------
* **Private randomness** is drawn from per-``(agent, task)`` substreams:
  :meth:`~repro.core.agent.DMWAgent.task_rng` hashes the agent's
  ``rng_root`` (itself derived from the run seed at construction) with
  the task index, so the polynomial coefficients for a given task are a
  pure function of ``(seed, task)`` — independent of execution order,
  interleaving, and process boundaries.  Every driver uses the same
  substreams, so outcomes, transcripts, and per-agent
  :class:`~repro.crypto.modular.OperationCounter` totals are identical
  across drivers by construction.
* **Work units** are picklable ``(PoolSpec, task)`` pairs: the worker
  installs the :class:`PoolSpec` (parameters, true values, rng roots)
  whenever it differs from the one it already holds.  Nothing secret
  crosses the process boundary that the agents would not have derived
  themselves, and no cache entry crosses it at all, so a unit stays the
  same few hundred bytes however warm the parent's caches are; shard
  *results* carry only public data (the transcript, accounting totals,
  the shard's recording).
* **Dispatch is batched and the merge is ordered**: tasks are submitted
  in deterministic batches of ``workers`` and merged strictly in task
  order, so the frontier only ever grows as a prefix of the remaining
  tasks, the merged events keep the sequential driver's order, and
  a strict-mode abort voids the run with exactly the accounting the
  sequential driver would have accumulated (completed tasks before the
  aborting one, plus the aborting auction's partial work — shards after
  the lowest aborting task are discarded unmerged).
* **Shards run strict**: a shard hands its abort back and the parent
  decides, voiding the run in strict mode or quarantining the task in
  degraded mode, so every quarantine is recorded exactly once.

Merge semantics
---------------
Each shard runs the full auction for one task on a fresh network with
fresh zeroed counters and a fresh per-task
:class:`~repro.crypto.fastexp.PublicValueCache`.  The parent folds, per
shard and in task order:

* per-agent operation counters (additive) and verification tallies;
* :class:`~repro.network.metrics.NetworkMetrics` totals and the round
  index (per-task rounds sum back to the sequential ``4m`` total);
* the public transcript, including the winner/price fields the payments
  phase reads from each parent agent's task state;
* cache statistics (per-task sums — see the note below);
* the shard's recording: when the parent has a
  :class:`~repro.obs.recorder.Recorder`, each shard records into a fresh
  one of the same message capacity and exports it as one document, and
  the parent ingests it with one id shift and one time offset
  (:meth:`~repro.obs.recorder.Recorder.ingest`).  Spans, protocol events
  and message events share one id space, so the shift keeps every id
  unique and every reference intact; the shard's roots attach to the
  open ``run`` span; the offset moves the whole shard so it ends at the
  merge instant, keeping its own durations and gaps (each event lies
  inside the span it names).  The span deltas are untouched, so the
  phase partition of ``validate_run_report`` holds exactly on the
  merged report.  Round numbers in a shard's records count the shard's
  own barriers.

The one documented accounting difference vs. the sequential driver is
``cache_stats``: the sequential driver shares one cache across all ``m``
auctions (cross-task Lagrange-weight hits), while the pool driver's
shards use per-task caches.  The merged statistics are the deterministic
per-task sums — identical for every ``workers`` count ≥ 1 (pinned by
``tests/test_process_pool.py``) — but not equal to the shared-cache
numbers.  They are also what a service pool job reports, because the
daemon's warm store never seeds a shard.  Counters are unaffected either
way: the analytic schedule is charged on cache hits too
(``docs/PERFORMANCE.md``).

Checkpointing
-------------
With ``checkpoint_path`` the parent writes a *completed-auction frontier*
checkpoint after every merged task, carrying the cumulative merged cache
statistics; a killed run resumes (``resume=...``) by re-running exactly
the tasks outside the frontier and produces an outcome identical to the
uninterrupted run, ``cache_stats`` included (``docs/RESILIENCE.md``).

Scope: the pool driver covers the fault-free fast path — plain
:class:`~repro.core.agent.DMWAgent` strategies over an obedient
:class:`~repro.network.simulator.SynchronousNetwork`.  Deviation studies,
fault injection, and latency/timeout models run in-process, where the
driver simulates those adversarial schedules faithfully; the engine rejects
unsupported configurations with :class:`~repro.core.exceptions.ParameterError`
rather than silently dropping the fault plan.
"""

from __future__ import annotations

import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from .core.agent import DMWAgent
from .core.exceptions import ParameterError, ProtocolAbort
from .crypto import backend as crypto_backend
from .core.outcome import AuctionTranscript
from .crypto.fastexp import PublicValueCache, merge_cache_stats
from .crypto.modular import OperationCounter
from .network.simulator import SynchronousNetwork
from .obs.profile import PhaseProfiler
from .obs.recorder import Recorder

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .core.protocol import DMWProtocol

#: Test hook invoked after each shard merge (and checkpoint write) with
#: the just-merged :class:`ShardResult`; ``tests/test_process_pool.py``
#: raises from it to simulate a crash between frontier checkpoints.
_POST_MERGE_HOOK: Optional[Callable[["ShardResult"], None]] = None


@dataclass(frozen=True)
class PoolSpec:
    """Everything a worker process needs to rebuild the execution context.

    Shipped with every unit of work and installed by
    :func:`_run_shard_with_spec`; deliberately tiny and picklable
    (parameters are a few hundred bytes).  ``rng_roots`` are the parent
    agents' substream roots, so worker-side agents derive exactly the
    parent's per-task randomness.  It carries no cache state: every shard
    starts from a fresh :class:`PublicValueCache`.
    """

    parameters: Any
    true_values: Tuple[Tuple[int, ...], ...]
    rng_roots: Tuple[int, ...]
    #: Recording: ``None`` when the parent records nothing, else the
    #: parent recorder's message capacity, which each shard's own
    #: recorder gets too (``0`` records spans and protocol events only).
    message_capacity: Optional[int] = None
    #: Phase profiling: when on, each shard profiles its phase spans and
    #: ships the per-phase aggregate for additive merging.
    profile: bool = False
    #: Arithmetic engine selected in the parent (``"python"``/``"gmpy2"``);
    #: carried by *name* so the worker re-selects it after unpickling.
    #: Non-strict selection: a worker that cannot import the engine falls
    #: back to pure python and still produces the identical outcome
    #: (backends never change counted or computed values).
    backend: str = "python"


@dataclass
class ShardResult:
    """One task's auction, fully accounted, as returned by a worker."""

    task: int
    abort: Optional[ProtocolAbort]
    transcript: Optional[AuctionTranscript]
    agent_operations: List[Dict[str, int]] = field(default_factory=list)
    check_stats: List[List[Tuple[Tuple[str, bool], int]]] = \
        field(default_factory=list)
    network_totals: Dict[str, int] = field(default_factory=dict)
    round_index: int = 0
    cache_stats: Dict[str, int] = field(default_factory=dict)
    #: The shard recorder's :meth:`~repro.obs.recorder.Recorder.export`
    #: (``None`` when the parent records nothing).
    recording: Optional[Dict[str, Any]] = None


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------

_SPEC: Optional[PoolSpec] = None


def _init_worker(spec: PoolSpec) -> None:
    """Install ``spec`` as this worker process's execution context.

    Also re-selects the parent's arithmetic backend by name — module
    globals do not survive the process boundary, so the engine choice
    must be re-established in every worker.
    """
    global _SPEC
    # The one sanctioned per-process install point, value-guarded by
    # _run_shard_with_spec: a recycled worker only ever reinstalls the
    # spec of the job whose task it is about to run.
    _SPEC = spec  # dmwlint: disable=DMW011
    crypto_backend.select_backend(spec.backend)


def _run_shard_with_spec(work: Tuple[PoolSpec, int]) -> ShardResult:
    """Shard entry point for every pool, owned or resident.

    Worker processes may serve many jobs with different specs (and
    possibly different arithmetic backends) — the always-on service
    keeps one resident pool across jobs — so each unit of work carries
    its job's spec and the worker re-installs it, backend selection
    included, whenever it differs from the one already installed.
    ``PoolSpec`` is a frozen dataclass, so the equality check compares
    by value across the pickle boundary.
    """
    spec, task = work
    if _SPEC != spec:
        _init_worker(spec)
    return _run_shard(task)


def _run_shard(task: int) -> ShardResult:
    """Run one task's full auction in this worker and account it.

    Builds a fresh, self-contained execution context — agents seeded
    with the parent's substream roots, an obedient synchronous network,
    a per-task public-value cache — and runs the barrier driver on the
    one-task batch through ``DMWProtocol._run_auction``, exactly as the
    sequential schedule does, so the shard's counters, messages, rounds
    and recording are what the sequential schedule would have recorded
    for this task.  The shard runs strict: an abort comes back
    in the result for the parent to void or quarantine (a shard that
    quarantined on its own would have no transcript to return, and the
    parent would record the quarantine twice).
    """
    spec = _SPEC
    if spec is None:  # pragma: no cover - entry-point contract
        raise RuntimeError("worker used before _init_worker installed a spec")
    # Local import: repro.core.protocol imports this module lazily, so the
    # reverse import must happen at call time to stay cycle-free.
    from .core.protocol import DMWProtocol

    agents = []
    for index in range(spec.parameters.num_agents):
        agent = DMWAgent(index, spec.parameters,
                         list(spec.true_values[index]),
                         rng=random.Random(0))
        # Adopt the parent's substream root: task_rng(task) now yields the
        # exact coefficients the parent's agent would have drawn.
        agent.rng_root = spec.rng_roots[index]
        agents.append(agent)
    recorder = None
    if spec.message_capacity is not None:
        recorder = Recorder(message_capacity=spec.message_capacity)
        if spec.profile:
            recorder.profiler = PhaseProfiler()
    protocol = DMWProtocol(spec.parameters, agents, recorder=recorder)
    cache = PublicValueCache()
    for agent in agents:
        agent.adopt_cache(cache)
    protocol._shared_cache = cache
    if recorder is not None:
        recorder.bind(protocol._summed_operations,
                      protocol.network.metrics.as_dict)

    abort = protocol._run_auction(task)

    transcript = None
    if abort is None:
        transcript = protocol._transcripts[-1]
    return ShardResult(
        task=task,
        abort=abort,
        transcript=transcript,
        agent_operations=[agent.counter.snapshot() for agent in agents],
        check_stats=[list(agent.check_stats.items()) for agent in agents],
        network_totals=protocol.network.metrics.as_dict(),
        round_index=protocol.network.round_index,
        cache_stats=cache.stats(),
        recording=recorder.export() if recorder is not None else None,
    )


# ---------------------------------------------------------------------------
# Parent side: validation, merge, drive
# ---------------------------------------------------------------------------

def _plan_is_obedient(plan: Any) -> bool:
    """True iff the fault plan injects nothing (Theorem 3's network)."""
    return (not plan.crashed_from_round and not plan.dropped_links
            and not plan.drop_probability and not plan.corruptors)


def _validate_poolable(protocol: "DMWProtocol") -> None:
    """Reject configurations the process-pool driver cannot shard.

    The shards rebuild the execution context inside worker processes;
    anything that cannot be reconstructed faithfully there — deviating
    agent strategies, injected faults, timeout/latency network models,
    delivery recording — must use the in-process drivers instead.
    """
    for agent in protocol.agents:
        if type(agent) is not DMWAgent:
            raise ParameterError(
                "process-pool driver requires plain DMWAgent strategies; "
                "agent %d is %s (use the sequential or phase-barrier "
                "driver for deviation studies)"
                % (agent.index, type(agent).__name__))
    network = protocol.network
    if type(network) is not SynchronousNetwork:
        raise ParameterError(
            "process-pool driver requires the plain SynchronousNetwork; "
            "got %s (timeout/latency models are in-process only)"
            % type(network).__name__)
    if not _plan_is_obedient(network.fault_plan):
        raise ParameterError(
            "process-pool driver requires an obedient fault plan; "
            "fault injection studies use the in-process drivers")
    if network.record_deliveries:
        raise ParameterError(
            "process-pool driver does not reconstruct per-copy delivery "
            "logs; disable record_deliveries")


def _metrics_from_totals_dict(totals: Dict[str, int]) -> Any:
    from .core.checkpoint import _metrics_from_totals
    return _metrics_from_totals(totals)


def _merge_shard(protocol: "DMWProtocol", result: ShardResult) -> None:
    """Fold one shard's accounting into the parent protocol (additive).

    Mirrors :meth:`~repro.core.checkpoint.ProtocolCheckpoint.apply`:
    counters and network totals continue from the parent's state, the
    transcript's public results are installed into every parent agent's
    task state (what the payments phase reads), and the shard's recording
    is ingested into the parent recorder.  Merging is additive and
    per-task, so the final state after merging all shards in task order
    equals the sequential driver's state exactly.
    """
    for agent, operations, tallies in zip(protocol.agents,
                                          result.agent_operations,
                                          result.check_stats):
        delta = OperationCounter()
        delta.restore(operations)
        agent.counter.merge(delta)
        agent.check_stats.merge(tallies)
    protocol.network.metrics.merge(
        _metrics_from_totals_dict(result.network_totals))
    protocol.network.round_index += result.round_index
    if result.transcript is not None:
        transcript = result.transcript
        for agent in protocol.agents:
            state = agent.task_state(transcript.task)
            state.first_price = transcript.first_price
            state.winner = transcript.winner
            state.second_price = transcript.second_price
        protocol._transcripts.append(transcript)
    if protocol._cache_stats_override is not None:
        merge_cache_stats(protocol._cache_stats_override, result.cache_stats)
    if result.recording is not None:
        protocol.recorder.ingest(result.recording)


def _batches(items: List[int], size: int) -> List[List[int]]:
    return [items[start:start + size]
            for start in range(0, len(items), size)]


def run_pool_auctions(protocol: "DMWProtocol", num_tasks: int, workers: int,
                      checkpoint_path: Optional[str],
                      pool: Optional[ProcessPoolExecutor] = None
                      ) -> Optional[ProtocolAbort]:
    """Drive the remaining auctions through a process pool and merge.

    Called by :meth:`~repro.core.protocol.DMWProtocol.execute` inside the
    open ``run`` span, after any ``resume`` checkpoint has been applied.
    Returns the abort that voids the run (strict mode), or ``None``.

    Parameters
    ----------
    pool:
        A resident executor to reuse across jobs (the always-on
        service).  When omitted, a per-call executor is created and torn
        down here.  Either way each unit of work carries the job's spec
        and is installed worker-side by :func:`_run_shard_with_spec`.
        Every shard starts from a fresh per-task cache: no cache entry
        crosses the process boundary, whichever pool runs it.
    """
    _validate_poolable(protocol)
    done = {t.task for t in protocol._transcripts}
    done.update(protocol._task_aborts)
    remaining = [task for task in range(num_tasks) if task not in done]
    recorder = protocol.recorder
    spec = PoolSpec(
        parameters=protocol.parameters,
        true_values=tuple(tuple(agent.true_values)
                          for agent in protocol.agents),
        rng_roots=tuple(agent.rng_root for agent in protocol.agents),
        message_capacity=(recorder.message_capacity if recorder.enabled
                          else None),
        profile=recorder.profiler is not None,
        backend=crypto_backend.ACTIVE.name,
    )
    if not remaining:
        return None
    if pool is not None:
        return _drive_pool(protocol, pool, spec, remaining, num_tasks,
                           workers, checkpoint_path)
    with ProcessPoolExecutor(max_workers=workers) as owned_pool:
        return _drive_pool(protocol, owned_pool, spec, remaining, num_tasks,
                           workers, checkpoint_path)


def _drive_pool(protocol: "DMWProtocol", pool: ProcessPoolExecutor,
                spec: PoolSpec, remaining: List[int], num_tasks: int,
                workers: int, checkpoint_path: Optional[str]
                ) -> Optional[ProtocolAbort]:
    """Submit batches, merge results in task order, checkpoint frontiers."""
    batch_count = 0
    for batch in _batches(remaining, workers):
        batch_count += 1
        futures = [pool.submit(_run_shard_with_spec, (spec, task))
                   for task in batch]
        # Deterministic ordered merge: results are consumed in task
        # order regardless of which worker finishes first.
        for future in futures:
            result = future.result()
            if result.abort is not None and not protocol._degraded:
                # Strict mode: merge the aborting auction's partial
                # accounting (the sequential driver charges it too),
                # discard everything after it, and void the run.
                _merge_shard(protocol, result)
                protocol._parallelism["batches"] = batch_count
                return result.abort
            _merge_shard(protocol, result)
            if result.abort is not None:
                protocol._quarantine(result.task, result.abort)
            if checkpoint_path is not None:
                protocol._write_checkpoint(checkpoint_path, num_tasks,
                                           result.task + 1)
            if _POST_MERGE_HOOK is not None:
                _POST_MERGE_HOOK(result)
    protocol._parallelism["batches"] = batch_count
    return None
