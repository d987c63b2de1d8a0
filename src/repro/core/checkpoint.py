"""Checkpoint/resume: serializable protocol state at auction boundaries.

Both drivers that support checkpointing reach *quiescent* boundaries —
instants where every inbox is drained and no message is in flight:

* the **sequential driver** after each completed auction (a prefix
  frontier ``{0, ..., k-1}``);
* the **process-pool driver** (:mod:`repro.parallel`) after merging each
  shard — a *completed-auction frontier*, in general any subset of
  ``range(m)`` (tracked explicitly in :attr:`completed_tasks`).

At a boundary the only state that determines the rest of the execution
is (a) each agent's private randomness (per-task substreams derived from
``rng_root``, plus the residual stream state), (b) the resolved
transcripts so far, (c) the accumulated accounting (operation counters,
network metrics, wall clock), and (d) the degraded-mode quarantine
record.  :class:`ProtocolCheckpoint` captures exactly that, so a crashed
orchestrator can be restarted from the last boundary and produce an
outcome **identical** to the uninterrupted run: same schedule, same
payments, same transcripts, same operation counts, same network totals
(``tests/test_checkpoint.py`` / ``tests/test_process_pool.py`` pin this
down).

What is deliberately *not* captured:

* Cryptographic secrets — shares, polynomials, commitments.  Completed
  auctions are summarised by their public transcript (winner and prices
  are all the payments phase needs), and the in-flight auction is simply
  re-run from its start, regenerating shares from the per-task rng
  substreams.  A checkpoint file therefore leaks nothing the bulletin
  board did not already reveal.
* The public-value cache.  Every cache hit is charged the full analytic
  schedule, so the cache changes no outcome, transcript or counter; a
  resumed run starts with a cold cache, and its ``cache_stats`` count
  only the resuming process's own lookups.
* The bulletin-board history.  Resuming restores the *outcome*-relevant
  state; a post-resume transcript audit only covers the auctions run
  since the restart.

Serialization lives in :mod:`repro.serialization` (format version 5,
document type ``dmw_checkpoint``); this module holds only the in-memory
state transfer, keeping the dependency one-directional.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Set

from ..network.metrics import NetworkMetrics
from .exceptions import CheckpointMismatch, ProtocolAbort
from .outcome import AuctionTranscript

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .protocol import DMWProtocol


def encode_rng_state(state: Any) -> List[Any]:
    """JSON-encode a ``random.Random.getstate()`` tuple.

    The Mersenne Twister state is ``(version, tuple_of_ints, gauss_next)``;
    JSON has no tuples, so both levels become lists.
    """
    version, internal, gauss_next = state
    return [version, list(internal), gauss_next]


def decode_rng_state(encoded: List[Any]) -> Any:
    """Invert :func:`encode_rng_state` back to a ``setstate`` tuple."""
    version, internal, gauss_next = encoded
    return (version, tuple(internal), gauss_next)


@dataclass
class ProtocolCheckpoint:
    """Everything needed to resume an execution at a quiescent boundary.

    Attributes
    ----------
    num_tasks:
        Total number of auctions the execution runs.
    next_task:
        One past the most recently attempted task (reported by the trace
        and the CLI; :meth:`completed_set` is authoritative).
    degraded:
        Whether the interrupted execution ran in graceful-degradation
        mode (a resume must use the same mode).
    num_agents:
        Sanity guard: the resuming protocol must have this many agents.
    transcripts:
        Public transcripts of every auction completed so far.
    task_aborts:
        Quarantined tasks (degraded mode) with their recorded aborts.
    agent_rng_states:
        Per-agent private randomness streams (encoded ``getstate()``).
    agent_operations:
        Per-agent :meth:`~repro.crypto.modular.OperationCounter.snapshot`
        dictionaries at the boundary.
    network_metrics:
        :meth:`~repro.network.metrics.NetworkMetrics.as_dict` totals.
    round_index:
        The network's next synchronous round number.
    timeout_state:
        Extra :class:`~repro.network.asynchronous.TimeoutNetwork` wall
        state (``clock``/``late_messages``/``retries``/``recovered``),
        empty for plain synchronous networks.
    completed_tasks:
        The completed-auction frontier: every task already attempted
        (completed or quarantined).
    """

    num_tasks: int
    next_task: int
    degraded: bool
    num_agents: int
    completed_tasks: List[int]
    transcripts: List[AuctionTranscript] = field(default_factory=list)
    task_aborts: Dict[int, ProtocolAbort] = field(default_factory=dict)
    agent_rng_states: List[List[Any]] = field(default_factory=list)
    agent_operations: List[Dict[str, int]] = field(default_factory=list)
    network_metrics: Dict[str, int] = field(default_factory=dict)
    round_index: int = 0
    timeout_state: Dict[str, Any] = field(default_factory=dict)

    def completed_set(self) -> Set[int]:
        """Tasks the resumed run must *not* re-execute."""
        return set(self.completed_tasks)

    # -- capture ---------------------------------------------------------------
    @classmethod
    def capture(cls, protocol: "DMWProtocol", num_tasks: int,
                next_task: int) -> "ProtocolCheckpoint":
        """Snapshot ``protocol`` at an auction boundary.

        ``next_task`` is the first auction the resumed run will execute
        (i.e. one past the last completed/quarantined task).
        """
        network = protocol.network
        timeout_state: Dict[str, Any] = {}
        for attr in ("clock", "late_messages", "retries", "recovered"):
            if hasattr(network, attr):
                timeout_state[attr] = getattr(network, attr)
        completed = sorted({t.task for t in protocol._transcripts}
                           | set(protocol._task_aborts))
        return cls(
            num_tasks=num_tasks,
            next_task=next_task,
            degraded=protocol._degraded,
            num_agents=protocol.parameters.num_agents,
            transcripts=list(protocol._transcripts),
            task_aborts=dict(protocol._task_aborts),
            agent_rng_states=[encode_rng_state(agent.rng.getstate())
                              for agent in protocol.agents],
            agent_operations=[agent.counter.snapshot()
                              for agent in protocol.agents],
            network_metrics=network.metrics.as_dict(),
            round_index=network.round_index,
            timeout_state=timeout_state,
            completed_tasks=completed,
        )

    # -- restore ---------------------------------------------------------------
    def apply(self, protocol: "DMWProtocol") -> None:
        """Restore this checkpoint into a freshly constructed protocol.

        The protocol must have been built exactly as the original (same
        parameters, same agent construction order); the checkpoint then
        overwrites the mutable state: rng streams, counters, transcripts,
        quarantines, and the network's accounting.
        """
        if protocol.parameters.num_agents != self.num_agents:
            raise CheckpointMismatch(
                "checkpoint was taken with %d agents, protocol has %d"
                % (self.num_agents, protocol.parameters.num_agents)
            )
        for name, count in (("rng states", len(self.agent_rng_states)),
                            ("operation counters",
                             len(self.agent_operations))):
            if count != len(protocol.agents):
                raise CheckpointMismatch(
                    "checkpoint holds %d %s for %d agents"
                    % (count, name, len(protocol.agents)))
        for agent, encoded, operations in zip(protocol.agents,
                                              self.agent_rng_states,
                                              self.agent_operations):
            agent.rng.setstate(decode_rng_state(encoded))
            agent.counter.restore(operations)
        protocol._transcripts = []
        for transcript in self.transcripts:
            protocol._adopt_transcript(transcript)
        protocol._task_aborts = dict(self.task_aborts)
        protocol._degraded = self.degraded
        # Network accounting: totals continue from the boundary.
        protocol.network.metrics = NetworkMetrics.from_dict(
            self.network_metrics)
        protocol.network.round_index = self.round_index
        for attr, value in self.timeout_state.items():
            if hasattr(protocol.network, attr):
                setattr(protocol.network, attr, value)
