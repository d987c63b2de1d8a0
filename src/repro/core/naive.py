"""Open Problem 10's strawman: naively distributed MinWork.

The paper's discussion of Feigenbaum-Shenker's Open Problem 10 notes that
"the centralized MinWork can be simply distributed among obedient nodes":
every agent broadcasts its bid row in the clear, every agent computes the
outcome redundantly, and a payment escrow releases payments on unanimity.
DMW's entire cryptographic machinery exists to improve on this strawman's
*strategic model* (it tolerates strategic/adversarial nodes) and its
*privacy* (losing bids stay hidden).

This module implements the strawman so the delta is measurable:

======================  =======================  =========================
property                naive distribution       DMW
======================  =======================  =========================
communication           ``Theta(m n^2)``*        ``Theta(m n^2)``
per-agent computation   ``Theta(m n)``           ``O(m n^2 log p)``
bid privacy             none (all bids public)   losers hidden up to ``c``
strategic model         obedient-or-detected     faithful (ex post Nash)
======================  =======================  =========================

(*) one broadcast per agent expands to ``n - 1`` unicasts, so the naive
scheme already pays the quadratic message bill — what DMW buys with its
extra ``n log p`` computation factor is *privacy*, not bandwidth.

The outcome is publicly recomputable by every participant, so outcome
*manipulation* is detectable here too; what the naive scheme cannot do is
keep a losing bid secret for even one second.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..mechanisms.base import MechanismResult
from ..mechanisms.minwork import MinWork
from ..network.simulator import SynchronousNetwork
from ..scheduling.problem import SchedulingProblem
from .exceptions import ProtocolAbort
from .outcome import DMWOutcome
from .payments import PaymentInfrastructure


class NaiveAgent:
    """An agent of the naive protocol: broadcast bids, recompute outcome."""

    def __init__(self, index: int, true_values: Sequence[float]) -> None:
        self.index = index
        self.true_values = list(true_values)
        self.observed_bids: Dict[int, Tuple[float, ...]] = {}
        #: elementary operations (the Theta(mn) recomputation)
        self.operations = 0

    def choose_bids(self) -> List[float]:
        """Truthful by default (MinWork is truthful, Theorem 2)."""
        return list(self.true_values)

    def observe(self, sender: int, bids: Sequence[float]) -> None:
        self.observed_bids[sender] = tuple(bids)

    def compute_outcome(self, num_agents: int) -> MechanismResult:
        """Recompute MinWork from the observed (public) bids."""
        missing = [k for k in range(num_agents)
                   if k not in self.observed_bids]
        if missing:
            raise ProtocolAbort(
                "agents %s broadcast no bids" % missing,
                phase="bidding", detected_by=self.index,
                offender=missing[0],
            )
        bids = SchedulingProblem([self.observed_bids[k]
                                  for k in range(num_agents)])
        mechanism = MinWork()
        result = mechanism.run(bids)
        self.operations += mechanism.last_operation_count
        return result


class NaiveDistributedMinWork:
    """The broadcast-everything distributed MinWork."""

    def __init__(self, agents: Sequence[NaiveAgent]) -> None:
        if len(agents) < 2:
            raise ValueError("need at least two agents")
        self.agents = list(agents)
        # The escrow endpoint observes the clear bids too (explicit
        # opt-in: broadcasts expand to n copies, same as DMW's).
        self.network = SynchronousNetwork(len(agents), extra_participants=1,
                                          broadcast_to_extras=True)
        self.infrastructure = PaymentInfrastructure(len(agents))

    def execute(self, num_tasks: int) -> DMWOutcome:
        """Broadcast bids, recompute, escrow payments."""
        n = len(self.agents)
        for agent in self.agents:
            bids = agent.choose_bids()
            if bids is not None:
                if len(bids) != num_tasks:
                    raise ValueError("bid row length mismatch")
                agent.observe(agent.index, bids)
                self.network.publish(agent.index, "clear_bids", bids,
                                     field_elements=num_tasks)
        self.network.deliver()
        for agent in self.agents:
            for message in self.network.receive(agent.index, "clear_bids"):
                agent.observe(message.sender, message.payload)

        results = []
        try:
            for agent in self.agents:
                results.append(agent.compute_outcome(n))
        except ProtocolAbort as abort:
            return DMWOutcome(completed=False, schedule=None, payments=None,
                              transcripts=[], abort=abort,
                              network_metrics=self.network.metrics,
                              agent_operations=[
                                  {"multiplication_work": a.operations}
                                  for a in self.agents])

        for agent, result in zip(self.agents, results):
            self.network.send(agent.index, n, "payment_claim",
                              list(result.payments), field_elements=n)
        self.network.deliver()
        for message in self.network.receive(n, "payment_claim"):
            self.infrastructure.submit_claim(message.sender,
                                             message.payload)
        decision = self.infrastructure.decide()
        if not decision.dispensed:
            abort = ProtocolAbort(
                "payment claims conflict (agents %s)"
                % (decision.conflicting_agents,), phase="payments",
                offender=(decision.conflicting_agents[0]
                          if len(decision.conflicting_agents) == 1
                          else None))
            return DMWOutcome(completed=False, schedule=None, payments=None,
                              transcripts=[], abort=abort,
                              network_metrics=self.network.metrics,
                              agent_operations=[
                                  {"multiplication_work": a.operations}
                                  for a in self.agents])
        reference = results[0]
        return DMWOutcome(completed=True, schedule=reference.schedule,
                          payments=decision.payments, transcripts=[],
                          abort=None, network_metrics=self.network.metrics,
                          agent_operations=[
                              {"multiplication_work": a.operations}
                              for a in self.agents])


def run_naive(problem: SchedulingProblem) -> DMWOutcome:
    """Convenience wrapper: honest naive agents on ``problem``."""
    agents = [NaiveAgent(index, problem.agent_times(index))
              for index in range(problem.num_agents)]
    protocol = NaiveDistributedMinWork(agents)
    return protocol.execute(problem.num_tasks)
