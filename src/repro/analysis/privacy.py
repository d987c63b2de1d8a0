"""Experiment E7: the privacy guarantee of Theorem 10.

Theorem 10: DMW protects the anonymity of the losing agents and the
privacy of their bids when fewer than ``c`` agents collude — and the
number of colluders needed to expose a bid is *inversely* proportional to
its value (lower bids hide behind higher-degree polynomials).

The experiment mounts the actual attack: it runs the honest protocol,
pools a coalition's received ``e``-shares of a target agent, adds the free
point ``(0, 0)`` every party knows, and tests which candidate degrees are
consistent with the pooled evidence.  A bid is *exposed* exactly when the
coalition can confirm the true degree — which requires at least
``tau + 1 = sigma - bid + 1 >= c + 2`` colluders.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..core.agent import DMWAgent
from ..core.parameters import DMWParameters
from ..core.protocol import DMWProtocol
from ..crypto.secretsharing import DegreeEncodingScheme, Share
from ..scheduling.problem import SchedulingProblem


@dataclass(frozen=True)
class AttackResult:
    """The coalition's knowledge about one (target, task) bid.

    Attributes
    ----------
    exposed:
        True when the coalition confirmed the exact bid.
    inferred_bid:
        The confirmed bid when exposed, else ``None``.
    coalition_size:
        Number of colluding agents (shares pooled).
    required_colluders:
        The theoretical minimum coalition that exposes this bid
        (``sigma - bid + 1``).
    """

    target: int
    task: int
    true_bid: int
    exposed: bool
    inferred_bid: Optional[int]
    coalition_size: int
    required_colluders: int


def attack_shares(parameters: DMWParameters,
                  pooled: Sequence[Share],
                  true_degree: int) -> Tuple[bool, Optional[int]]:
    """Run the degree-confirmation attack on pooled ``e``-shares.

    Candidate degrees are all legal bid encodings.  The coalition exposes
    the bid when the *smallest* consistent candidate equals the true
    degree and is actually testable from the pooled evidence.
    """
    scheme = DegreeEncodingScheme(parameters.group.q,
                                  [share.point for share in pooled])
    candidates = sorted(parameters.first_price_degree_candidates())
    consistency = scheme.reconstruction_attack(pooled, candidates)
    consistent = [degree for degree in candidates if consistency[degree]]
    if not consistent:
        return False, None
    inferred = min(consistent)
    if inferred == true_degree:
        return True, parameters.bid_for_degree(inferred)
    return False, None


def run_collusion_experiment(problem: SchedulingProblem,
                             parameters: DMWParameters,
                             coalition: Sequence[int],
                             seed: int = 0) -> List[AttackResult]:
    """Run honest DMW, then attack every losing agent's bids.

    Parameters
    ----------
    coalition:
        Indices of the colluding agents; they pool the share bundles they
        legitimately received.

    Returns one :class:`AttackResult` per (non-coalition target, task).
    """
    master = random.Random(seed)
    agents = [
        DMWAgent(index, parameters,
                 [int(problem.time(index, task))
                  for task in range(problem.num_tasks)],
                 rng=random.Random(master.getrandbits(64)))
        for index in range(problem.num_agents)
    ]
    protocol = DMWProtocol(parameters, agents)
    outcome = protocol.execute(problem.num_tasks)
    if not outcome.completed:
        raise RuntimeError("honest run aborted: %r" % outcome.abort)
    coalition = sorted(set(coalition))
    results = []
    for target in range(problem.num_agents):
        if target in coalition:
            continue
        for task in range(problem.num_tasks):
            true_bid = int(problem.time(target, task))
            true_degree = parameters.degree_for_bid(true_bid)
            pooled = [
                Share(parameters.pseudonyms[member],
                      agents[member].task_state(task)
                      .received_bundles[target].e_value)
                for member in coalition
            ]
            exposed, inferred = attack_shares(parameters, pooled, true_degree)
            results.append(AttackResult(
                target=target, task=task, true_bid=true_bid,
                exposed=exposed, inferred_bid=inferred,
                coalition_size=len(coalition),
                required_colluders=true_degree + 1,
            ))
    return results


def exposure_by_coalition_size(problem: SchedulingProblem,
                               parameters: DMWParameters,
                               seed: int = 0
                               ) -> List[Tuple[int, int, int]]:
    """Sweep coalition sizes 1..n-1; return (size, exposed, total) rows.

    Coalitions are the lowest-indexed agents of each size, so results are
    deterministic.
    """
    rows = []
    for size in range(1, problem.num_agents):
        coalition = list(range(size))
        results = run_collusion_experiment(problem, parameters, coalition,
                                           seed)
        exposed = sum(1 for result in results if result.exposed)
        rows.append((size, exposed, len(results)))
    return rows
