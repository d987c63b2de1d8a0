"""Generic Vickrey-Clarke-Groves mechanism for scheduling.

The paper situates MinWork inside the VCG family: MinWork is exactly the
VCG mechanism with Clarke pivot payments applied to the *total work*
objective (which decomposes per task into independent Vickrey auctions).
This module implements VCG generically — exact minimization of a
separable-or-not social-cost objective with Clarke payments — so that:

* the MinWork ≡ VCG(total_work) identity can be tested (it is a strong
  cross-check of both implementations), and
* the non-separable makespan objective can be run as a (computationally
  exponential) truthful reference point.
"""

from __future__ import annotations

import itertools
from typing import Callable, List, Sequence

from ..scheduling.problem import SchedulingProblem
from ..scheduling.schedule import Schedule
from .base import Bids, CentralizedMechanism

#: An objective maps (schedule, bids) to the social cost to minimize.
Objective = Callable[[Schedule, SchedulingProblem], float]


def total_work_objective(schedule: Schedule, bids: SchedulingProblem) -> float:
    """The MinWork objective: total declared work."""
    return schedule.total_work(bids)


def makespan_objective(schedule: Schedule, bids: SchedulingProblem) -> float:
    """The makespan objective (exact VCG on this is truthful but exponential)."""
    return schedule.makespan(bids)


def _enumerate_schedules(num_tasks: int, agents: Sequence[int],
                         num_agents: int):
    """Yield every assignment of ``num_tasks`` tasks to the given agents."""
    for combo in itertools.product(agents, repeat=num_tasks):
        yield Schedule(list(combo), num_agents)


class VCG(CentralizedMechanism):
    """Exact VCG with Clarke pivot payments.

    The allocation minimizes ``objective`` by exhaustive search (``n^m``
    schedules), so this is a reference implementation for small instances,
    not a production scheduler.  Clarke payments are

    ``P_i = cost_{-i}(S_{-i}) - cost_{-i}(S)``,

    where ``cost_{-i}`` excludes agent ``i``'s declared cost and ``S_{-i}``
    optimizes the economy without agent ``i``.  For the separable
    total-work objective this reduces exactly to eq. (1)'s per-task second
    prices.

    Parameters
    ----------
    objective:
        The social-cost function; defaults to total work (= MinWork).
    """

    def __init__(self, objective: Objective = total_work_objective) -> None:
        self.objective = objective

    def allocate(self, bids: Bids) -> Schedule:
        """Return a schedule minimizing the objective (lowest-lexicographic
        assignment among ties, matching MinWork's lowest-index rule)."""
        agents = list(range(bids.num_agents))
        best_schedule, best_cost = None, None
        for schedule in _enumerate_schedules(bids.num_tasks, agents,
                                             bids.num_agents):
            cost = self.objective(schedule, bids)
            if best_cost is None or cost < best_cost - 1e-12:
                best_schedule, best_cost = schedule, cost
        return best_schedule

    def _cost_excluding(self, schedule: Schedule, bids: Bids,
                        excluded: int) -> float:
        """Social cost counting every agent's declared cost except one's."""
        total = 0.0
        for task in range(bids.num_tasks):
            agent = schedule.agent_of(task)
            if agent != excluded:
                total += bids.time(agent, task)
        return total

    def payments(self, bids: Bids, schedule: Schedule) -> List[float]:
        """Clarke pivot payments against the declared-cost economy.

        Only supported for the separable total-work objective family, where
        "cost excluding i" is well defined as the sum of others' declared
        times; the makespan objective does not decompose this way and is
        served by :meth:`pivot_payments_for_makespan` in tests if needed.
        """
        if bids.num_agents < 2:
            raise ValueError("VCG payments need at least two agents")
        results = []
        others_universe = list(range(bids.num_agents))
        for agent in range(bids.num_agents):
            remaining = [a for a in others_universe if a != agent]
            best_without, cost_without = None, None
            for candidate in _enumerate_schedules(bids.num_tasks, remaining,
                                                  bids.num_agents):
                cost = self._cost_excluding(candidate, bids, agent)
                if cost_without is None or cost < cost_without - 1e-12:
                    best_without, cost_without = candidate, cost
            results.append(cost_without - self._cost_excluding(schedule, bids,
                                                               agent))
        return results
