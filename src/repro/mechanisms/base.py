"""Centralized mechanism abstractions (paper §2.2, Definitions 1-4).

A centralized mechanism receives a bid matrix ``y`` (one row per agent, one
column per task), computes an allocation ``S(y)`` and a payment vector
``P(y)``, and hands each agent utility ``U_i = P_i(y) + V_i(S(y), t_i)``
where the valuation ``V_i`` is the negated sum of the agent's *true* times
over its allocated tasks.

Fig. 1 of the paper is exactly this interface.
"""

from __future__ import annotations

import abc
import random
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..scheduling.problem import SchedulingProblem
from ..scheduling.schedule import Schedule

#: A bid matrix has the same shape as a time matrix, so it reuses the
#: problem type: ``bids.time(i, j)`` is agent i's reported value for task j.
Bids = SchedulingProblem


@dataclass(frozen=True)
class MechanismResult:
    """The outcome of one mechanism execution.

    Attributes
    ----------
    schedule:
        The allocation ``S(y)``.
    payments:
        ``payments[i]`` is ``P_i(y)``, the amount handed *to* agent ``i``.
    """

    schedule: Schedule
    payments: Tuple[float, ...]

    def utility(self, agent: int, true_values: SchedulingProblem) -> float:
        """Return ``U_i = P_i + V_i(S, t_i)`` for ``agent``."""
        return self.payments[agent] + self.schedule.valuation(agent, true_values)

    def utilities(self, true_values: SchedulingProblem) -> List[float]:
        """Return the utility vector for all agents."""
        return [self.utility(agent, true_values)
                for agent in range(self.schedule.num_agents)]


class CentralizedMechanism(abc.ABC):
    """Interface every centralized scheduling mechanism implements."""

    @abc.abstractmethod
    def allocate(self, bids: Bids) -> Schedule:
        """Compute the allocation ``S(y)`` from the bid matrix."""

    @abc.abstractmethod
    def payments(self, bids: Bids, schedule: Schedule) -> List[float]:
        """Compute the payment vector ``P(y)`` for a given allocation."""

    def run(self, bids: Bids) -> MechanismResult:
        """Allocate, compute payments, and package the result."""
        schedule = self.allocate(bids)
        return MechanismResult(
            schedule=schedule, payments=tuple(self.payments(bids, schedule))
        )


def truthful_bids(problem: SchedulingProblem) -> Bids:
    """Return the bid matrix of universally truthful agents (``y = t``)."""
    return problem


def unilateral_deviation(bids: Bids, agent: int,
                         row: Sequence[float]) -> Bids:
    """Return ``{y_{-agent}, row}`` — one agent's report swapped."""
    return bids.with_agent_row(agent, row)


def random_bid_row(num_tasks: int, rng: random.Random,
                   low: float = 1.0, high: float = 100.0) -> List[float]:
    """Draw a uniformly random bid row (used by sampled property checks)."""
    return [rng.uniform(low, high) for _ in range(num_tasks)]
