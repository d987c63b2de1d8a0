"""Executable mechanism-property checkers (Definitions 3 and 4).

Truthfulness and voluntary participation are universally quantified
statements; the checkers here falsify them over either an exhaustive
discrete grid of unilateral deviations or a random sample.  A ``None``
return means "no counterexample found"; otherwise a :class:`Violation`
pinpoints the profitable deviation.

These drive experiment E4 (Theorem 2) and double as regression tests: a
buggy payment rule (e.g. first-price payments) is caught immediately — see
``tests/test_properties.py``.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Optional, Sequence

from ..scheduling.problem import SchedulingProblem
from .base import CentralizedMechanism, truthful_bids, unilateral_deviation


@dataclass(frozen=True)
class Violation:
    """A counterexample to truthfulness or voluntary participation.

    Attributes
    ----------
    agent:
        The deviating (or losing) agent.
    deviation:
        The bid row that beat truth-telling (``None`` for participation
        violations).
    truthful_utility, deviating_utility:
        The utilities demonstrating the violation.
    """

    agent: int
    deviation: Optional[tuple]
    truthful_utility: float
    deviating_utility: float


def check_truthfulness_exhaustive(mechanism: CentralizedMechanism,
                                  problem: SchedulingProblem,
                                  bid_values: Sequence[float]
                                  ) -> Optional[Violation]:
    """Search every per-agent bid row over a discrete value grid.

    For each agent, every row in ``bid_values ** num_tasks`` is tried
    against the others' truthful reports.  Exponential in ``m`` — intended
    for small instances where the check is then *complete* over the grid.
    """
    truthful = truthful_bids(problem)
    baseline = mechanism.run(truthful)
    for agent in range(problem.num_agents):
        truthful_utility = baseline.utility(agent, problem)
        for row in itertools.product(bid_values, repeat=problem.num_tasks):
            if list(row) == list(problem.agent_times(agent)):
                continue
            deviating = mechanism.run(unilateral_deviation(truthful, agent,
                                                           row))
            utility = deviating.utility(agent, problem)
            if utility > truthful_utility + 1e-9:
                return Violation(agent=agent, deviation=row,
                                 truthful_utility=truthful_utility,
                                 deviating_utility=utility)
    return None


def check_truthfulness_sampled(mechanism: CentralizedMechanism,
                               problem: SchedulingProblem,
                               rng: random.Random,
                               samples: int = 200,
                               low: float = 0.5,
                               high: float = 150.0) -> Optional[Violation]:
    """Randomized truthfulness check: random agents, random deviation rows.

    Deviations mix fresh uniform values with perturbations of the truth
    (over- and under-bidding near the true value is where second-price
    violations hide).
    """
    truthful = truthful_bids(problem)
    baseline = mechanism.run(truthful)
    for _ in range(samples):
        agent = rng.randrange(problem.num_agents)
        true_row = problem.agent_times(agent)
        if rng.random() < 0.5:
            row = [rng.uniform(low, high) for _ in range(problem.num_tasks)]
        else:
            row = [max(1e-9, value * rng.uniform(0.3, 3.0))
                   for value in true_row]
        deviating = mechanism.run(unilateral_deviation(truthful, agent, row))
        utility = deviating.utility(agent, problem)
        truthful_utility = baseline.utility(agent, problem)
        if utility > truthful_utility + 1e-9:
            return Violation(agent=agent, deviation=tuple(row),
                             truthful_utility=truthful_utility,
                             deviating_utility=utility)
    return None


def check_voluntary_participation(mechanism: CentralizedMechanism,
                                  problem: SchedulingProblem
                                  ) -> Optional[Violation]:
    """Check Definition 4: truthful agents never end with negative utility."""
    result = mechanism.run(truthful_bids(problem))
    for agent in range(problem.num_agents):
        utility = result.utility(agent, problem)
        if utility < -1e-9:
            return Violation(agent=agent, deviation=None,
                             truthful_utility=utility,
                             deviating_utility=utility)
    return None
