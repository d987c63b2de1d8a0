"""Group deviations: where faithfulness stops.

Faithfulness (Theorem 5) is an *ex post Nash* guarantee — it quantifies
over unilateral deviations only.  Like every Vickrey-payment mechanism,
MinWork (and therefore DMW) is **not** group-strategyproof: a cartel
containing a task's winner and the second-lowest bidder can inflate the
second price, raising the winner's payment at no cost to the accomplice,
and split the surplus through a side payment.

This module *measures* that boundary, which the paper leaves implicit:

* :func:`cartel_experiment` runs DMW twice — honest vs a price-inflation
  cartel — and reports each side's joint utility;
* :func:`best_cartel_gain` searches all (winner, accomplice) pairs for a
  task and returns the largest achievable joint gain.

A positive measured gain here is *expected* (it is inherited from the
Vickrey payment rule, not introduced by the distribution), and it
delimits precisely what "faithful" does and does not promise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from ..core.deviant import MisreportBidAgent
from ..core.parameters import DMWParameters
from ..scheduling.problem import SchedulingProblem
from .faithfulness import honest_factory, run_with_agents


@dataclass(frozen=True)
class CartelOutcome:
    """Joint-utility comparison for one cartel.

    ``joint_gain > 0`` demonstrates a profitable *group* deviation (no
    contradiction with Theorem 5, which is unilateral).
    """

    members: Tuple[int, ...]
    honest_joint_utility: float
    cartel_joint_utility: float
    completed: bool

    @property
    def joint_gain(self) -> float:
        return self.cartel_joint_utility - self.honest_joint_utility


def cartel_experiment(problem: SchedulingProblem,
                      parameters: DMWParameters,
                      members: Sequence[int],
                      reported_rows: dict,
                      seed: int = 0) -> CartelOutcome:
    """Run honest vs cartel and compare the members' joint utility.

    Parameters
    ----------
    members:
        The colluding agents.
    reported_rows:
        ``member -> bid row`` the cartel agrees to report (each row must
        contain legal bids from ``W``).
    """
    n = problem.num_agents
    honest = run_with_agents(parameters, [honest_factory] * n, problem,
                             seed)
    factories: List[Callable] = [honest_factory] * n
    for member in members:
        row = reported_rows[member]

        def factory(index, params, true_values, rng, _row=row):
            return MisreportBidAgent(index, params, true_values,
                                     list(_row), rng=rng)

        factories[member] = factory
    deviating = run_with_agents(parameters, factories, problem, seed)
    honest_joint = sum(honest.utility(member, problem)
                       for member in members)
    cartel_joint = sum(deviating.utility(member, problem)
                       for member in members)
    return CartelOutcome(members=tuple(members),
                         honest_joint_utility=honest_joint,
                         cartel_joint_utility=cartel_joint,
                         completed=deviating.completed)


def price_inflation_rows(problem: SchedulingProblem,
                         parameters: DMWParameters,
                         winner: int, accomplice: int) -> dict:
    """The canonical cartel play: the accomplice bids the maximum
    everywhere, pushing every second price it was setting up to ``w_k``;
    the winner keeps bidding truthfully."""
    top = parameters.bid_values[-1]
    return {
        winner: [int(problem.time(winner, j))
                 for j in range(problem.num_tasks)],
        accomplice: [top] * problem.num_tasks,
    }


def best_cartel_gain(problem: SchedulingProblem,
                     parameters: DMWParameters,
                     seed: int = 0) -> Optional[CartelOutcome]:
    """Search all ordered (winner, accomplice) pairs for the best cartel.

    Returns the most profitable :class:`CartelOutcome`, or ``None`` when
    no pair gains (e.g. every second price is already maximal).
    """
    best: Optional[CartelOutcome] = None
    n = problem.num_agents
    for winner in range(n):
        for accomplice in range(n):
            if accomplice == winner:
                continue
            rows = price_inflation_rows(problem, parameters, winner,
                                        accomplice)
            outcome = cartel_experiment(problem, parameters,
                                        (winner, accomplice), rows, seed)
            if best is None or outcome.joint_gain > best.joint_gain:
                best = outcome
    if best is not None and best.joint_gain <= 0:
        return None
    return best
