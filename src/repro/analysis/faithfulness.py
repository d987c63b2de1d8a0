"""Experiments E5/E6: faithfulness and strong voluntary participation.

Theorem 5 says no agent can gain by deviating from the suggested strategy
(ex post Nash); Theorem 9 says an honest agent never ends up with negative
utility regardless of what the others do.  Both are universally quantified,
so the experiment *measures* them over the concrete deviation families of
:mod:`repro.core.deviant` and over exhaustive bid misreports:

* :func:`evaluate_deviation` — one (instance, deviator, strategy) cell:
  utility of the deviator under the deviation vs under honesty, plus the
  honest bystanders' utilities (which must stay >= 0);
* :func:`run_deviation_matrix` — the full strategy x instance sweep;
* :func:`check_dmw_truthfulness_exhaustive` — every alternative bid vector
  for one agent (the information-revelation half of faithfulness, i.e.
  Theorem 2 lifted to the distributed mechanism).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from ..core.agent import DMWAgent
from ..core.deviant import MisreportBidAgent, standard_deviations
from ..core.parameters import DMWParameters
from ..core.protocol import DMWProtocol
from ..scheduling.problem import SchedulingProblem


def _integer_rows(problem: SchedulingProblem) -> List[List[int]]:
    return [[int(problem.time(i, j)) for j in range(problem.num_tasks)]
            for i in range(problem.num_agents)]


def run_with_agents(parameters: DMWParameters,
                    agent_factories: Sequence[Callable],
                    problem: SchedulingProblem,
                    seed: int = 0):
    """Instantiate one agent per factory and execute the protocol.

    Each factory takes ``(index, parameters, true_values, rng)``.
    """
    rows = _integer_rows(problem)
    master = random.Random(seed)
    agents = [
        factory(index, parameters, rows[index],
                random.Random(master.getrandbits(64)))
        for index, factory in enumerate(agent_factories)
    ]
    protocol = DMWProtocol(parameters, agents)
    return protocol.execute(problem.num_tasks)


def honest_factory(index: int, parameters: DMWParameters,
                   true_values: Sequence[int],
                   rng: random.Random) -> DMWAgent:
    """The suggested strategy."""
    return DMWAgent(index, parameters, true_values, rng=rng)


@dataclass(frozen=True)
class DeviationOutcome:
    """One cell of the faithfulness matrix.

    ``gain`` must be <= 0 (up to exact arithmetic: all quantities are
    integers here) for faithfulness to hold; ``min_honest_utility`` must be
    >= 0 for strong voluntary participation.
    """

    strategy: str
    deviant_index: int
    honest_utility: float
    deviant_utility: float
    completed: bool
    abort_phase: Optional[str]
    min_honest_utility: float

    @property
    def gain(self) -> float:
        return self.deviant_utility - self.honest_utility


def evaluate_deviation(problem: SchedulingProblem,
                       parameters: DMWParameters,
                       strategy_name: str,
                       factory: Callable,
                       deviant_index: int,
                       seed: int = 0) -> DeviationOutcome:
    """Measure one deviation against the honest baseline.

    The baseline and the deviating run use the same types and seeds; only
    the deviator's strategy differs (the ex post comparison of
    Definition 9).
    """
    n = problem.num_agents
    honest_outcome = run_with_agents(parameters, [honest_factory] * n,
                                     problem, seed)
    factories = [honest_factory] * n
    factories[deviant_index] = factory
    deviating_outcome = run_with_agents(parameters, factories, problem, seed)
    bystanders = [deviating_outcome.utility(i, problem)
                  for i in range(n) if i != deviant_index]
    return DeviationOutcome(
        strategy=strategy_name,
        deviant_index=deviant_index,
        honest_utility=honest_outcome.utility(deviant_index, problem),
        deviant_utility=deviating_outcome.utility(deviant_index, problem),
        completed=deviating_outcome.completed,
        abort_phase=(deviating_outcome.abort.phase
                     if deviating_outcome.abort else None),
        min_honest_utility=min(bystanders) if bystanders else 0.0,
    )


def run_deviation_matrix(problem: SchedulingProblem,
                         parameters: DMWParameters,
                         deviant_indices: Optional[Sequence[int]] = None,
                         strategies: Optional[Dict[str, Callable]] = None,
                         seed: int = 0) -> List[DeviationOutcome]:
    """The full deviation-strategy sweep for one instance."""
    if strategies is None:
        strategies = standard_deviations()
    if deviant_indices is None:
        deviant_indices = range(problem.num_agents)
    outcomes = []
    for deviant_index in deviant_indices:
        for name, factory in strategies.items():
            outcomes.append(evaluate_deviation(
                problem, parameters, name, factory, deviant_index, seed,
            ))
    return outcomes


def faithfulness_violations(outcomes: Sequence[DeviationOutcome],
                            tolerance: float = 1e-9
                            ) -> List[DeviationOutcome]:
    """Outcomes where deviating strictly beat honesty (must be empty)."""
    return [outcome for outcome in outcomes if outcome.gain > tolerance]


def participation_violations(outcomes: Sequence[DeviationOutcome],
                             tolerance: float = 1e-9
                             ) -> List[DeviationOutcome]:
    """Outcomes where an honest bystander lost utility (must be empty)."""
    return [outcome for outcome in outcomes
            if outcome.min_honest_utility < -tolerance]


def check_dmw_truthfulness_exhaustive(problem: SchedulingProblem,
                                      parameters: DMWParameters,
                                      agent: int,
                                      seed: int = 0
                                      ) -> List[DeviationOutcome]:
    """Try *every* alternative bid vector for ``agent``.

    Returns the outcomes whose gain is positive (must be empty).  The grid
    is ``W^m``, so keep instances small.
    """
    n = problem.num_agents
    honest_outcome = run_with_agents(parameters, [honest_factory] * n,
                                     problem, seed)
    honest_utility = honest_outcome.utility(agent, problem)
    true_row = tuple(int(problem.time(agent, j))
                     for j in range(problem.num_tasks))
    violations = []
    for reported in itertools.product(parameters.bid_values,
                                      repeat=problem.num_tasks):
        if reported == true_row:
            continue

        def factory(index, params, true_values, rng,
                    _reported=reported):
            return MisreportBidAgent(index, params, true_values,
                                     list(_reported), rng=rng)

        factories = [honest_factory] * n
        factories[agent] = factory
        outcome = run_with_agents(parameters, factories, problem, seed)
        utility = outcome.utility(agent, problem)
        if utility > honest_utility + 1e-9:
            violations.append(DeviationOutcome(
                strategy="misreport%s" % (reported,),
                deviant_index=agent,
                honest_utility=honest_utility,
                deviant_utility=utility,
                completed=outcome.completed,
                abort_phase=None,
                min_honest_utility=0.0,
            ))
    return violations
