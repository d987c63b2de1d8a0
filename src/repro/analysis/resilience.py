"""Open Problem 11: the computability threshold under deviation.

The paper's discussion of Feigenbaum-Shenker's Open Problem 11 states:
*"As long as the number of agents obeying the protocol remains above a
threshold, the mechanism is computable.  If the number of agents drops
below the threshold, the mechanism cannot be resolved."*

This module measures that threshold exactly.  The binding constraint is
first-price degree resolution: with minimum bid ``y_min``, the aggregate
``E`` has degree ``sigma - y_min`` and needs ``sigma - y_min + 1`` valid
``Lambda`` values out of ``n``.  Agents that withhold (or corrupt) their
aggregates are excluded from the valid set, so the execution completes
iff the number of such deviators ``k`` satisfies

``k <= n - (sigma - y_min + 1)``.

With the default maximal bid set (``sigma = n``) this is ``k <= y_min - 1``
— a threshold that *depends on the instance*: cheap minimum bids tolerate
no deviation at all, expensive ones tolerate up to ``w_k - 1`` deviators.
:func:`resilience_sweep` measures completion across ``(y_min, k)`` and
returns measured-vs-predicted thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

from ..core.deviant import WithholdAggregatesAgent
from ..core.parameters import DMWParameters
from ..scheduling.problem import SchedulingProblem
from .faithfulness import honest_factory, run_with_agents


def _uniform_bid_instance(parameters: DMWParameters,
                          bid: int) -> SchedulingProblem:
    """A single-task instance where every agent's true value is ``bid``."""
    return SchedulingProblem([[bid]] * parameters.num_agents)


def completion_with_deviators(parameters: DMWParameters,
                              problem: SchedulingProblem,
                              num_deviators: int,
                              deviant_class=WithholdAggregatesAgent,
                              seed: int = 0) -> bool:
    """Run with the last ``num_deviators`` agents deviating; did it finish?

    The deviators are placed at the *end* of the index range so they are
    never the winner of the first-price tie-break, isolating the
    resolution-threshold effect.
    """
    n = parameters.num_agents
    if not 0 <= num_deviators < n:
        raise ValueError("need 0 <= deviators < n")

    def deviant(index, params, true_values, rng):
        return deviant_class(index, params, true_values, rng=rng)

    factories: List[Callable] = [honest_factory] * n
    for index in range(n - num_deviators, n):
        factories[index] = deviant
    outcome = run_with_agents(parameters, factories, problem, seed)
    return outcome.completed


@dataclass(frozen=True)
class ResilienceRow:
    """Measured tolerance for one minimum-bid level."""

    minimum_bid: int
    aggregate_degree: int
    predicted_threshold: int
    measured_threshold: int

    @property
    def matches(self) -> bool:
        return self.predicted_threshold == self.measured_threshold


def resilience_sweep(parameters: DMWParameters,
                     deviant_class=WithholdAggregatesAgent,
                     seed: int = 0) -> List[ResilienceRow]:
    """Measure the deviation-tolerance threshold per minimum bid.

    For each bid level ``y`` in ``W``, runs the uniform-``y`` instance
    with ``k = 0, 1, ...`` deviators until the first failure; the measured
    threshold is the largest ``k`` that still completed.
    """
    rows = []
    n = parameters.num_agents
    for bid in parameters.bid_values:
        problem = _uniform_bid_instance(parameters, bid)
        degree = parameters.sigma - bid
        predicted = n - (degree + 1)
        measured = -1
        for num_deviators in range(n):
            if completion_with_deviators(parameters, problem,
                                         num_deviators, deviant_class,
                                         seed):
                measured = num_deviators
            else:
                break
        rows.append(ResilienceRow(
            minimum_bid=bid,
            aggregate_degree=degree,
            predicted_threshold=max(predicted, 0),
            measured_threshold=measured,
        ))
    return rows
