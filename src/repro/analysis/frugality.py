"""Frugality: how much does MinWork overpay?

Archer and Tardos' frugality lens (reference [5] of the paper) asks how a
mechanism's total payment compares to the cost actually incurred.  For
MinWork the winner of task ``j`` is paid the second-lowest bid, so the
per-task *overpayment* is the gap between the two lowest bids — zero in
perfectly competitive auctions and large when one agent dominates.

Metrics reported per instance:

* ``total_cost`` — the declared cost of the chosen allocation
  (``sum of winning bids``);
* ``total_payment`` — ``sum of second prices``;
* ``frugality_ratio`` — ``total_payment / total_cost`` (>= 1);
* per-task competitive margins.

These quantify a practical deployment question the paper leaves open:
what budget does the payment infrastructure need relative to the work
actually bought?
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Tuple

from ..mechanisms.minwork import MinWork, minwork_first_and_second_price
from ..scheduling import workloads
from ..scheduling.problem import SchedulingProblem


@dataclass(frozen=True)
class FrugalityReport:
    """Payment-vs-cost accounting for one MinWork execution."""

    total_cost: float
    total_payment: float
    per_task_margins: Tuple[float, ...]

    @property
    def frugality_ratio(self) -> float:
        """``total_payment / total_cost`` (1.0 = no overpayment)."""
        if self.total_cost == 0:
            raise ValueError("total cost is zero")
        return self.total_payment / self.total_cost

    @property
    def overpayment(self) -> float:
        return self.total_payment - self.total_cost


def frugality_of(problem: SchedulingProblem) -> FrugalityReport:
    """Measure MinWork's payments against its winners' declared costs."""
    result = MinWork().run(problem)
    total_cost = 0.0
    margins: List[float] = []
    for task in range(problem.num_tasks):
        column = problem.task_times(task)
        _, first, second = minwork_first_and_second_price(column)
        total_cost += first
        margins.append(second - first)
    return FrugalityReport(
        total_cost=total_cost,
        total_payment=sum(result.payments),
        per_task_margins=tuple(margins),
    )


def frugality_by_competition(num_agents: int = 6, num_tasks: int = 4,
                             trials: int = 10, seed: int = 0
                             ) -> List[Tuple[str, float]]:
    """Mean frugality ratio per workload family.

    Competitive families (task-correlated: bids cluster) should overpay
    little; dispersed families (uniform, bimodal) more — the measured
    confirmation that second-price overpayment is a competition effect,
    not a mechanism constant.
    """
    rng = random.Random(seed)
    families = (
        ("task_correlated",
         lambda: workloads.task_correlated(num_agents, num_tasks, rng,
                                           noise=0.05)),
        ("uniform",
         lambda: workloads.uniform_random(num_agents, num_tasks, rng)),
        ("bimodal",
         lambda: workloads.bimodal(num_agents, num_tasks, rng)),
    )
    rows = []
    for name, build in families:
        ratios = [frugality_of(build()).frugality_ratio
                  for _ in range(trials)]
        rows.append((name, sum(ratios) / len(ratios)))
    return rows
