"""Experiment E8: MinWork's n-approximation of the makespan.

MinWork minimizes total work, not the makespan; the paper cites [30] for
its approximation ratio of exactly ``n``.  This module measures the ratio
on random workload families (where it is usually mild) and on the
adversarial family (where it approaches ``n``), against the exact
branch-and-bound optimum.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Sequence

from ..mechanisms.minwork import MinWork
from ..mechanisms.optimal import optimal_makespan_schedule
from ..scheduling import workloads
from ..scheduling.problem import SchedulingProblem


@dataclass(frozen=True)
class RatioSample:
    """One measured makespan ratio."""

    workload: str
    num_agents: int
    num_tasks: int
    minwork_makespan: float
    optimal_makespan: float

    @property
    def ratio(self) -> float:
        return self.minwork_makespan / self.optimal_makespan


def measure_ratio(problem: SchedulingProblem, workload: str) -> RatioSample:
    """Compare MinWork's makespan with the exact optimum on one instance."""
    schedule = MinWork().allocate(problem)
    _, optimum = optimal_makespan_schedule(problem)
    return RatioSample(
        workload=workload,
        num_agents=problem.num_agents,
        num_tasks=problem.num_tasks,
        minwork_makespan=schedule.makespan(problem),
        optimal_makespan=optimum,
    )


def random_workload_ratios(num_agents: int = 4, num_tasks: int = 6,
                           trials: int = 10, seed: int = 0
                           ) -> List[RatioSample]:
    """Ratios on the standard random families."""
    rng = random.Random(seed)
    samples = []
    families = (
        ("uniform", lambda: workloads.uniform_random(num_agents, num_tasks,
                                                     rng)),
        ("machine_correlated",
         lambda: workloads.machine_correlated(num_agents, num_tasks, rng)),
        ("task_correlated",
         lambda: workloads.task_correlated(num_agents, num_tasks, rng)),
        ("bimodal", lambda: workloads.bimodal(num_agents, num_tasks, rng)),
    )
    for name, build in families:
        for _ in range(trials):
            samples.append(measure_ratio(build(), name))
    return samples


def adversarial_ratios(agent_counts: Sequence[int] = (2, 3, 4, 5)
                       ) -> List[RatioSample]:
    """Ratios on the tight instances — must approach ``n``."""
    return [
        measure_ratio(workloads.adversarial_for_minwork(n), "adversarial")
        for n in agent_counts
    ]
