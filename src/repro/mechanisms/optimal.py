"""Exact minimum-makespan scheduling (the baseline MinWork approximates).

MinWork is an ``n``-approximation of the makespan optimum (paper §1.1 /
[30]); reproducing that claim (experiment E8) needs the true optimum.  The
problem is strongly NP-hard, so this is a branch-and-bound search intended
for the small instances the experiments use (roughly ``n * m <= 60``
with ``n^m`` pruned hard).

The search orders tasks by decreasing best-case time and prunes on:

* the current partial makespan already reaching the incumbent,
* a per-task lower bound (each unassigned task costs at least its fastest
  agent's time on *some* machine),
* agent-symmetric dominance at depth 0 is not exploited (machines are
  unrelated, so there is no symmetry to break).
"""

from __future__ import annotations

from typing import Tuple

from ..scheduling.problem import SchedulingProblem
from ..scheduling.schedule import Schedule


def greedy_makespan_schedule(problem: SchedulingProblem) -> Schedule:
    """List-scheduling heuristic: assign each task where it finishes earliest.

    Used as the initial incumbent for branch and bound and available as a
    cheap standalone baseline.
    """
    loads = [0.0] * problem.num_agents
    assignment = [0] * problem.num_tasks
    order = sorted(range(problem.num_tasks),
                   key=lambda j: -min(problem.task_times(j)))
    for task in order:
        best_agent = min(
            range(problem.num_agents),
            key=lambda i: (loads[i] + problem.time(i, task), i),
        )
        assignment[task] = best_agent
        loads[best_agent] += problem.time(best_agent, task)
    return Schedule(assignment, problem.num_agents)


def optimal_makespan_schedule(problem: SchedulingProblem,
                              node_limit: int = 2_000_000
                              ) -> Tuple[Schedule, float]:
    """Return an exact minimum-makespan schedule and its makespan.

    Parameters
    ----------
    problem:
        The instance (interpreted as declared times).
    node_limit:
        Safety valve on search nodes; exceeded limits raise ``RuntimeError``
        rather than silently returning a non-optimal answer.
    """
    n, m = problem.num_agents, problem.num_tasks
    order = sorted(range(m), key=lambda j: -min(problem.task_times(j)))
    best_times = [min(problem.task_times(j)) for j in range(m)]
    # remaining_bound[k] = max over tasks order[k:] of their best-case time:
    # any completion must reach at least that much on some machine.
    remaining_bound = [0.0] * (m + 1)
    for k in range(m - 1, -1, -1):
        remaining_bound[k] = max(remaining_bound[k + 1], best_times[order[k]])

    incumbent_schedule = greedy_makespan_schedule(problem)
    incumbent = incumbent_schedule.makespan(problem)
    assignment = [0] * m
    best_assignment = list(incumbent_schedule.assignment)
    loads = [0.0] * n
    nodes = 0

    def search(depth: int) -> None:
        nonlocal incumbent, nodes, best_assignment
        nodes += 1
        if nodes > node_limit:
            raise RuntimeError(
                "branch-and-bound exceeded %d nodes; instance too large"
                % node_limit
            )
        if depth == m:
            makespan = max(loads)
            if makespan < incumbent - 1e-12:
                incumbent = makespan
                best_assignment = assignment[:]
            return
        if max(max(loads), remaining_bound[depth]) >= incumbent - 1e-12:
            return
        task = order[depth]
        # Try agents in order of resulting load (best-first) to tighten the
        # incumbent quickly.
        candidates = sorted(range(n),
                            key=lambda i: loads[i] + problem.time(i, task))
        for agent in candidates:
            new_load = loads[agent] + problem.time(agent, task)
            if new_load >= incumbent - 1e-12:
                continue
            loads[agent] = new_load
            assignment[task] = agent
            search(depth + 1)
            loads[agent] = new_load - problem.time(agent, task)

    search(0)
    schedule = Schedule(best_assignment, n)
    return schedule, schedule.makespan(problem)


def makespan_approximation_ratio(problem: SchedulingProblem,
                                 schedule: Schedule) -> float:
    """Return ``makespan(schedule) / optimal_makespan`` for ``problem``."""
    _, optimum = optimal_makespan_schedule(problem)
    if optimum <= 0:
        raise ValueError("optimal makespan must be positive")
    return schedule.makespan(problem) / optimum
