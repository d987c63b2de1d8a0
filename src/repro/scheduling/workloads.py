"""Workload generators for the experiments.

The paper has no empirical workloads (it is a theory paper), so the
experiment suite draws on the standard unrelated-machines workload families
from the scheduling literature, plus two purpose-built families:

* :func:`adversarial_for_minwork` — the classical instance on which
  MinWork's makespan is a factor ``n`` worse than optimal, exercising the
  n-approximation bound (experiment E8);
* :func:`discretize_to_bid_set` — maps continuous times onto DMW's discrete
  bid set ``W`` (paper §3: "the bid value must be discrete and from a known
  set"), which every end-to-end DMW experiment needs.
"""

from __future__ import annotations

import random
from typing import Sequence

from .problem import SchedulingProblem


def uniform_random(num_agents: int, num_tasks: int, rng: random.Random,
                   low: float = 1.0, high: float = 100.0) -> SchedulingProblem:
    """Times drawn i.i.d. uniform on ``[low, high]`` (fully unrelated)."""
    if low <= 0 or high < low:
        raise ValueError("need 0 < low <= high")
    times = [[rng.uniform(low, high) for _ in range(num_tasks)]
             for _ in range(num_agents)]
    return SchedulingProblem(times)


def machine_correlated(num_agents: int, num_tasks: int, rng: random.Random,
                       speed_low: float = 1.0, speed_high: float = 10.0,
                       requirement_low: float = 1.0,
                       requirement_high: float = 100.0) -> SchedulingProblem:
    """Related-machines workload: ``t_i^j = r^j / s_i`` with random speeds.

    Machines are uniformly faster or slower across all tasks — the "machine
    correlated" family.  Covers the related-machines setting the paper's
    future-work section points at.
    """
    requirements = [rng.uniform(requirement_low, requirement_high)
                    for _ in range(num_tasks)]
    speeds = [[rng.uniform(speed_low, speed_high)] for _ in range(num_agents)]
    return SchedulingProblem.from_speeds(requirements, speeds)


def task_correlated(num_agents: int, num_tasks: int, rng: random.Random,
                    base_low: float = 1.0, base_high: float = 100.0,
                    noise: float = 0.2) -> SchedulingProblem:
    """Tasks have intrinsic sizes; agents differ by small multiplicative noise.

    This family makes auctions competitive (bids cluster), stressing the
    second-price logic and tie-breaking.
    """
    if not 0 <= noise < 1:
        raise ValueError("noise must be in [0, 1)")
    bases = [rng.uniform(base_low, base_high) for _ in range(num_tasks)]
    times = [
        [base * rng.uniform(1 - noise, 1 + noise) for base in bases]
        for _ in range(num_agents)
    ]
    return SchedulingProblem(times)


def bimodal(num_agents: int, num_tasks: int, rng: random.Random,
            fast: float = 1.0, slow: float = 50.0,
            fast_probability: float = 0.3) -> SchedulingProblem:
    """Each (agent, task) pair is either a specialist (fast) or not (slow).

    Produces instances where the per-task winner is usually clear but the
    second price varies wildly — a stress case for payment computation.
    """
    times = [
        [fast if rng.random() < fast_probability else slow
         for _ in range(num_tasks)]
        for _ in range(num_agents)
    ]
    return SchedulingProblem(times)


def adversarial_for_minwork(num_agents: int) -> SchedulingProblem:
    """The tight instance for MinWork's n-approximation bound.

    ``n`` tasks; every agent can do every task in 1 unit, except agent 0 who
    does every task in ``1 - epsilon``.  MinWork gives *all* tasks to agent
    0 (makespan ~ n) while the optimum spreads them (makespan 1), so the
    ratio approaches ``n``.
    """
    if num_agents < 2:
        raise ValueError("need at least two agents for the adversarial instance")
    epsilon = 1e-6
    times = []
    for agent in range(num_agents):
        value = 1.0 - epsilon if agent == 0 else 1.0
        times.append([value] * num_agents)
    return SchedulingProblem(times)


def discretize_to_bid_set(problem: SchedulingProblem,
                          bid_values: Sequence[int]) -> SchedulingProblem:
    """Project an instance onto DMW's discrete bid set ``W``.

    Each time is mapped to the *relative rank* scale of ``W``: the range of
    observed times is split into ``len(bid_values)`` equal quantile buckets
    and each entry replaced by the corresponding ``w``.  This preserves the
    per-task ordering structure that determines auction outcomes while
    making every value a legal DMW bid.

    Parameters
    ----------
    problem:
        Continuous instance.
    bid_values:
        DMW's ``W = {w_1 < ... < w_k}`` (positive integers).
    """
    ordered = sorted(bid_values)
    if not ordered or ordered[0] <= 0:
        raise ValueError("bid values must be positive")
    flat = sorted({problem.time(i, j)
                   for i in range(problem.num_agents)
                   for j in range(problem.num_tasks)})
    lowest, highest = flat[0], flat[-1]
    span = highest - lowest
    times = []
    for i in range(problem.num_agents):
        row = []
        for j in range(problem.num_tasks):
            if span == 0:
                bucket = 0
            else:
                fraction = (problem.time(i, j) - lowest) / span
                bucket = min(int(fraction * len(ordered)), len(ordered) - 1)
            row.append(float(ordered[bucket]))
        times.append(row)
    return SchedulingProblem(times, problem.tasks)


def random_discrete(num_agents: int, num_tasks: int,
                    bid_values: Sequence[int],
                    rng: random.Random) -> SchedulingProblem:
    """Times drawn uniformly from the discrete bid set ``W`` itself.

    The natural workload for end-to-end DMW runs: every true value is
    already a legal bid.
    """
    ordered = sorted(bid_values)
    if not ordered or ordered[0] <= 0:
        raise ValueError("bid values must be positive")
    times = [
        [float(rng.choice(ordered)) for _ in range(num_tasks)]
        for _ in range(num_agents)
    ]
    return SchedulingProblem(times)


def heavy_tailed(num_agents: int, num_tasks: int, rng: random.Random,
                 mu: float = 2.0, sigma: float = 1.0) -> SchedulingProblem:
    """Log-normal task times: a few huge outliers dominate, as in real
    cluster traces.  Stresses makespan objectives (MinWork can stack the
    outliers on one fast machine) and the discretizer's bucket edges.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    times = [
        [rng.lognormvariate(mu, sigma) for _ in range(num_tasks)]
        for _ in range(num_agents)
    ]
    return SchedulingProblem(times)


def clustered_specialists(num_agents: int, num_tasks: int,
                          rng: random.Random,
                          num_clusters: int = 2,
                          fast: float = 1.0, slow: float = 20.0
                          ) -> SchedulingProblem:
    """Agents specialize in task clusters (e.g. GPU vs CPU jobs).

    Each task belongs to one of ``num_clusters`` types; each agent is fast
    on exactly one type.  Produces structured competition: per task, the
    auction is between same-specialty agents, and second prices split into
    a fast in-specialty price vs a slow out-of-specialty one.
    """
    if num_clusters < 1:
        raise ValueError("need at least one cluster")
    task_type = [rng.randrange(num_clusters) for _ in range(num_tasks)]
    agent_type = [agent % num_clusters for agent in range(num_agents)]
    times = [
        [fast if agent_type[i] == task_type[j] else slow
         for j in range(num_tasks)]
        for i in range(num_agents)
    ]
    return SchedulingProblem(times)
