"""Experiment E1/E2: regenerating Table 1 by measurement.

Table 1 of the paper:

=========  ==================  ====================
mechanism  communication cost  computational cost
=========  ==================  ====================
MinWork    Theta(m n)          Theta(m n)
DMW        Theta(m n^2)        O(m n^2 log p)
=========  ==================  ====================

This module *measures* both columns: it runs centralized MinWork over the
network simulator (agents unicast each bid value to a trusted center, per
the remark after Theorem 11) and full DMW, recording actual message counts
and actual counted modular-multiplication work, then fits log-log slopes
over sweeps of ``n``, ``m``, and ``log p`` to compare the measured scaling
exponents against the predicted ones.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.parameters import DMWParameters
from ..core.protocol import run_dmw
from ..crypto.groups import GroupParameters
from ..mechanisms.minwork import MinWork
from ..network.simulator import SynchronousNetwork
from ..scheduling import workloads
from ..scheduling.problem import SchedulingProblem


@dataclass(frozen=True)
class CostSample:
    """One measured data point of a cost sweep."""

    num_agents: int
    num_tasks: int
    p_bits: int
    messages: int
    field_elements: int
    computation: int
    rounds: int


def run_centralized_minwork_over_network(problem: SchedulingProblem
                                         ) -> Tuple[CostSample, object]:
    """Run MinWork with a trusted center over the simulator.

    Each agent unicasts its ``m`` bid values to the center (``Theta(mn)``
    messages); the center computes the outcome (``Theta(mn)`` elementary
    operations) and publishes the schedule and payments.  Returns the
    measured :class:`CostSample` and the mechanism result.
    """
    n, m = problem.num_agents, problem.num_tasks
    network = SynchronousNetwork(n, extra_participants=1)
    center = n
    for agent in range(n):
        for task in range(m):
            network.send(agent, center, "bid",
                         (task, problem.time(agent, task)), field_elements=1)
    network.deliver()
    received: Dict[int, List[float]] = {agent: [0.0] * m for agent in range(n)}
    for message in network.receive(center, "bid"):
        task, value = message.payload
        received[message.sender][task] = value
    bids = SchedulingProblem([received[agent] for agent in range(n)])
    mechanism = MinWork()
    result = mechanism.run(bids)
    network.send(center, 0, "outcome",
                 (result.schedule.assignment, result.payments),
                 field_elements=m + n)
    for agent in range(1, n):
        network.send(center, agent, "outcome",
                     (result.schedule.assignment, result.payments),
                     field_elements=m + n)
    network.deliver()
    metrics = network.metrics
    sample = CostSample(
        num_agents=n, num_tasks=m, p_bits=0,
        messages=metrics.point_to_point_messages,
        field_elements=metrics.field_elements,
        computation=mechanism.last_operation_count,
        rounds=metrics.rounds,
    )
    return sample, result


def measure_minwork(num_agents: int, num_tasks: int,
                    seed: int = 0) -> CostSample:
    """Measured MinWork costs on a random discrete workload."""
    rng = random.Random(seed)
    problem = workloads.uniform_random(num_agents, num_tasks, rng)
    sample, _ = run_centralized_minwork_over_network(problem)
    return sample


def measure_dmw(num_agents: int, num_tasks: int, fault_bound: int = 1,
                group_size: str = "small", seed: int = 0,
                group_parameters: Optional[GroupParameters] = None
                ) -> CostSample:
    """Measured DMW costs (messages + max per-agent multiplication work)."""
    rng = random.Random(seed)
    parameters = DMWParameters.generate(
        num_agents, fault_bound=fault_bound,
        group_parameters=group_parameters, group_size=group_size,
    )
    problem = workloads.random_discrete(num_agents, num_tasks,
                                        parameters.bid_values, rng)
    outcome = run_dmw(problem, parameters=parameters, rng=rng)
    if not outcome.completed:
        raise RuntimeError("honest DMW run aborted: %r" % outcome.abort)
    metrics = outcome.network_metrics
    return CostSample(
        num_agents=num_agents, num_tasks=num_tasks,
        p_bits=parameters.group.p_bits,
        messages=metrics.point_to_point_messages,
        field_elements=metrics.field_elements,
        computation=outcome.max_agent_work,
        rounds=metrics.rounds,
    )


def fit_loglog_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of ``log y`` against ``log x``.

    This is the measured scaling exponent: ~1 for linear, ~2 for quadratic.
    Implemented directly (no numpy dependency in the library core).
    """
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need at least two matching samples")
    log_x = [math.log(x) for x in xs]
    log_y = [math.log(y) for y in ys]
    mean_x = sum(log_x) / len(log_x)
    mean_y = sum(log_y) / len(log_y)
    numerator = sum((lx - mean_x) * (ly - mean_y)
                    for lx, ly in zip(log_x, log_y))
    denominator = sum((lx - mean_x) ** 2 for lx in log_x)
    if denominator == 0:
        raise ValueError("x values must not be constant")
    return numerator / denominator


@dataclass(frozen=True)
class ScalingFit:
    """A fitted scaling exponent with its predicted value."""

    variable: str
    mechanism: str
    quantity: str
    measured_exponent: float
    predicted_exponent: float
    samples: Tuple[CostSample, ...]

    @property
    def within(self) -> float:
        """Absolute deviation from the prediction."""
        return abs(self.measured_exponent - self.predicted_exponent)


def sweep_agents(agent_counts: Sequence[int], num_tasks: int = 2,
                 measure: Callable = measure_dmw,
                 **kwargs) -> List[CostSample]:
    """Measure costs across a sweep of ``n`` at fixed ``m``."""
    return [measure(n, num_tasks, **kwargs) for n in agent_counts]


def sweep_tasks(task_counts: Sequence[int], num_agents: int = 6,
                measure: Callable = measure_dmw,
                **kwargs) -> List[CostSample]:
    """Measure costs across a sweep of ``m`` at fixed ``n``."""
    return [measure(num_agents, m, **kwargs) for m in task_counts]


def sweep_group_size(sizes: Sequence[str], num_agents: int = 6,
                     num_tasks: int = 2) -> List[CostSample]:
    """Measure DMW computation across cryptographic group sizes.

    Exercises the ``log p`` factor of Theorem 12: message counts must not
    change, multiplication work must grow roughly linearly in ``p_bits``.
    """
    samples = []
    for size in sizes:
        samples.append(measure_dmw(num_agents, num_tasks, group_size=size))
    return samples


def table1_fits(agent_counts: Sequence[int] = (4, 6, 8, 10, 12),
                task_counts: Sequence[int] = (1, 2, 4, 6, 8),
                ) -> List[ScalingFit]:
    """Fit every scaling exponent Table 1 predicts.

    Returns eight fits: {MinWork, DMW} x {communication, computation} x
    {n-sweep, m-sweep} with predictions (1, 2, 1, 1) for communication in
    (MinWork-n is actually 1; DMW-n is 2; both m-sweeps are 1) and the
    analogous computation rows.
    """
    fits: List[ScalingFit] = []
    specs = [
        ("minwork", measure_minwork, {"n": 1.0, "m": 1.0},
         {"n": 1.0, "m": 1.0}),
        ("dmw", measure_dmw, {"n": 2.0, "m": 1.0}, {"n": 2.0, "m": 1.0}),
    ]
    for name, measure, comm_predictions, comp_predictions in specs:
        n_samples = sweep_agents(agent_counts, measure=measure)
        m_samples = sweep_tasks(task_counts, measure=measure)
        for variable, samples, axis in (
            ("n", n_samples, [s.num_agents for s in n_samples]),
            ("m", m_samples, [s.num_tasks for s in m_samples]),
        ):
            comm_prediction = (comm_predictions[variable])
            comp_prediction = (comp_predictions[variable])
            fits.append(ScalingFit(
                variable=variable, mechanism=name, quantity="communication",
                measured_exponent=fit_loglog_slope(
                    axis, [s.messages for s in samples]),
                predicted_exponent=comm_prediction,
                samples=tuple(samples),
            ))
            fits.append(ScalingFit(
                variable=variable, mechanism=name, quantity="computation",
                measured_exponent=fit_loglog_slope(
                    axis, [s.computation for s in samples]),
                predicted_exponent=comp_prediction,
                samples=tuple(samples),
            ))
    return fits
