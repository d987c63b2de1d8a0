"""Schedules: partitions of the task set over agents (paper §2.1).

A schedule ``S`` partitions task indices into disjoint sets ``S_i``; the
objective the paper targets is the makespan ``C_max = max_i sum_{j in S_i}
t_i^j`` while MinWork actually minimizes the *total work* ``sum_i sum_{j in
S_i} t_i^j`` (which makes it an n-approximation of the makespan — an
experiment in :mod:`repro.analysis.approximation`).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from .problem import SchedulingProblem


class Schedule:
    """An assignment of every task to exactly one agent.

    Parameters
    ----------
    assignment:
        ``assignment[j]`` is the agent index that task ``j`` is allocated
        to.  Every task must be assigned (MinWork always produces a complete
        assignment).
    num_agents:
        Number of agents ``n`` (agents may receive no tasks).
    """

    def __init__(self, assignment: Sequence[int], num_agents: int) -> None:
        if num_agents < 1:
            raise ValueError("need at least one agent")
        for j, agent in enumerate(assignment):
            if not 0 <= agent < num_agents:
                raise ValueError(
                    "task %d assigned to invalid agent %d" % (j, agent)
                )
        self._assignment = tuple(assignment)
        self._num_agents = num_agents

    # -- constructors --------------------------------------------------------
    @classmethod
    def from_partition(cls, partition: Sequence[Iterable[int]],
                       num_tasks: int) -> "Schedule":
        """Build from the paper's partition form ``{S_1, ..., S_n}``."""
        assignment = [-1] * num_tasks
        for agent, tasks in enumerate(partition):
            for task in tasks:
                if not 0 <= task < num_tasks:
                    raise ValueError("task index %d out of range" % task)
                if assignment[task] != -1:
                    raise ValueError("task %d assigned twice" % task)
                assignment[task] = agent
        if any(agent == -1 for agent in assignment):
            missing = [j for j, a in enumerate(assignment) if a == -1]
            raise ValueError("tasks %s unassigned" % missing)
        return cls(assignment, len(partition))

    # -- queries --------------------------------------------------------------
    @property
    def assignment(self) -> Tuple[int, ...]:
        return self._assignment

    @property
    def num_agents(self) -> int:
        return self._num_agents

    @property
    def num_tasks(self) -> int:
        return len(self._assignment)

    def agent_of(self, task: int) -> int:
        """Return the agent that task ``task`` is allocated to."""
        return self._assignment[task]

    def tasks_of(self, agent: int) -> Tuple[int, ...]:
        """Return ``S_agent``, the tasks allocated to ``agent``."""
        return tuple(j for j, a in enumerate(self._assignment) if a == agent)

    def partition(self) -> List[Tuple[int, ...]]:
        """Return the paper's partition form ``[S_1, ..., S_n]``."""
        return [self.tasks_of(agent) for agent in range(self._num_agents)]

    # -- objectives -------------------------------------------------------------
    def completion_time(self, agent: int, problem: SchedulingProblem) -> float:
        """Return ``sum_{j in S_agent} t_agent^j``."""
        return sum(problem.time(agent, j) for j in self.tasks_of(agent))

    def makespan(self, problem: SchedulingProblem) -> float:
        """Return ``C_max = max_i completion_time(i)``."""
        return max(self.completion_time(agent, problem)
                   for agent in range(self._num_agents))

    def total_work(self, problem: SchedulingProblem) -> float:
        """Return ``sum_i completion_time(i)`` — MinWork's objective."""
        return sum(problem.time(self._assignment[j], j)
                   for j in range(self.num_tasks))

    def valuation(self, agent: int, problem: SchedulingProblem) -> float:
        """Return agent ``i``'s valuation ``V_i = -sum_{j in S_i} t_i^j``.

        ``problem`` must hold the agent's *true* times for this to be the
        paper's valuation (Definition 2, item 3).
        """
        return -self.completion_time(agent, problem)

    # -- dunder plumbing ---------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schedule):
            return NotImplemented
        return (self._assignment, self._num_agents) == (
            other._assignment, other._num_agents
        )

    def __hash__(self) -> int:
        return hash((self._assignment, self._num_agents))

    def __repr__(self) -> str:
        return "Schedule(%r, num_agents=%d)" % (
            list(self._assignment), self._num_agents
        )


class PartialSchedule:
    """An assignment covering only the *surviving* tasks of a degraded run.

    Graceful degradation (``docs/RESILIENCE.md``) quarantines the auction
    of a faulty task instead of voiding the whole execution; the outcome
    then allocates every completed task and leaves quarantined ones
    unassigned.  ``assignment[j]`` is the winning agent of task ``j``, or
    ``None`` when task ``j`` was quarantined.  The objective/valuation
    queries mirror :class:`Schedule` restricted to the assigned tasks
    (a quarantined task produces no work and no valuation for anyone).
    """

    def __init__(self, assignment: Sequence[Optional[int]],
                 num_agents: int) -> None:
        if num_agents < 1:
            raise ValueError("need at least one agent")
        for j, agent in enumerate(assignment):
            if agent is not None and not 0 <= agent < num_agents:
                raise ValueError(
                    "task %d assigned to invalid agent %r" % (j, agent)
                )
        self._assignment = tuple(assignment)
        self._num_agents = num_agents

    @classmethod
    def from_schedule(cls, schedule: Schedule,
                      completed_tasks: Iterable[int]) -> "PartialSchedule":
        """Restrict a full schedule to ``completed_tasks`` (rest ``None``)."""
        keep = set(completed_tasks)
        return cls([agent if task in keep else None
                    for task, agent in enumerate(schedule.assignment)],
                   schedule.num_agents)

    # -- queries --------------------------------------------------------------
    @property
    def assignment(self) -> Tuple[Optional[int], ...]:
        return self._assignment

    @property
    def num_agents(self) -> int:
        return self._num_agents

    @property
    def num_tasks(self) -> int:
        return len(self._assignment)

    @property
    def assigned_tasks(self) -> Tuple[int, ...]:
        """Tasks with a winner (the auctions that completed)."""
        return tuple(j for j, a in enumerate(self._assignment)
                     if a is not None)

    @property
    def unassigned_tasks(self) -> Tuple[int, ...]:
        """Quarantined tasks (no allocation executed)."""
        return tuple(j for j, a in enumerate(self._assignment) if a is None)

    def agent_of(self, task: int) -> Optional[int]:
        """The agent of ``task``, or ``None`` when quarantined."""
        return self._assignment[task]

    def tasks_of(self, agent: int) -> Tuple[int, ...]:
        """Return ``S_agent`` over the surviving tasks."""
        return tuple(j for j, a in enumerate(self._assignment) if a == agent)

    # -- objectives -------------------------------------------------------------
    def completion_time(self, agent: int, problem: SchedulingProblem) -> float:
        """``sum_{j in S_agent} t_agent^j`` over the surviving tasks."""
        return sum(problem.time(agent, j) for j in self.tasks_of(agent))

    def makespan(self, problem: SchedulingProblem) -> float:
        """``C_max`` over the surviving tasks."""
        return max(self.completion_time(agent, problem)
                   for agent in range(self._num_agents))

    def total_work(self, problem: SchedulingProblem) -> float:
        """Total work over the surviving tasks."""
        return sum(problem.time(self._assignment[j], j)
                   for j in self.assigned_tasks)

    def valuation(self, agent: int, problem: SchedulingProblem) -> float:
        """``V_i = -sum_{j in S_i} t_i^j`` over the surviving tasks."""
        return -self.completion_time(agent, problem)

    # -- dunder plumbing ---------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PartialSchedule):
            return NotImplemented
        return (self._assignment, self._num_agents) == (
            other._assignment, other._num_agents
        )

    def __hash__(self) -> int:
        return hash((self._assignment, self._num_agents))

    def __repr__(self) -> str:
        return "PartialSchedule(%r, num_agents=%d)" % (
            list(self._assignment), self._num_agents
        )
