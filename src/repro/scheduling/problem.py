"""The scheduling-on-unrelated-machines problem model (paper §2.1).

An instance has ``m`` independent tasks ``T^1..T^m`` and ``n`` agents
(machines) ``A_1..A_n``.  Agent ``A_i`` needs ``t_i^j`` time units for task
``T^j``; the ``t_i^j`` are arbitrary ("unrelated"), though the classical
related-machines special case ``t_i^j = r^j / s_i`` is supported through
:meth:`SchedulingProblem.from_speeds`.

``t_i^j`` values are the agents' *private types*; mechanisms receive *bids*
``y_i^j`` that may differ from them.  Both are represented by the same
matrix type.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple


@dataclass(frozen=True)
class Task:
    """A task: an index and a processing requirement in abstract units.

    The processing requirement ``r^j`` only matters for the related-machines
    constructor; unrelated instances are fully described by the time matrix.
    """

    index: int
    processing_requirement: float = 1.0

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError("task index must be non-negative")
        if self.processing_requirement <= 0:
            raise ValueError("processing requirement must be positive")


class SchedulingProblem:
    """An instance of scheduling on unrelated machines.

    Parameters
    ----------
    times:
        Row-major matrix: ``times[i][j]`` is the time agent ``A_i`` needs
        for task ``T^j`` (the private true values ``t_i^j``).  All entries
        must be positive.
    tasks:
        Optional task metadata; defaults to unit-requirement tasks.
    """

    def __init__(self, times: Sequence[Sequence[float]],
                 tasks: Optional[Sequence[Task]] = None) -> None:
        if not times or not times[0]:
            raise ValueError("need at least one agent and one task")
        width = len(times[0])
        for row in times:
            if len(row) != width:
                raise ValueError("ragged time matrix")
            for value in row:
                if value <= 0:
                    raise ValueError("processing times must be positive")
        self._times = tuple(tuple(float(v) for v in row) for row in times)
        if tasks is None:
            tasks = [Task(index=j) for j in range(width)]
        if len(tasks) != width:
            raise ValueError(
                "got %d task records for %d columns" % (len(tasks), width)
            )
        self.tasks: Tuple[Task, ...] = tuple(tasks)

    # -- constructors --------------------------------------------------------
    @classmethod
    def from_speeds(cls, requirements: Sequence[float],
                    speeds: Sequence[Sequence[float]]) -> "SchedulingProblem":
        """Build an instance from requirements ``r^j`` and speeds ``s_i^j``.

        ``t_i^j = r^j / s_i^j`` per §2.1.  ``speeds[i][j]`` may also be a
        single per-agent scalar row of length 1, in which case the agent has
        one uniform speed (the related-machines model).
        """
        times = []
        for speed_row in speeds:
            if len(speed_row) == 1:
                speed_row = [speed_row[0]] * len(requirements)
            if len(speed_row) != len(requirements):
                raise ValueError("speed row length mismatch")
            if any(s <= 0 for s in speed_row):
                raise ValueError("speeds must be positive")
            times.append([r / s for r, s in zip(requirements, speed_row)])
        tasks = [Task(index=j, processing_requirement=r)
                 for j, r in enumerate(requirements)]
        return cls(times, tasks)

    # -- queries --------------------------------------------------------------
    @property
    def num_agents(self) -> int:
        return len(self._times)

    @property
    def num_tasks(self) -> int:
        return len(self._times[0])

    def time(self, agent: int, task: int) -> float:
        """Return ``t_agent^task``."""
        return self._times[agent][task]

    def agent_times(self, agent: int) -> Tuple[float, ...]:
        """Return agent ``i``'s full row ``(t_i^1, ..., t_i^m)``."""
        return self._times[agent]

    def task_times(self, task: int) -> Tuple[float, ...]:
        """Return the column ``(t_1^j, ..., t_n^j)``."""
        return tuple(row[task] for row in self._times)

    @property
    def times(self) -> Tuple[Tuple[float, ...], ...]:
        """The full (immutable) time matrix."""
        return self._times

    def with_agent_row(self, agent: int,
                       row: Sequence[float]) -> "SchedulingProblem":
        """Return a copy with agent ``agent``'s row replaced.

        This is the ``{y_{-i}, y_i'}`` operation used throughout
        truthfulness checking: swap one agent's report, keep the rest.
        """
        if len(row) != self.num_tasks:
            raise ValueError("replacement row has wrong length")
        rows = [list(r) for r in self._times]
        rows[agent] = list(row)
        return SchedulingProblem(rows, self.tasks)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SchedulingProblem):
            return NotImplemented
        return self._times == other._times and self.tasks == other.tasks

    def __hash__(self) -> int:
        return hash((self._times, self.tasks))

    def __repr__(self) -> str:
        return "SchedulingProblem(n=%d, m=%d)" % (self.num_agents, self.num_tasks)
