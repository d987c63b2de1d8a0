"""Job submissions: strict validation into protocol-ready requests.

The gateway accepts JSON job documents; everything protocol-facing is
validated *here*, before anything is queued, so a malformed submission
is rejected with a structured, field-level 4xx body and the queue is
untouched.  A validated :class:`JobRequest` is a pure value object — the
engine (not the gateway thread) turns it into
:class:`~repro.core.parameters.DMWParameters`, agents, and a problem
instance inside the job's own backend context.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..crypto import backend as crypto_backend
from ..crypto.groups import FIXTURE_SIZES

#: Execution modes a job may request.  ``sequential`` is the reference
#: driver; ``pool`` shards auctions over the engine's resident process
#: pool (``workers`` applies); ``barrier`` is the in-process
#: phase-barrier driver.
MODES = ("sequential", "pool", "barrier")

#: Hard ceilings so one submission cannot occupy the daemon for hours.
MAX_AGENTS = 64
MAX_TASKS = 256
MAX_WORKERS = 32


class JobValidationError(Exception):
    """A submission failed validation; carries field-level errors."""

    def __init__(self, errors: List[Dict[str, str]]) -> None:
        super().__init__("invalid job: %s"
                         % "; ".join(e["error"] for e in errors))
        self.errors = errors

    def as_document(self) -> Dict[str, Any]:
        """The structured 4xx body the gateway returns."""
        return {"error": "invalid_job", "detail": self.errors}


@dataclass(frozen=True)
class JobRequest:
    """One validated auction job, ready for the engine."""

    agents: int
    tasks: int
    seed: int
    fault_bound: int = 1
    group_size: str = "small"
    backend: str = "python"
    mode: str = "sequential"
    workers: int = 2
    degraded: bool = False
    #: Explicit instance rows (agents x tasks) overriding the seeded
    #: random instance; values must lie in the derived bid set.
    times: Optional[Tuple[Tuple[int, ...], ...]] = None

    def as_document(self) -> Dict[str, Any]:
        document: Dict[str, Any] = {
            "agents": self.agents, "tasks": self.tasks, "seed": self.seed,
            "fault_bound": self.fault_bound, "group_size": self.group_size,
            "backend": self.backend, "mode": self.mode,
            "workers": self.workers, "degraded": self.degraded,
        }
        if self.times is not None:
            document["times"] = [list(row) for row in self.times]
        return document


@dataclass
class _Errors:
    items: List[Dict[str, str]] = field(default_factory=list)

    def add(self, fieldname: str, message: str) -> None:
        self.items.append({"field": fieldname, "error": message})


def _int_field(payload: Dict[str, Any], name: str, errors: _Errors,
               default: Optional[int], minimum: int, maximum: int
               ) -> Optional[int]:
    value = payload.get(name, default)
    if value is None:
        errors.add(name, "required")
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        errors.add(name, "must be an integer")
        return None
    if not minimum <= value <= maximum:
        errors.add(name, "must be in [%d, %d]" % (minimum, maximum))
        return None
    return value


def parse_job(payload: Any) -> JobRequest:
    """Validate one submission document into a :class:`JobRequest`.

    Raises
    ------
    JobValidationError
        With one entry per offending field; nothing is queued.
    """
    if not isinstance(payload, dict):
        raise JobValidationError(
            [{"field": "", "error": "job document must be a JSON object"}])
    errors = _Errors()
    known = {"agents", "tasks", "seed", "fault_bound", "group_size",
             "backend", "mode", "workers", "degraded", "times"}
    for name in sorted(set(payload) - known):
        errors.add(name, "unknown field")
    agents = _int_field(payload, "agents", errors, None, 3, MAX_AGENTS)
    tasks = _int_field(payload, "tasks", errors, None, 1, MAX_TASKS)
    seed = _int_field(payload, "seed", errors, None, 0, 2**63 - 1)
    fault_bound = _int_field(payload, "fault_bound", errors, 1, 1, MAX_AGENTS)
    workers = _int_field(payload, "workers", errors, 2, 1, MAX_WORKERS)
    group_size = payload.get("group_size", "small")
    if not isinstance(group_size, str) or group_size not in FIXTURE_SIZES:
        errors.add("group_size", "must be one of %s"
                   % ", ".join(sorted(FIXTURE_SIZES)))
    backend = payload.get("backend", "python")
    if backend not in crypto_backend.available_backends():
        errors.add("backend", "must be one of %s"
                   % ", ".join(crypto_backend.available_backends()))
    mode = payload.get("mode", "sequential")
    if mode not in MODES:
        errors.add("mode", "must be one of %s" % ", ".join(MODES))
    degraded = payload.get("degraded", False)
    if not isinstance(degraded, bool):
        errors.add("degraded", "must be a boolean")
        degraded = False
    if agents is not None and fault_bound is not None \
            and agents < fault_bound + 2:
        errors.add("agents", "need agents >= fault_bound + 2 for a "
                   "non-empty bid set")
    times = _parse_times(payload.get("times"), agents, tasks, fault_bound,
                         errors)
    if errors.items:
        raise JobValidationError(errors.items)
    assert agents is not None and tasks is not None and seed is not None
    assert fault_bound is not None and workers is not None
    return JobRequest(agents=agents, tasks=tasks, seed=seed,
                      fault_bound=fault_bound, group_size=group_size,
                      backend=backend, mode=mode, workers=workers,
                      degraded=degraded, times=times)


def _parse_times(raw: Any, agents: Optional[int], tasks: Optional[int],
                 fault_bound: Optional[int], errors: _Errors
                 ) -> Optional[Tuple[Tuple[int, ...], ...]]:
    """Validate an explicit instance matrix against the derived bid set."""
    if raw is None:
        return None
    if agents is None or tasks is None or fault_bound is None:
        return None
    if (not isinstance(raw, list) or len(raw) != agents
            or not all(isinstance(row, list) and len(row) == tasks
                       for row in raw)):
        errors.add("times", "must be an %s x %s matrix" % (agents, tasks))
        return None
    top = agents - fault_bound - 1
    rows = []
    for index, row in enumerate(raw):
        clean = []
        for value in row:
            if isinstance(value, bool) or not isinstance(value, int) \
                    or not 1 <= value <= top:
                errors.add("times",
                           "row %d: values must be integers in the bid "
                           "set {1, ..., %d}" % (index, top))
                return None
            clean.append(value)
        rows.append(tuple(clean))
    return tuple(rows)


def seeded_instance(request: JobRequest, parameters: Any) -> Any:
    """Build the job's problem instance (explicit rows or seeded random).

    Mirrors the CLI's construction exactly — same RNG derivation from
    the seed — so a service job and ``dmw run --seed S`` on the same
    shape produce bit-identical instances and outcomes.
    """
    from ..scheduling import workloads
    from ..scheduling.problem import SchedulingProblem

    if request.times is not None:
        return SchedulingProblem([list(row) for row in request.times])
    rng = random.Random(request.seed)
    return workloads.random_discrete(parameters.num_agents, request.tasks,
                                     parameters.bid_values, rng)
