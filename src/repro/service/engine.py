"""The resident worker engine behind the gateway.

One :class:`AuctionService` owns:

* a FIFO job queue drained by a single executor thread — concurrently
  submitted jobs run strictly in submission order, so the daemon's
  results are deterministic regardless of arrival interleaving;
* the :class:`~repro.service.warmcache.WarmCacheStore` — repeat-group
  sequential and barrier jobs start from the accumulated public entries
  and skip precomputation (outcomes and counters bit-identical; only
  ``cache_stats`` and wall-clock shift, by design);
* an optional resident ``ProcessPoolExecutor`` for ``mode="pool"`` jobs,
  reused across jobs (shards re-install their job's spec worker-side
  and start cold: the warm store stays in this process);
* a persistent metrics registry (`dmw_service_*`, `dmw_warm_cache_*`,
  `dmw_fixed_base_table_*`) concatenated with the latest finished job's
  canonical run registry for ``/metrics``.

Per-job arithmetic-backend selection routes through
:func:`repro.crypto.backend.using_backend` inside the executor thread:
the daemon honours each job's requested engine even though
``DMW_BACKEND`` was read once at import (the engine global is restored
between jobs, and pool shards carry the backend by name in their
:class:`~repro.parallel.PoolSpec`).
"""

from __future__ import annotations

import queue
import random
import threading
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..core.agent import DMWAgent
from ..core.parameters import DMWParameters
from ..core.protocol import DMWProtocol
from ..crypto import backend as crypto_backend
from ..obs.export import run_report, validate_run_report
from ..obs.metrics import (MetricsRegistry, bind_fastexp_metrics,
                           registry_for_run)
from ..obs.recorder import Recorder
from .jobs import JobRequest, parse_job, seeded_instance
from .warmcache import WarmCacheStore

#: Latency buckets for the job-duration histogram (seconds).  Auction
#: jobs on the fixture groups run tens of milliseconds to tens of
#: seconds; the default bucket ladder tops out too early.
DURATION_BUCKETS = (0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
                    60.0, 120.0)

JOB_STATES = ("queued", "running", "done", "failed")


@dataclass
class JobRecord:
    """Lifecycle record of one submitted job."""

    job_id: str
    request: JobRequest
    state: str = "queued"
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    warm: Optional[bool] = None
    completed: Optional[bool] = None
    error: Optional[str] = None
    report: Optional[Dict[str, Any]] = None
    outcome: Any = None
    cache_stats: Dict[str, int] = field(default_factory=dict)

    def duration(self) -> Optional[float]:
        if self.started_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.started_at

    def as_document(self, include_report: bool = False) -> Dict[str, Any]:
        document: Dict[str, Any] = {
            "id": self.job_id,
            "state": self.state,
            "request": self.request.as_document(),
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "duration_s": self.duration(),
            "warm": self.warm,
            "completed": self.completed,
            "error": self.error,
        }
        if include_report:
            document["report"] = self.report
        return document


class AuctionService:
    """Queue + resident executor thread + warm caches + metrics."""

    def __init__(self, warm_capacity: int = 8,
                 pool_workers: int = 2,
                 max_queued: int = 256) -> None:
        self._queue: "queue.Queue[Optional[str]]" = queue.Queue()
        self._jobs: Dict[str, JobRecord] = {}
        self._order: List[str] = []
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self._busy = 0
        self._next_id = 0
        self._closed = False
        self.max_queued = max_queued
        self.pool_workers = pool_workers
        self.store = WarmCacheStore(capacity=warm_capacity)
        self._pool: Optional[ProcessPoolExecutor] = None
        self._last_run_registry: Optional[MetricsRegistry] = None
        self.registry = MetricsRegistry(namespace="dmw")
        self._jobs_total = self.registry.counter(
            "service_jobs_total", "Jobs by terminal state", ["state"])
        self._job_seconds = self.registry.histogram(
            "service_job_duration_seconds",
            "Wall-clock execution time per job", ["mode", "cache"],
            buckets=DURATION_BUCKETS)
        self._queue_depth = self.registry.gauge(
            "service_queue_depth", "Jobs queued but not yet running")
        self._worker = threading.Thread(target=self._run_loop,
                                        name="dmw-service-worker",
                                        daemon=True)
        self._worker.start()

    # -- submission -----------------------------------------------------------
    def submit(self, payload: Any) -> JobRecord:
        """Validate and enqueue one job document.

        Raises :class:`~repro.service.jobs.JobValidationError` (the
        gateway's 400) before anything is queued, and
        :class:`RuntimeError` when the daemon is shutting down or the
        queue is at capacity (503).
        """
        request = parse_job(payload)
        with self._lock:
            if self._closed:
                raise RuntimeError("service is shutting down")
            if self._queue.qsize() >= self.max_queued:
                raise RuntimeError("job queue is full")
            self._next_id += 1
            record = JobRecord(job_id="job-%d" % self._next_id,
                               request=request,
                               submitted_at=time.time())
            self._jobs[record.job_id] = record
            self._order.append(record.job_id)
        self._queue.put(record.job_id)
        self._queue_depth.set(self._queue.qsize())
        return record

    # -- queries --------------------------------------------------------------
    def job(self, job_id: str) -> Optional[JobRecord]:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> List[JobRecord]:
        with self._lock:
            return [self._jobs[job_id] for job_id in self._order]

    def wait_idle(self, timeout: float = 60.0) -> bool:
        """Block until the queue is drained and no job is running."""
        deadline = time.monotonic() + timeout
        with self._idle:
            while self._queue.qsize() > 0 or self._busy:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._idle.wait(remaining)
        return True

    # -- the executor thread --------------------------------------------------
    def _run_loop(self) -> None:
        while True:
            job_id = self._queue.get()
            if job_id is None:
                return
            with self._lock:
                record = self._jobs[job_id]
                record.state = "running"
                record.started_at = time.time()
                self._busy += 1
            self._queue_depth.set(self._queue.qsize())
            state, error = "done", None
            try:
                self._execute(record)
            except Exception:
                state, error = "failed", traceback.format_exc(limit=8)
            finished_at = time.time()
            # The gateway reads records without the lock: stamp first and
            # publish the terminal state last, so a poll that sees "done"
            # or "failed" always sees finished_at and the error too.
            with self._lock:
                record.finished_at = finished_at
                record.error = error
                record.state = state
            self._jobs_total.inc(state=state)
            duration = record.duration()
            if duration is not None:
                self._job_seconds.observe(
                    duration, mode=record.request.mode,
                    cache="warm" if record.warm else "cold")
            with self._idle:
                self._busy -= 1
                self._idle.notify_all()

    def _execute(self, record: JobRecord) -> None:
        """Run one job start-to-finish inside its backend context."""
        request = record.request
        with crypto_backend.using_backend(request.backend):
            parameters = DMWParameters.generate(
                request.agents, fault_bound=request.fault_bound,
                group_size=request.group_size)
            problem = seeded_instance(request, parameters)
            # Agent seeding mirrors `dmw run --seed S` exactly, so a
            # service job reproduces the CLI run bit-for-bit.
            master = random.Random(request.seed + 1)
            agents = [
                DMWAgent(index, parameters,
                         [int(problem.time(index, task))
                          for task in range(problem.num_tasks)],
                         rng=random.Random(master.getrandbits(64)))
                for index in range(parameters.num_agents)
            ]
            recorder = Recorder()
            protocol = DMWProtocol(parameters, agents, recorder=recorder)
            # Pool shards start cold: cache entries never cross processes.
            pooled = request.mode == "pool"
            record.warm = not pooled and self.store.warm(parameters)
            cache = None if pooled else self.store.cache_for(parameters)
            outcome = protocol.execute(
                problem.num_tasks,
                parallel=(request.mode != "sequential"),
                degraded=request.degraded,
                workers=request.workers if pooled else None,
                warm_cache=cache,
                pool=self._resident_pool() if pooled else None)
            if cache is not None:
                self.store.absorb(parameters, cache)
            registry = registry_for_run(outcome, agents=agents,
                                        recorder=recorder)
            document = run_report(outcome, agents=agents, recorder=recorder,
                                  registry=registry, parameters=parameters)
        validate_run_report(document)
        record.outcome = outcome
        record.report = document
        record.completed = outcome.completed
        record.cache_stats = dict(outcome.cache_stats or {})
        with self._lock:
            self._last_run_registry = registry

    def _resident_pool(self) -> ProcessPoolExecutor:
        """The long-lived executor shared by every pool-mode job."""
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.pool_workers)
        return self._pool

    # -- observability --------------------------------------------------------
    def metrics_text(self) -> str:
        """Prometheus exposition: service series + latest run's series.

        The two registries have disjoint metric names (``dmw_service_*``
        / ``dmw_warm_cache_*`` / ``dmw_fixed_base_table_*`` vs the
        canonical per-run ``dmw_run_*``/``dmw_network_*``/... set), so
        the concatenation parses as one document.
        """
        stats = self.store.stats()
        for name, value in stats.items():
            self.registry.gauge(
                "warm_cache_" + name,
                "Warm cross-run cache store: " + name).set(value)
        bind_fastexp_metrics(self.registry)
        text = self.registry.to_prometheus()
        with self._lock:
            last = self._last_run_registry
        if last is not None:
            text += last.to_prometheus()
        return text

    # -- lifecycle ------------------------------------------------------------
    def close(self, timeout: float = 30.0) -> None:
        """Drain the worker thread and shut the resident pool down."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._queue.put(None)
        self._worker.join(timeout)
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
