"""Always-on auction service: persistent gateway over the DMW engine.

The paper's mechanism is meant to be *deployed* — a distributed
scheduler serving a stream of auction requests, not a cold CLI process
per instance.  This package turns the reproduction into that daemon:

* :mod:`repro.service.jobs` — job submissions validated into
  :class:`~repro.core.parameters.DMWParameters` with structured,
  field-level errors (the gateway's 4xx bodies);
* :mod:`repro.service.warmcache` — the cross-run warm-cache layer:
  public-value entries and fixed-base tables survive between jobs keyed
  by group parameters, so repeat-parameter sequential and barrier jobs
  skip precomputation while every counter stays bit-identical; pool
  shards start cold (``docs/SERVICE.md``);
* :mod:`repro.service.engine` — the resident worker engine: a queue,
  one executor thread running jobs strictly in submission order
  (sequential or sharded over a long-lived ``repro.parallel`` pool),
  per-job arithmetic-backend selection, and a persistent metrics
  registry;
* :mod:`repro.service.gateway` — a dependency-free asyncio HTTP/1.1
  gateway (``dmw serve``) exposing job submission/status, versioned run
  reports, and Prometheus ``/metrics``.
"""

from .engine import AuctionService, JobRecord
from .gateway import ServiceGateway, serve
from .jobs import JobRequest, JobValidationError, parse_job
from .warmcache import WarmCacheStore

__all__ = [
    "AuctionService",
    "JobRecord",
    "JobRequest",
    "JobValidationError",
    "ServiceGateway",
    "WarmCacheStore",
    "parse_job",
    "serve",
]
