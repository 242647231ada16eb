"""Long-lived sweep service: shared result store, dedup'ing job queue,
and an HTTP serving tier for estimate / advise / sweep queries.

The batch experiments regenerate the paper's figures; this package
serves the same numbers *on demand*.  Three layers, each usable alone:

* :class:`~repro.service.store.ResultStore` — a content-addressed,
  point-typed view of the :class:`~repro.sim.cache.SimCache`, shareable
  across processes through one spill directory,
* :class:`~repro.service.queue.JobQueue` — an asyncio queue that
  deduplicates concurrent identical requests into one simulation and
  writes every result through to the store,
* :class:`~repro.service.http.SweepService` /
  :class:`~repro.service.http.ServiceServer` — a stdlib HTTP front end
  answering warm queries in sub-millisecond time from the store or the
  precomputed :class:`~repro.experiments.surface.SweepSurface`, and
  falling back to the queue for cold points.

Start one with ``repro-hbm serve``; talk to it with
:class:`~repro.service.client.ServiceClient`.
"""

from .store import ResultStore, entry_digest
from .queue import JobFailure, JobQueue, JobResult, QueueClosed, QueueCounters
from .http import (SERVICE_API_VERSION, BadRequest, ServiceServer,
                   SweepService, run_server)
from .client import ServiceClient, ServiceClientError

__all__ = [
    "ResultStore",
    "entry_digest",
    "JobFailure",
    "JobQueue",
    "JobResult",
    "QueueClosed",
    "QueueCounters",
    "SERVICE_API_VERSION",
    "BadRequest",
    "ServiceServer",
    "SweepService",
    "run_server",
    "ServiceClient",
    "ServiceClientError",
]
