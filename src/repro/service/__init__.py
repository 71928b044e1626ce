"""repro.service — replay-as-a-service.

The campaign subsystem (:mod:`repro.campaign`) made re-execution cheap:
acquire a time-independent trace once, then sweep it across platform
scenarios with content-addressed result caching.  This package makes it
*shared*: a long-running server owns a persistent job queue, a bounded
pool of scenario slots, and a multi-tenant artifact store, so
many clients (CLIs, notebooks, CI) submit campaign specs over HTTP and
poll incremental results — the "heavy traffic" shape of the ROADMAP,
with the existing ``repro-campaign`` CLI as just one thin client.

Layering (each module usable on its own):

* :mod:`repro.service.queue` — SQLite-backed :class:`JobQueue`: explicit
  job lifecycle (QUEUED → STAGING → RUNNING → DONE/FAILED/CANCELLED),
  per-job priorities, and weighted fair-share across named tenants.
* :mod:`repro.service.artifacts` — :class:`ArtifactStore`: the
  content-addressed result cache plus staged trace trees (with their
  warm ``.tic`` sidecars) under one size-bounded, LRU-evicted root.
* :mod:`repro.service.supervisor` — :class:`Supervisor`: claims jobs
  fair-share, stages artifacts, hands them to the dispatcher, runs
  units in its own in-process slots (``local`` dispatch), and adopts
  unfinished jobs across server restarts.
* :mod:`repro.service.dispatch` — :class:`Dispatcher`: fans every
  campaign out as per-scenario *work units* with leases, heartbeats,
  speculative re-execution of stragglers, and poison-unit quarantine.
* :mod:`repro.service.worker` — :class:`Worker` / ``repro-worker``: the
  remote execution process that leases units, stages artifacts by
  content digest, runs them, and streams results back.
* :mod:`repro.service.server` — the asyncio HTTP/JSON front end.
* :mod:`repro.service.client` — the stdlib-urllib client the CLI uses.
"""

from .artifacts import ArtifactStore
from .client import ServiceClient, ServiceError
from .dispatch import (
    DETERMINISTIC_RESULT_FIELDS, Dispatcher, deterministic_projection,
)
from .queue import (
    STATE_CANCELLED, STATE_DONE, STATE_FAILED, STATE_QUEUED, STATE_RUNNING,
    STATE_STAGING, TERMINAL_STATES, UNIT_CANCELLED, UNIT_DONE, UNIT_LEASED,
    UNIT_PENDING, UNIT_QUARANTINED, Job, JobQueue, LeaseLostError, WorkUnit,
)
from .supervisor import Supervisor
from .worker import Worker

__all__ = [
    "ArtifactStore", "DETERMINISTIC_RESULT_FIELDS", "Dispatcher", "Job",
    "JobQueue", "LeaseLostError", "ServiceClient", "ServiceError",
    "Supervisor", "Worker", "WorkUnit", "deterministic_projection",
    "STATE_QUEUED", "STATE_STAGING", "STATE_RUNNING", "STATE_DONE",
    "STATE_FAILED", "STATE_CANCELLED", "TERMINAL_STATES",
    "UNIT_PENDING", "UNIT_LEASED", "UNIT_DONE", "UNIT_QUARANTINED",
    "UNIT_CANCELLED",
]
