"""repro.service — replay-as-a-service.

The campaign subsystem (:mod:`repro.campaign`) runs every campaign as
one job of leased work units — its queue, dispatcher and in-process
slots.  This package makes that *shared*: a long-running server owns a
persistent job queue, a multi-tenant artifact store and the choice of
who executes units, so many clients (CLIs, notebooks, CI) submit
campaign specs over HTTP and poll incremental results, with the
``repro-campaign`` CLI as one thin client.

Layering (each module usable on its own):

* :mod:`repro.service.artifacts` — :class:`ArtifactStore`: the
  content-addressed result cache plus staged trace trees (with their
  warm ``.tic`` sidecars) under one size-bounded, LRU-evicted root.
* :mod:`repro.service.supervisor` — :class:`Supervisor`: claims jobs
  fair-share, stages artifacts, hands them to the campaign dispatcher,
  charges tenants and bounds the store when jobs settle, runs units in
  local slots (``local`` dispatch), and adopts unfinished jobs across
  server restarts.
* :mod:`repro.service.worker` — :class:`Worker` / ``repro-worker``: the
  remote execution process that leases units, stages artifacts by
  content digest, runs them, and streams results back.
* :mod:`repro.service.server` — the asyncio HTTP/JSON front end.
* :mod:`repro.service.client` — the stdlib-urllib client the CLI uses.

The queue (:class:`JobQueue`, job and unit states) and the dispatcher
(:class:`Dispatcher`, :func:`deterministic_projection`) live in
:mod:`repro.campaign` and are re-exported here.
"""

from ..campaign.dispatch import (
    DETERMINISTIC_RESULT_FIELDS, Dispatcher, deterministic_projection,
)
from ..campaign.queue import (
    STATE_CANCELLED, STATE_DONE, STATE_FAILED, STATE_QUEUED, STATE_RUNNING,
    STATE_STAGING, TERMINAL_STATES, UNIT_CANCELLED, UNIT_DONE, UNIT_LEASED,
    UNIT_PENDING, UNIT_QUARANTINED, Job, JobQueue, LeaseLostError, WorkUnit,
)
from .artifacts import ArtifactStore
from .client import ServiceClient, ServiceError
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
