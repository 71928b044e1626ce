"""The campaign service's public surface, pinned: the supervisor and
campaign-runner signatures, the job document and ``repro.service``'s
exports.  Adding or deleting a name means editing this file on purpose.
"""

import dataclasses
import inspect

import repro.service
from repro.campaign import run_campaign
from repro.service import Job, Supervisor

SUPERVISOR_PARAMETERS = (
    "self", "root", "max_jobs", "cache_max_bytes", "tenant_weights",
    "dispatch", "log",
)

RUN_CAMPAIGN_PARAMETERS = (
    "spec", "out_dir", "jobs", "use_cache", "resume", "cache_dir", "log",
)

SERVICE_EXPORTS = (
    "ArtifactStore", "DETERMINISTIC_RESULT_FIELDS", "Dispatcher", "Job",
    "JobQueue", "LeaseLostError", "STATE_CANCELLED", "STATE_DONE",
    "STATE_FAILED", "STATE_QUEUED", "STATE_RUNNING", "STATE_STAGING",
    "ServiceClient", "ServiceError", "Supervisor", "TERMINAL_STATES",
    "UNIT_CANCELLED", "UNIT_DONE", "UNIT_LEASED", "UNIT_PENDING",
    "UNIT_QUARANTINED", "WorkUnit", "Worker", "deterministic_projection",
)

#: ``Job``'s fields, which are also its ``to_dict()`` keys.
JOB_FIELDS = (
    "id", "tenant", "priority", "state", "campaign", "n_scenarios",
    "submitted_at", "started_at", "finished_at", "resume",
    "cancel_requested", "error", "metrics",
)


def test_supervisor_signature_snapshot():
    params = tuple(inspect.signature(Supervisor.__init__).parameters)
    assert params == SUPERVISOR_PARAMETERS


def test_run_campaign_signature_snapshot():
    params = tuple(inspect.signature(run_campaign).parameters)
    assert params == RUN_CAMPAIGN_PARAMETERS


def test_service_exports_snapshot():
    assert sorted(repro.service.__all__) == sorted(SERVICE_EXPORTS)
    for name in SERVICE_EXPORTS:
        assert hasattr(repro.service, name), name


def test_job_document_snapshot():
    assert tuple(f.name for f in dataclasses.fields(Job)) == JOB_FIELDS
    job = Job(id="j", tenant="t", priority=0, state="QUEUED")
    assert tuple(job.to_dict()) == JOB_FIELDS
