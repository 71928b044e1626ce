"""The service supervisor: queue ↔ dispatcher ↔ artifact store.

One :class:`Supervisor` owns a service *root*::

    <root>/
      queue.db                  # the persistent JobQueue (jobs + units)
      artifacts/                # the shared ArtifactStore
      jobs/<id>/spec.json       # the (expanded, staged) campaign spec
      jobs/<id>/events.jsonl    # streamed state, unit + scenario events
      jobs/<id>/campaign/       # runs/ + manifest.json (CampaignStore)

Every claimed job is staged (``dir`` traces copied into the artifact
store by content address), then run by the campaign tier's
:class:`~repro.campaign.dispatch.Dispatcher`, as a ``repro-campaign
run`` is; the supervisor adds the service's part: per-tenant cache reads
and charges, and eviction from the bounded store.  Each finished
scenario appends one event line, so a polling client watches progress
without any server-side session state.

Who executes units is the one thing ``dispatch`` decides.  In ``local``
mode :meth:`Supervisor.tick` also steps in-process slots that lease
units as worker ``local`` — one child per unit, exactly as a
``repro-worker`` runs them, and per RUNNING job as many at once as its
spec's ``jobs``; in ``workers`` mode only remote workers execute.
Remote workers may lease in either mode.

**Cancellation** cancels the job's unfinished units; a local slot whose
lease is gone stops its child at once, and nothing is recorded for it.

**Restart**: the units table is the durable state.  A graceful
:meth:`Supervisor.shutdown` stops the local children and hands their
leases back unspent (the attempt does not count), so the next server
re-leases those units at once; :meth:`Supervisor.recover` does the same
for leases a dead predecessor's slots still hold.  No process is ever
signalled by PID.
"""

from __future__ import annotations

import json
import os
from dataclasses import replace as dc_replace
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..campaign.dispatch import (
    Dispatcher, _LocalSlots, append_event, read_events,
)
from ..campaign.queue import (
    LOCAL_WORKER, STATE_CANCELLED, STATE_DONE, STATE_FAILED, STATE_QUEUED,
    STATE_RUNNING, STATE_STAGING, UNIT_LEASED, UNIT_PENDING, Job, JobQueue,
)
from ..campaign.spec import CampaignSpec
from ..campaign.store import CampaignStore, _write_json
from .artifacts import ArtifactStore

__all__ = ["Supervisor", "append_event", "read_events"]


# ----------------------------------------------------------------------
# The supervisor (server side)
# ----------------------------------------------------------------------
class Supervisor:
    """Claims jobs fair-share, stages them and fans them out as units."""

    def __init__(self, root: str, max_jobs: int = 2,
                 cache_max_bytes: int = 0,
                 tenant_weights: Optional[Dict[str, float]] = None,
                 dispatch: str = "local",
                 log: Optional[Callable[[str], None]] = None) -> None:
        if max_jobs < 1:
            raise ValueError("max_jobs must be >= 1")
        if dispatch not in ("local", "workers"):
            raise ValueError("dispatch must be 'local' or 'workers'")
        self.root = os.path.abspath(root)
        self.max_jobs = max_jobs
        self.dispatch = dispatch
        self.jobs_dir = os.path.join(self.root, "jobs")
        os.makedirs(self.jobs_dir, exist_ok=True)
        self.queue = JobQueue(os.path.join(self.root, "queue.db"))
        self.store = ArtifactStore(os.path.join(self.root, "artifacts"),
                                   max_bytes=cache_max_bytes)
        for name, weight in (tenant_weights or {}).items():
            self.queue.ensure_tenant(name, weight)
        self._emit = log if log is not None else (lambda _msg: None)
        #: Staging hit/miss per live job, folded into the tenant at settle.
        self._stage_counts: Dict[str, Tuple[int, int]] = {}
        self.dispatcher = Dispatcher(
            self.queue, self.store.results, spec=self._load_spec,
            campaign_dir=self.campaign_dir, events_path=self.events_path,
            lookup=lambda job, key: self.store.get_result(
                key, tenant=job.tenant),
            settle=self.settle, log=self._emit)
        self._slots = _LocalSlots(self.dispatcher)

    @property
    def running_jobs(self) -> int:
        return len(self.queue.list_jobs(state=STATE_RUNNING))

    def local_conns(self) -> List[Any]:
        """The pipes of the units in local slots; one turns readable
        when its unit's verdict (or death) is in, and the next
        :meth:`tick` collects it."""
        return [slot.child.conn for slot in self._slots.live]

    # -- paths -----------------------------------------------------------
    def job_dir(self, job_id: str) -> str:
        return os.path.join(self.jobs_dir, job_id)

    def _load_spec(self, job_id: str) -> CampaignSpec:
        with open(os.path.join(self.job_dir(job_id), "spec.json"),
                  encoding="utf-8") as handle:
            return CampaignSpec.from_dict(json.load(handle))

    def events_path(self, job_id: str) -> str:
        return os.path.join(self.job_dir(job_id), "events.jsonl")

    def campaign_dir(self, job_id: str) -> str:
        return os.path.join(self.job_dir(job_id), "campaign")

    # -- client-facing operations ---------------------------------------
    def submit(self, spec_doc: Dict[str, Any], tenant: str = "default",
               priority: int = 0) -> Job:
        """Validate + enqueue a campaign spec.  Raises ``ValueError`` on
        a bad spec — submission fails loudly, never at run time."""
        if not isinstance(spec_doc, dict) or not spec_doc.get("name"):
            raise ValueError("campaign spec needs a 'name'")
        spec = CampaignSpec.from_dict(dict(spec_doc))
        job = self.queue.submit(tenant, spec.name, len(spec.scenarios),
                                priority=priority)
        job_dir = self.job_dir(job.id)
        os.makedirs(job_dir, exist_ok=True)
        # The *expanded* spec is what runs: grids resolved at submit time
        # so the job is self-contained and byte-stable from here on.
        _write_json(os.path.join(job_dir, "spec.json"),
                           spec.to_dict())
        append_event(self.events_path(job.id), "state", job=job.id,
                     state=job.state, tenant=tenant, campaign=spec.name)
        self._emit(f"[service] job {job.id} queued: campaign "
                   f"{spec.name!r}, tenant {tenant!r}, "
                   f"{len(spec.scenarios)} scenario(s)")
        return job

    def cancel(self, job_id: str) -> Job:
        """QUEUED cancels now; a running job's unfinished units are
        cancelled at the next tick, stopping any local child running
        one."""
        job = self.queue.request_cancel(job_id)
        if job.state == STATE_CANCELLED:
            append_event(self.events_path(job_id), "state", job=job_id,
                         state=job.state)
            self._emit(f"[service] job {job_id} cancelled while queued")
        return job

    # -- scheduling ------------------------------------------------------
    def tick(self) -> None:
        """One scheduler step: sweep leases and cancels, collect local
        verdicts, claim jobs while fewer than ``max_jobs`` run, fill free
        local slots.  Cheap; call it often."""
        self.dispatcher.tick()
        self._slots.reap()
        while self.running_jobs < self.max_jobs:
            job = self.queue.claim_next()
            if job is None:
                break
            self._start(job)
        if self.dispatch == "local":    # the one mode decision
            self._slots.fill()

    def _start(self, job: Job) -> None:
        """STAGING: stage the traces (an error fails the job, recorded,
        not fatal to the service), then fan out into work units."""
        events = self.events_path(job.id)
        append_event(events, "state", job=job.id, state=job.state)
        try:
            hits, misses = self._stage(job)
        except BaseException as exc:  # noqa: BLE001 - recorded, not fatal
            self.queue.set_state(job.id, STATE_FAILED,
                                 error=f"staging failed: {exc}")
            append_event(events, "state", job=job.id, state=STATE_FAILED,
                         error=str(exc))
            self._emit(f"[service] job {job.id}: staging failed: {exc}")
            return
        self._stage_counts[job.id] = (hits, misses)
        self.dispatcher.start_job(job)

    def _stage(self, job: Job) -> Tuple[int, int]:
        """Copy ``dir`` traces into the artifact store and point the
        spec at the staged trees; returns staging (hits, misses).
        Idempotent: a resumed job re-stages to the same content
        addresses (hits)."""
        spec = self._load_spec(job.id)
        hits = misses = 0
        staged_scenarios = []
        changed = False
        for scenario in spec.scenarios:
            if scenario.trace.kind == "dir":
                staged, hit = self.store.stage_trace_dir(
                    scenario.trace.path, tenant=job.tenant)
                hits += 1 if hit else 0
                misses += 0 if hit else 1
                if staged != scenario.trace.path:
                    scenario = dc_replace(
                        scenario, trace=dc_replace(scenario.trace,
                                                   path=staged))
                    changed = True
            staged_scenarios.append(scenario)
        if changed:
            spec.scenarios = staged_scenarios
            _write_json(os.path.join(self.job_dir(job.id), "spec.json"),
                        spec.to_dict())
        return hits, misses

    def protected_digests(self) -> Set[str]:
        """Every trace digest eviction must spare: trees referenced by
        live (PENDING or LEASED) work units — pinned from fan-out until
        the result is acknowledged, so a bounded store can never drop a
        tree a worker is fetching."""
        return {digest for state in (UNIT_PENDING, UNIT_LEASED)
                for unit in self.queue.list_units(state)
                for digest in unit.digests}

    def settle(self, job: Job, metrics: Dict[str, Any]) -> None:
        """Fold a finished job's economics into its tenant (every unit
        was a result-cache miss), then bound the store.  Called by the
        dispatcher when a job reaches a terminal state."""
        stage_hits, stage_misses = self._stage_counts.pop(job.id, (0, 0))
        evicted = self.store.evict(protect=self.protected_digests())
        self.queue.charge(
            job.tenant, metrics["wall_seconds"],
            result_hits=metrics["cached_hits"],
            result_misses=sum(metrics["units"].values()),
            stage_hits=stage_hits, stage_misses=stage_misses,
            evictions=len(evicted),
            finished=job.state in (STATE_DONE, STATE_FAILED,
                                   STATE_CANCELLED),
        )

    # -- restart / shutdown ----------------------------------------------
    def recover(self) -> List[Job]:
        """Adopt a root a previous server left behind.  The units table
        is the durable state: leases the predecessor's local slots still
        hold are handed back unspent, and a RUNNING job with units stays
        RUNNING.  A job caught mid-fan-out (STAGING), or a RUNNING job
        without units, goes back to QUEUED with ``resume=True``:
        re-dispatch keeps existing units and serves recorded scenarios
        from the campaign store.  No process is signalled."""
        for unit in self.queue.list_units(UNIT_LEASED):
            for lease in unit.leases:
                if lease["worker"] == LOCAL_WORKER:
                    self.queue.release_unit(unit.id, LOCAL_WORKER,
                                            lease["token"])
        recovered = []
        for job in self.queue.unfinished_jobs():
            if job.state == STATE_STAGING \
                    or not self.queue.units_for_job(job.id):
                job = self.queue.set_state(job.id, STATE_QUEUED,
                                           resume=True)
            append_event(self.events_path(job.id), "state", job=job.id,
                         state=job.state, recovered=True)
            self._emit(f"[service] recovered job {job.id} -> {job.state}")
            recovered.append(job)
        # Crash-recovery lease sweep, tagged ``resumed``: leases of
        # workers that died meanwhile requeue now.  Live workers' leases
        # stay valid (the tokens persist in SQLite) and their next
        # heartbeat renews them.
        self.dispatcher.tick(resumed=True)
        return recovered

    def shutdown(self) -> None:
        """Graceful stop: stop the local slots' children and hand their
        leases back unspent (their units are PENDING again, for whichever
        server or worker leases next), release the queue DB.  Jobs stay
        RUNNING; :meth:`recover` adopts them on restart."""
        self._slots.stop()
        self.queue.close()

    # -- read-side documents ---------------------------------------------
    def job_status_doc(self, job_id: str,
                       events_after: int = 0) -> Dict[str, Any]:
        job = self.queue.get(job_id)            # KeyError -> 404
        all_events, next_index = read_events(self.events_path(job_id))
        # Progress = distinct scenarios with a recorded completion (a
        # resumed job re-emits store-served scenarios; names dedupe).
        done = {e["name"] for e in all_events
                if e.get("event") == "scenario"}
        doc = job.to_dict()
        doc["progress"] = {"scenarios_done": len(done),
                           "scenarios_total": job.n_scenarios}
        doc["events"] = all_events[events_after:]
        doc["events_next"] = next_index
        return doc

    def results_doc(self, job_id: str) -> Dict[str, Any]:
        job = self.queue.get(job_id)
        store = CampaignStore(self.campaign_dir(job_id))
        manifest = store.load_or_rebuild_manifest()
        records = [r.to_dict() for r in store.read_runs()]
        return {"job": job.to_dict(), "manifest": manifest,
                "records": records}

    def metrics_doc(self) -> Dict[str, Any]:
        doc = self.queue.counters_doc()
        doc["running_jobs"] = self.running_jobs
        doc["max_jobs"] = self.max_jobs
        doc["dispatch_mode"] = self.dispatch
        doc["artifact_store"] = self.store.counters_doc()
        doc["dispatch"] = {
            "counters": self.queue.dispatch_counters(),
            "units_by_state": self.queue.unit_states(),
            "workers": self.queue.workers_doc(),
        }
        return doc
