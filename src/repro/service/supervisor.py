"""The service supervisor: queue ↔ dispatcher ↔ artifact store.

One :class:`Supervisor` owns a service *root*::

    <root>/
      queue.db                  # the persistent JobQueue (jobs + units)
      artifacts/                # the shared ArtifactStore
      jobs/<id>/spec.json       # the (expanded, staged) campaign spec
      jobs/<id>/events.jsonl    # streamed state, unit + scenario events
      jobs/<id>/campaign/       # runs/ + manifest.json (CampaignStore)

Every claimed job walks one path: it is staged (``dir`` traces copied
into the artifact store by content address), then the
:class:`~repro.service.dispatch.Dispatcher` serves what the shared
result cache and the campaign store already hold and turns each missing
scenario into a leased *work unit*.  Each finished scenario appends one
event line, so a polling client watches progress without any
server-side session state.

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
import time
from collections import Counter
from dataclasses import dataclass, replace as dc_replace
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..campaign.runner import ScenarioChild
from ..campaign.spec import CampaignSpec
from ..campaign.store import CampaignStore, RunRecord, _write_json
from .artifacts import ArtifactStore
from .queue import (
    STATE_CANCELLED, STATE_DONE, STATE_FAILED, STATE_QUEUED, STATE_RUNNING,
    STATE_STAGING, UNIT_LEASED, Job, JobQueue, LeaseLostError,
)
from .worker import verdict_doc

__all__ = ["Supervisor", "append_event", "read_events"]


# ----------------------------------------------------------------------
# Event log: JSON lines, append-only, multi-writer safe
# ----------------------------------------------------------------------
def append_event(path: str, event: str, **fields: Any) -> None:
    """Append one event line.  Single ``write()`` of one ``O_APPEND``
    line — atomic on POSIX for our line sizes, so the supervisor (state
    changes) and the job runner (scenario completions) can share the
    file without locks."""
    doc = {"t": time.time(), "event": event}
    doc.update(fields)
    line = json.dumps(doc, sort_keys=True) + "\n"
    fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        os.write(fd, line.encode("utf-8"))
    finally:
        os.close(fd)


def append_scenario_event(path: str, job_id: str, record: RunRecord,
                          **fields: Any) -> None:
    """The ``scenario`` event of one finalised run record."""
    append_event(
        path, "scenario", job=job_id, name=record.name,
        status=record.status, cache_hit=record.cache_hit,
        cache_source=record.cache_source, attempts=record.attempts,
        simulated_time=record.result.get("simulated_time"), **fields)


def read_events(path: str, after: int = 0) -> Tuple[List[Dict[str, Any]], int]:
    """Events ``after`` the given index (0 = from the start) plus the
    next index to poll from.

    Robust against a concurrent writer: the file is read as *bytes* and
    only newline-terminated lines are surfaced, so a torn final line —
    a reader racing ``append_event`` mid-write, including a torn
    multi-byte UTF-8 sequence that would not even decode — is simply
    not visible yet, and the cursor stays stable until the writer
    finishes it.  A complete-but-corrupt line (disk trouble) is skipped
    instead of hiding every event after it.
    """
    events: List[Dict[str, Any]] = []
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except FileNotFoundError:
        return [], 0
    # Drop the final fragment: either b"" (file ends with a newline) or
    # a line still being appended.
    for line in data.split(b"\n")[:-1]:
        if not line:
            continue
        try:
            events.append(json.loads(line.decode("utf-8")))
        except (UnicodeDecodeError, ValueError):
            continue
    return events[after:], len(events)


# ----------------------------------------------------------------------
# The local slots: an in-process worker speaking the lease protocol
# ----------------------------------------------------------------------
#: The worker name the server's own slots lease units under.
LOCAL_WORKER = "local"
#: A local slot's lease; it is renewed every third of it.
LOCAL_LEASE_S = 15.0


@dataclass
class _Slot:
    job_id: str
    unit_id: str
    token: str
    child: ScenarioChild
    renew_at: float         # monotonic instant of the next heartbeat


class _LocalSlots:
    """Execution slots inside the server process.

    Each RUNNING job gets as many slots as its spec's ``jobs`` — the
    width its own ``run_campaign`` would have — so running jobs progress
    side by side, and ``max_jobs`` bounds how many run.  Each slot does
    what one ``repro-worker`` does, minus HTTP and artifact staging
    (staged trees are already local): lease one of its job's units as
    worker ``local``, run it in one :class:`ScenarioChild`, renew the
    lease every ``LOCAL_LEASE_S / 3``, post the verdict to
    :meth:`Dispatcher.on_result`.  A slot whose lease is gone —
    cancelled, expired, or won by a speculative twin — stops its child
    at the next :meth:`reap`, and nothing is posted.
    """

    def __init__(self, dispatcher: Any, enabled: bool) -> None:
        self.queue: JobQueue = dispatcher.queue
        self.dispatcher = dispatcher
        self.enabled = enabled
        self.live: List[_Slot] = []

    def reap(self) -> None:
        now = time.monotonic()
        for slot in list(self.live):
            child = slot.child
            if child.conn.poll():
                verdict = child.collect()
            elif now >= child.deadline:
                verdict = child.expire()
            elif self._lease_held(slot, now):
                continue
            else:
                verdict = None
                child.abort()
            self.live.remove(slot)
            if verdict is None:
                continue
            try:
                self.dispatcher.on_result(
                    slot.unit_id, LOCAL_WORKER, slot.token,
                    verdict_doc(*verdict, now - child.started))
            except LeaseLostError:
                pass        # lost at the finish line: the first result won

    def fill(self) -> None:
        if not self.enabled:
            return
        busy = Counter(slot.job_id for slot in self.live)
        for job in self.queue.list_jobs(state=STATE_RUNNING):
            free = self.dispatcher._spec(job.id).jobs - busy[job.id]
            for _ in range(free):
                grant = self.queue.lease_unit(LOCAL_WORKER, LOCAL_LEASE_S,
                                              job_id=job.id)
                if grant is None:
                    break
                unit = grant["unit"]
                child = ScenarioChild(unit.scenario,
                                      unit.scenario["timeout_s"],
                                      name=f"repro-unit-{unit.id}")
                self.live.append(_Slot(job.id, unit.id, grant["token"],
                                       child,
                                       child.started + LOCAL_LEASE_S / 3))

    def stop(self) -> None:
        """Post the verdicts already in, then stop every live child and
        hand its lease back unspent."""
        self.reap()
        for slot in self.live:
            slot.child.abort()
            self.queue.release_unit(slot.unit_id, LOCAL_WORKER, slot.token)
        self.live = []

    def _lease_held(self, slot: _Slot, now: float) -> bool:
        """Renew the lease when due, else check it still stands."""
        if now < slot.renew_at:
            leases = self.queue.get_unit(slot.unit_id).leases
            return any(lease["token"] == slot.token for lease in leases)
        try:
            self.queue.heartbeat_unit(slot.unit_id, LOCAL_WORKER,
                                      slot.token, LOCAL_LEASE_S)
        except LeaseLostError:
            return False
        slot.renew_at = now + LOCAL_LEASE_S / 3
        return True


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
        from .dispatch import Dispatcher     # it imports the event log
        self.dispatcher = Dispatcher(self)
        # The one mode decision: does this server run units itself?
        self._slots = _LocalSlots(self.dispatcher, dispatch == "local")

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
        spec_path = os.path.join(self.job_dir(job.id), "spec.json")
        with open(spec_path, encoding="utf-8") as handle:
            spec = CampaignSpec.from_dict(json.load(handle))
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
            _write_json(spec_path, spec.to_dict())
        return hits, misses

    def protected_digests(self) -> Set[str]:
        """Every trace digest eviction must spare: trees referenced by
        live work units (pinned from fan-out until the result is
        acknowledged)."""
        return self.dispatcher.pinned_digests()

    def settle(self, job: Job, metrics: Dict[str, Any]) -> None:
        """Fold a finished job's economics into its tenant, then bound
        the store.  Called by the dispatcher when a job reaches a
        terminal state."""
        stage_hits, stage_misses = self._stage_counts.pop(job.id, (0, 0))
        evicted = self.store.evict(protect=self.protected_digests())
        self.queue.charge(
            job.tenant, float(metrics.get("wall_seconds", 0.0)),
            result_hits=int(metrics.get("cached_hits", 0)),
            result_misses=int(metrics.get("replays_executed", 0)),
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
            "units_by_state": self.queue.units_by_state_doc(),
            "workers": self.queue.workers_doc(),
        }
        return doc
