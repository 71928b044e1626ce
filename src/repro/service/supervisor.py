"""The worker-pool supervisor: queue ↔ campaign runner ↔ artifact store.

One :class:`Supervisor` owns a service *root*::

    <root>/
      queue.db                  # the persistent JobQueue
      artifacts/                # the shared ArtifactStore
      jobs/<id>/spec.json       # the (expanded, staged) campaign spec
      jobs/<id>/events.jsonl    # streamed lifecycle + scenario events
      jobs/<id>/outcome.json    # the job runner's final verdict
      jobs/<id>/campaign/       # runs/ + manifest.json (CampaignStore)

Each claimed job is staged (``dir`` traces copied into the artifact
store by content address), then executed by a dedicated child process
running the ordinary :func:`repro.campaign.run_campaign` against the
shared result cache.  The child streams one event line per finished
scenario (the runner's ``on_record`` hook), so a polling client watches
progress without any server-side session state.

**Cancellation** rides the runner's graceful-drain path: the supervisor
sends the child SIGTERM, in-flight scenarios finish and are recorded,
and the campaign manifest stays resumable.

**Crash recovery**: on startup :meth:`Supervisor.recover` re-queues
every job a previous server left in STAGING/RUNNING (terminating any
orphaned runner first) with ``resume=True`` — the re-run serves every
already-recorded scenario from the campaign store and re-executes only
what is missing, retry/resume provenance intact.
"""

from __future__ import annotations

import errno
import json
import multiprocessing
import os
import signal
import sys
import time
import traceback
from dataclasses import replace as dc_replace
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..campaign.runner import _START_METHOD, stop_process
from ..campaign.spec import CampaignSpec
from ..campaign.store import CampaignStore, RunRecord, _write_json
from .artifacts import ArtifactStore
from .queue import (
    STATE_CANCELLED, STATE_DONE, STATE_FAILED, STATE_QUEUED, STATE_RUNNING,
    STATE_STAGING, Job, JobQueue,
)

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
# The job runner (child-process side)
# ----------------------------------------------------------------------
def _job_main(job_id: str, job_dir: str, cache_dir: str,
              resume: bool) -> None:
    """Child entry point: run the campaign, stream events, verdict out.

    SIGTERM here is handled *by the campaign runner* (graceful drain);
    after a drain this function still writes ``outcome.json`` with
    ``interrupted: true`` and exits 0 — the supervisor, not the child,
    decides whether that means cancelled or resumable.
    """
    from ..campaign.runner import run_campaign

    # Forked from the asyncio server: drop the inherited signal plumbing,
    # or a SIGTERM aimed at THIS child gets echoed down the shared wakeup
    # socketpair and the parent's event loop shuts the whole service down.
    try:
        signal.set_wakeup_fd(-1)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass
    signal.signal(signal.SIGTERM, signal.SIG_DFL)

    events_path = os.path.join(job_dir, "events.jsonl")
    out_dir = os.path.join(job_dir, "campaign")
    outcome_path = os.path.join(job_dir, "outcome.json")
    try:
        with open(os.path.join(job_dir, "spec.json"),
                  encoding="utf-8") as handle:
            spec = CampaignSpec.from_dict(json.load(handle))

        result = run_campaign(
            spec, out_dir, cache_dir=cache_dir, resume=resume,
            on_record=lambda record: append_scenario_event(
                events_path, job_id, record))
        _write_json(outcome_path, {
            "ok": result.ok,
            "interrupted": result.interrupted,
            "failed": result.failed_names,
            "metrics": result.metrics.as_dict(),
        })
        sys.exit(0)
    except SystemExit:
        raise
    except BaseException as exc:  # noqa: BLE001 - the verdict IS the point
        _write_json(outcome_path, {
            "ok": False,
            "interrupted": False,
            "failed": [],
            "error": f"{type(exc).__name__}: {exc}",
            "traceback": traceback.format_exc(),
            "metrics": {},
        })
        sys.exit(1)


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except OSError as exc:
        return exc.errno == errno.EPERM
    return True


# ----------------------------------------------------------------------
# The supervisor (server side)
# ----------------------------------------------------------------------
class Supervisor:
    """Claims jobs fair-share and drives one runner process per job."""

    def __init__(self, root: str, max_jobs: int = 2,
                 cache_max_bytes: int = 0,
                 tenant_weights: Optional[Dict[str, float]] = None,
                 drain_timeout_s: float = 30.0,
                 dispatch: str = "local",
                 log: Optional[Callable[[str], None]] = None) -> None:
        if max_jobs < 1:
            raise ValueError("max_jobs must be >= 1")
        if dispatch not in ("local", "workers"):
            raise ValueError("dispatch must be 'local' or 'workers'")
        self.root = os.path.abspath(root)
        self.max_jobs = max_jobs
        self.drain_timeout_s = drain_timeout_s
        self.dispatch = dispatch
        self.jobs_dir = os.path.join(self.root, "jobs")
        os.makedirs(self.jobs_dir, exist_ok=True)
        self.queue = JobQueue(os.path.join(self.root, "queue.db"))
        self.store = ArtifactStore(os.path.join(self.root, "artifacts"),
                                   max_bytes=cache_max_bytes)
        for name, weight in (tenant_weights or {}).items():
            self.queue.ensure_tenant(name, weight)
        self._emit = log if log is not None else (lambda _msg: None)
        self._ctx = multiprocessing.get_context(_START_METHOD)
        self._children: Dict[str, multiprocessing.Process] = {}
        #: Trace digests staged for live jobs — protected from eviction.
        self._staged: Dict[str, Set[str]] = {}
        #: Staging hit/miss per live job, folded into the tenant at reap.
        self._stage_counts: Dict[str, Tuple[int, int]] = {}
        self._cancel_signalled: Set[str] = set()
        # The dispatcher exists in both modes (its read-side endpoints —
        # units, workers, counters — always answer); only in "workers"
        # mode does the tick hand jobs to it instead of forking.
        from .dispatch import Dispatcher
        self.dispatcher = Dispatcher(self)

    @property
    def running_jobs(self) -> int:
        return len(self._children)

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
        job = self.queue.request_cancel(job_id)
        if job.state == STATE_CANCELLED:
            append_event(self.events_path(job_id), "state", job=job_id,
                         state=job.state)
            self._emit(f"[service] job {job_id} cancelled while queued")
        else:
            self._signal_cancel(job_id)
        return job

    def _signal_cancel(self, job_id: str) -> None:
        process = self._children.get(job_id)
        if process is not None and process.is_alive() \
                and job_id not in self._cancel_signalled:
            process.terminate()      # SIGTERM -> the runner drains
            self._cancel_signalled.add(job_id)
            append_event(self.events_path(job_id), "cancelling",
                         job=job_id)
            self._emit(f"[service] job {job_id}: SIGTERM sent, draining")

    # -- scheduling ------------------------------------------------------
    def tick(self) -> None:
        """One supervisor step: reap finished runners, launch claimable
        jobs while worker slots are free.  Cheap; call it often."""
        if self.dispatch == "workers":
            self.dispatcher.tick()
            running = len(self.queue.list_jobs(state=STATE_RUNNING))
            while running < self.max_jobs:
                job = self.queue.claim_next()
                if job is None:
                    break
                self._start_dispatched(job)
                running += 1
            return
        self._reap()
        while len(self._children) < self.max_jobs:
            job = self.queue.claim_next()
            if job is None:
                break
            self._start(job)

    def _stage_or_fail(self, job: Job) -> bool:
        """Stage a claimed job's traces; a staging error fails the job
        (recorded, not fatal to the service) and returns False."""
        events = self.events_path(job.id)
        append_event(events, "state", job=job.id, state=job.state)
        try:
            digests, hits, misses = self._stage(job)
        except BaseException as exc:  # noqa: BLE001 - recorded, not fatal
            self.queue.set_state(job.id, STATE_FAILED,
                                 error=f"staging failed: {exc}")
            append_event(events, "state", job=job.id, state=STATE_FAILED,
                         error=str(exc))
            self._emit(f"[service] job {job.id}: staging failed: {exc}")
            return False
        self._staged[job.id] = digests
        self._stage_counts[job.id] = (hits, misses)
        return True

    def _start_dispatched(self, job: Job) -> None:
        """Workers mode: stage, then fan out into leased work units."""
        if self._stage_or_fail(job):
            self.dispatcher.start_job(job)

    def _start(self, job: Job) -> None:
        if not self._stage_or_fail(job):
            return
        process = self._ctx.Process(
            target=_job_main,
            args=(job.id, self.job_dir(job.id), self.store.results_dir,
                  job.resume),
            name=f"repro-job-{job.id}",
        )
        process.start()
        self._children[job.id] = process
        job = self.queue.set_state(job.id, STATE_RUNNING, pid=process.pid)
        append_event(self.events_path(job.id), "state", job=job.id,
                     state=job.state, pid=process.pid, resume=job.resume)
        self._emit(f"[service] job {job.id} running (pid {process.pid}"
                   f"{', resume' if job.resume else ''})")
        # A cancel that arrived between claim and start applies now.
        if job.cancel_requested:
            self._signal_cancel(job.id)

    def _stage(self, job: Job) -> Tuple[Set[str], int, int]:
        """Copy ``dir`` traces into the artifact store and point the
        spec at the staged trees.  Idempotent: a resumed job re-stages
        to the same content addresses (hits)."""
        spec_path = os.path.join(self.job_dir(job.id), "spec.json")
        with open(spec_path, encoding="utf-8") as handle:
            spec = CampaignSpec.from_dict(json.load(handle))
        digests: Set[str] = set()
        hits = misses = 0
        staged_scenarios = []
        changed = False
        for scenario in spec.scenarios:
            if scenario.trace.kind == "dir":
                staged, hit = self.store.stage_trace_dir(
                    scenario.trace.path, tenant=job.tenant)
                digests.add(os.path.basename(staged))
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
        return digests, hits, misses

    # -- reaping ---------------------------------------------------------
    def _reap(self) -> None:
        for job_id in list(self._children):
            process = self._children[job_id]
            if process.is_alive():
                # Enforce a cancel that arrived since the last tick.
                if self.queue.get(job_id).cancel_requested:
                    self._signal_cancel(job_id)
                continue
            process.join()
            del self._children[job_id]
            self._cancel_signalled.discard(job_id)
            self._finish(job_id, process.exitcode)

    def _finish(self, job_id: str, exitcode: Optional[int]) -> None:
        job = self.queue.get(job_id)
        outcome = self._read_outcome(job_id)
        metrics = outcome.get("metrics") or {}
        if outcome.get("ok") and not outcome.get("interrupted"):
            state, error = STATE_DONE, ""
        elif job.cancel_requested:
            state = STATE_CANCELLED
            error = "cancelled: drained in-flight scenarios"
        elif not outcome:
            state = STATE_FAILED
            error = (f"job runner died without a verdict "
                     f"(exitcode {exitcode})")
        elif outcome.get("interrupted"):
            # Drained by a SIGTERM we did not send (external operator):
            # the campaign is resumable, so hand it back to the queue.
            state, error = STATE_QUEUED, ""
        else:
            state = STATE_FAILED
            error = outcome.get("error") or (
                "scenarios failed: " + ", ".join(outcome.get("failed", []))
                if outcome.get("failed") else
                f"job runner exited {exitcode}")
        job = self.queue.set_state(
            job_id, state, error=error, metrics=metrics,
            resume=True if state == STATE_QUEUED else None)
        append_event(self.events_path(job_id), "state", job=job_id,
                     state=job.state, error=error or None)

        self.settle(job, metrics)
        self._emit(f"[service] job {job_id} -> {job.state}"
                   f"{f' ({error})' if error else ''}")

    def protected_digests(self) -> Set[str]:
        """Every trace digest eviction must spare: trees staged for live
        local jobs plus trees referenced by live work units (pinned from
        lease grant until the result is acknowledged)."""
        protect = set().union(*self._staged.values()) if self._staged \
            else set()
        protect |= self.dispatcher.pinned_digests()
        return protect

    def settle(self, job: Job, metrics: Dict[str, Any]) -> None:
        """Fold a finished job's economics into its tenant, then bound
        the store (this job's traces are no longer pinned).  Called at
        reap for a local job and by the dispatcher when a units-backed
        job reaches a terminal state."""
        stage_hits, stage_misses = self._stage_counts.pop(job.id, (0, 0))
        self._staged.pop(job.id, None)
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

    def _read_outcome(self, job_id: str) -> Dict[str, Any]:
        try:
            with open(os.path.join(self.job_dir(job_id), "outcome.json"),
                      encoding="utf-8") as handle:
                return json.load(handle)
        except (OSError, ValueError):
            return {}

    # -- restart / shutdown ----------------------------------------------
    def recover(self) -> List[Job]:
        """Adopt a root a previous server left behind: terminate any
        orphaned runners, then re-queue their jobs with ``resume=True``
        (or finalise them CANCELLED if that was already requested)."""
        recovered = []
        for job in self.queue.unfinished_jobs():
            if self.queue.units_for_job(job.id):
                if self.dispatch == "workers":
                    recovered.append(self._recover_dispatched(job))
                    continue
                # A workers-mode root adopted by a local-mode server:
                # drop the leftover units and re-run locally with
                # resume — recorded scenarios are served from the store.
                self.queue.cancel_units(job.id)
            if job.pid and _pid_alive(job.pid):
                self._terminate_pid(job.pid)
            # The orphan may have finished the whole campaign before (or
            # while) being told to stop — in that case the job is DONE,
            # not requeued.
            outcome = self._read_outcome(job.id)
            if outcome.get("ok") and not outcome.get("interrupted"):
                job = self.queue.set_state(
                    job.id, STATE_DONE, metrics=outcome.get("metrics") or {})
            elif job.cancel_requested:
                job = self.queue.set_state(
                    job.id, STATE_CANCELLED,
                    error="cancelled (server restarted)")
            else:
                job = self.queue.set_state(job.id, STATE_QUEUED,
                                           resume=True)
            append_event(self.events_path(job.id), "state", job=job.id,
                         state=job.state, recovered=True)
            self._emit(f"[service] recovered job {job.id} -> {job.state}")
            recovered.append(job)
        if self.dispatch == "workers":
            # Crash-recovery lease sweep: workers that died with (or
            # without) the server hold leases that are now past their
            # deadline — drop them, tagged ``resumed``, so their units
            # requeue immediately.  Live workers' leases stay valid (the
            # tokens persist in SQLite) and their next heartbeat renews.
            self.dispatcher.tick(resumed=True)
        return recovered

    def _recover_dispatched(self, job: Job) -> Job:
        """A units-backed job: the durable state IS the units table.

        A RUNNING job stays RUNNING — surviving workers still hold valid
        leases (tokens live in the queue DB) and keep heartbeating; dead
        workers' leases expire and their units requeue.  A job caught
        mid-fan-out (STAGING) goes back to QUEUED and is re-dispatched
        idempotently: existing units (DONE ones included) are kept.
        """
        if job.state == STATE_STAGING:
            job = self.queue.set_state(job.id, STATE_QUEUED, resume=True)
        append_event(self.events_path(job.id), "state", job=job.id,
                     state=job.state, recovered=True, dispatched=True)
        self._emit(f"[service] recovered dispatched job {job.id} "
                   f"-> {job.state}")
        return job

    def _terminate_pid(self, pid: int) -> None:
        try:
            os.kill(pid, signal.SIGTERM)
        except OSError:
            return
        deadline = time.monotonic() + self.drain_timeout_s
        while time.monotonic() < deadline:
            if not _pid_alive(pid):
                return
            time.sleep(0.05)
        try:
            os.kill(pid, signal.SIGKILL)  # drain budget exhausted
        except OSError:
            pass

    def shutdown(self) -> None:
        """Graceful stop: drain every runner, re-queue what they were
        working on (resume on next start), release the queue DB."""
        for job_id, process in list(self._children.items()):
            stop_process(process, self.drain_timeout_s)
        self._reap()
        for job in self.queue.unfinished_jobs():
            if self.dispatch == "workers" \
                    and self.queue.units_for_job(job.id):
                # Units-backed jobs are already durable: leases expire
                # while the server is down and recover() re-adopts the
                # job on restart — nothing to requeue here.
                continue
            if job.cancel_requested:
                job = self.queue.set_state(job.id, STATE_CANCELLED,
                                           error="cancelled at shutdown")
            else:
                job = self.queue.set_state(job.id, STATE_QUEUED,
                                           resume=True)
            append_event(self.events_path(job.id), "state", job=job.id,
                         state=job.state, shutdown=True)
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
        doc["running_jobs"] = len(self._children)
        doc["max_jobs"] = self.max_jobs
        doc["dispatch_mode"] = self.dispatch
        doc["artifact_store"] = self.store.counters_doc()
        doc["dispatch"] = {
            "counters": self.queue.dispatch_counters(),
            "units_by_state": self.queue.units_by_state_doc(),
            "workers": self.queue.workers_doc(),
        }
        return doc
