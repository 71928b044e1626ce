"""Dispatch: every campaign runs as one job of leased work units.

Whoever submits a campaign — ``run_campaign`` with a queue in its
campaign directory, or ``repro-service`` with one in its root — the job
goes through the :class:`Dispatcher`: it shards the campaign into
per-scenario *work units* (:mod:`repro.campaign.queue`), serves
everything the result cache (and, under ``resume``, the run store)
already knows, and settles the verdicts of whoever leases the rest —
:class:`_LocalSlots` in the calling process (worker ``local``) or
remote ``repro-worker`` processes over HTTP, both posting the same
:func:`verdict_doc`.  Its duties:

* **fan-out** — one unit per cache-missing scenario, created
  idempotently (a re-dispatched job keeps its DONE units and re-creates
  nothing);
* **the retry policy** (``docs/campaigns.md``) — requeue a lost
  attempt's unit, or quarantine it and record the scenario failed; the
  sweep continues around it;
* **straggler detection** — a unit running past
  ``straggler_factor × p95`` of the tenant's completed unit durations is
  marked speculative-eligible; the next idle worker runs a second copy
  and the first result wins;
* **deterministic dedup** — results are content-addressed, so two
  executions of the same unit must agree; when a result arrives for a
  cache key that already holds one, the deterministic projection of both
  payloads is compared and any mismatch is counted
  (``dedup_mismatches``) and logged rather than silently overwritten;
* **finalisation** — when every unit is terminal the dispatcher writes
  the campaign manifest (:meth:`CampaignMetrics.of_job`), hands the
  metrics to ``settle``, and settles the job DONE / FAILED / CANCELLED.

The callers pass in what differs between them: where a job's spec, run
store and event log live, how the result cache is consulted, and what
settling a job means to them.  Everything durable lives in the queue and
the campaign directory — a dispatcher can be discarded and rebuilt from
disk (see ``Supervisor.recover``).
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time
from collections import Counter
from dataclasses import dataclass
from multiprocessing.connection import wait as conn_wait
from typing import Any, Callable, Dict, List, Optional, Tuple

from .cache import ResultCache, canonical_json, scenario_cache_key
from .queue import (
    LOCAL_WORKER, STATE_CANCELLED, STATE_DONE, STATE_FAILED, STATE_RUNNING,
    UNIT_CANCELLED, UNIT_DONE, UNIT_LEASED, UNIT_PENDING, UNIT_QUARANTINED,
    Job, JobQueue, LeaseLostError, WorkUnit,
)
from .runner import ScenarioChild
from .spec import CampaignSpec
from .store import (
    STATUS_FAILED, STATUS_OK, STATUS_TIMEOUT, CampaignStore, RunRecord,
)
from .telemetry import CampaignMetrics

__all__ = ["Dispatcher", "deterministic_projection",
           "DETERMINISTIC_RESULT_FIELDS", "append_event", "read_events",
           "verdict_doc"]

#: The result-payload fields that must be identical across re-executions
#: of the same cache key.  Wall-clock fields (``worker_wall_seconds``,
#: ``replay_wall_seconds``, measured ``actual_time``/``rel_error``) are
#: excluded — they measure the worker, not the experiment.
DETERMINISTIC_RESULT_FIELDS = (
    "simulated_time", "n_actions", "n_ranks", "calibration", "fault_report",
)


def deterministic_projection(payload: Dict[str, Any]) -> Dict[str, Any]:
    """The replay-deterministic slice of a scenario result payload."""
    return {k: payload.get(k) for k in DETERMINISTIC_RESULT_FIELDS}


def verdict_doc(status: str, body: Dict[str, Any],
                wall_seconds: float) -> Dict[str, Any]:
    """The result document :meth:`Dispatcher.on_result` reads: ``body``
    is the result payload when ``status`` is ok, else the error
    document.  Remote workers post it; local slots hand it over
    in-process."""
    return {"status": status, "wall_seconds": wall_seconds,
            "result" if status == STATUS_OK else "error": body}


# ----------------------------------------------------------------------
# Event log: JSON lines, append-only, multi-writer safe
# ----------------------------------------------------------------------
def append_event(path: str, event: str, **fields: Any) -> None:
    """Append one event line.  Single ``write()`` of one ``O_APPEND``
    line — atomic on POSIX for our line sizes, so several writers can
    share the file without locks."""
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


def _p95(values: List[float]) -> Optional[float]:
    if not values:
        return None
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(0.95 * len(ordered)))]


# ----------------------------------------------------------------------
# The dispatcher
# ----------------------------------------------------------------------
class Dispatcher:
    """Shards jobs into work units and settles their results.

    ``spec``, ``campaign_dir`` and ``events_path`` map a job id to its
    campaign spec, its run store's directory and its event log;
    ``lookup(job, key)`` is the result-cache read of fan-out (``results``
    takes every new result); ``settle(job, metrics)`` runs once per job,
    when it reaches a terminal state.
    """

    #: A leased unit is a straggler past ``straggler_factor`` × the p95
    #: of its tenant's unit durations (and ``straggler_min_s``), once the
    #: tenant has ``straggler_min_samples`` of them.
    straggler_factor = 3.0
    straggler_min_s = 10.0
    straggler_min_samples = 3

    def __init__(self, queue: JobQueue, results: ResultCache, *,
                 spec: Callable[[str], CampaignSpec],
                 campaign_dir: Callable[[str], str],
                 events_path: Callable[[str], str],
                 lookup: Callable[[Job, str], Optional[Dict[str, Any]]],
                 settle: Callable[[Job, Dict[str, Any]], None] = (
                     lambda _job, _metrics: None),
                 log: Optional[Callable[[str], None]] = None) -> None:
        self.queue = queue
        self.results = results
        self._load_spec = spec
        self.campaign_dir = campaign_dir
        self.events_path = events_path
        self.lookup = lookup
        self.settle = settle
        self._emit = log if log is not None else (lambda _msg: None)
        self._specs: Dict[str, CampaignSpec] = {}

    # -- helpers ---------------------------------------------------------
    def spec(self, job_id: str) -> CampaignSpec:
        spec = self._specs.get(job_id)
        if spec is None:
            spec = self._specs[job_id] = self._load_spec(job_id)
        return spec

    def records(self, job_id: str) -> Dict[str, RunRecord]:
        """The run records of a job whose units are all terminal, in spec
        order.  A cancelled unit has none: a campaign directory keeps
        earlier runs' records too."""
        store = CampaignStore(self.campaign_dir(job_id))
        cancelled = {u.name for u in self.queue.units_for_job(job_id)
                     if u.state == UNIT_CANCELLED}
        records = {s.name: store.read_run(s.name)
                   for s in self.spec(job_id).scenarios
                   if s.name not in cancelled}
        return {name: r for name, r in records.items() if r is not None}

    def _log(self, job_id: str, message: str) -> None:
        self._emit(f"[{self.spec(job_id).name}] {message}")

    # -- fan-out ---------------------------------------------------------
    def start_job(self, job: Job) -> None:
        """STAGING → RUNNING: serve cached scenarios, unit the rest.

        Idempotent: scenarios that already have a unit (a re-dispatched
        job after a server crash) are left exactly as they are.
        """
        spec = self.spec(job.id)
        cstore = CampaignStore(self.campaign_dir(job.id))
        events = self.events_path(job.id)
        existing = {u.name for u in self.queue.units_for_job(job.id)}
        served = created = 0
        for seq, scenario in enumerate(spec.scenarios):
            if scenario.name in existing:
                continue
            key = scenario_cache_key(scenario)
            record, prior_history = cstore.serve_known(
                scenario, key, lambda k: self.lookup(job, k), job.resume)
            if record is not None:
                append_scenario_event(events, job.id, record)
                self._log(job.id, f"{scenario.name}: served from "
                                  f"{record.cache_source} (key {key[:12]})")
                served += 1
                continue
            digests = []
            if scenario.trace.kind == "dir":
                # The service staged it: the path is the store tree,
                # named by the content digest workers fetch it by.
                digests = [os.path.basename(scenario.trace.path)]
            unit = self.queue.create_unit(
                job.id, seq, scenario.name, scenario.to_dict(),
                cache_key=key, digests=digests,
                max_attempts=scenario.max_retries + 1,
                backoff_s=spec.retry_backoff,
                retry_history=prior_history)
            append_event(events, "unit", job=job.id, unit=unit.id,
                         name=scenario.name, action="created")
            created += 1
        job = self.queue.set_state(job.id, STATE_RUNNING)
        append_event(events, "state", job=job.id, state=job.state,
                     dispatched=True, units_created=created,
                     scenarios_served=served)
        self._log(job.id, f"job {job.id} dispatched: {created} unit(s), "
                          f"{served} scenario(s) served from cache/store")
        self._maybe_finalize(job.id)

    # -- results from workers --------------------------------------------
    def on_result(self, unit_id: str, worker: str, token: str,
                  doc: Dict[str, Any]) -> Dict[str, Any]:
        """A worker reports a unit outcome (:func:`verdict_doc`).  Raises
        KeyError (404) for an unknown unit and :class:`LeaseLostError`
        (409) for a superseded lease — first result wins, late results
        are discarded."""
        unit = self.queue.get_unit(unit_id)
        events = self.events_path(unit.job_id)
        status = doc.get("status", STATUS_OK)
        duration = float(doc.get("wall_seconds") or 0.0)

        if status != STATUS_OK:
            error = doc.get("error") or {}
            unit = self.queue.fail_unit(
                unit_id, worker, token,
                status=(STATUS_TIMEOUT if status == STATUS_TIMEOUT
                        else STATUS_FAILED),
                error_type=error.get("type", ""),
                error=error.get("message", ""), wall_seconds=duration)
            append_event(
                events, "unit", job=unit.job_id, unit=unit.id,
                name=unit.name, action="attempt_failed", worker=worker,
                status=status, attempts=unit.attempts,
                unit_state=unit.state)
            entry = unit.retry_history[-1]
            self._log(unit.job_id, (
                f"{unit.name}: attempt {entry['attempt']} {entry['status']}"
                f" on {worker} ({entry['error_type']}: {entry['message']})"
                + (f"; retrying in {entry['backoff_s']:.2f}s"
                   if unit.state == UNIT_PENDING else "")))
            if unit.state == UNIT_QUARANTINED:
                self._record_failure(unit, error, duration)
            self._maybe_finalize(unit.job_id)
            return {"accepted": False, "unit_state": unit.state}

        payload = doc.get("result") or {}
        grant = self.queue.complete_unit(unit_id, worker, token,
                                         duration=duration)
        unit = grant["unit"]
        speculative_win = bool(grant["lease"].get("speculative")
                               or grant["superseded"])

        # Deterministic dedup: a duplicate execution of this cache key
        # (speculation, requeue-after-expiry) must agree byte-for-byte
        # on the deterministic projection.
        existing = self.results.get(unit.cache_key)
        if existing is not None and existing.get("status") == STATUS_OK:
            mine = canonical_json(deterministic_projection(payload))
            theirs = canonical_json(
                deterministic_projection(existing.get("result", {})))
            if mine != theirs:
                self.queue.incr_counter("dedup_mismatches")
                self._log(unit.job_id, (
                    f"unit {unit.id} ({unit.name}): duplicate result "
                    f"DIVERGES from cached copy — replay is supposed to "
                    f"be deterministic; keeping the first"))
        else:
            self.results.put_result(unit.cache_key, unit.name, payload)

        record = RunRecord(
            name=unit.name, cache_key=unit.cache_key, status=STATUS_OK,
            attempts=unit.attempts, cache_hit=False,
            wall_seconds=duration, scenario=unit.scenario,
            result=payload, retry_history=unit.retry_history,
        )
        CampaignStore(self.campaign_dir(unit.job_id)).write_run(record)
        append_scenario_event(events, unit.job_id, record, worker=worker,
                              speculative_win=speculative_win)
        self._log(unit.job_id, (
            f"{unit.name}: ok on {worker} (simulated "
            f"{payload.get('simulated_time', 0.0):.4g}s, "
            f"{duration:.2f}s wall)"))
        self._maybe_finalize(unit.job_id)
        return {"accepted": True, "unit_state": UNIT_DONE,
                "speculative_win": speculative_win}

    def _record_failure(self, unit: WorkUnit,
                        error: Optional[Dict[str, Any]] = None,
                        wall_seconds: float = 0.0) -> RunRecord:
        """A quarantined unit's run record: its last attempt's status and
        error document (rebuilt from the history when no worker reported
        one — a lease expiry), and every attempt's history."""
        last = unit.retry_history[-1]
        if error is None:
            error = {"type": last.get("error_type", ""),
                     "message": last.get("message", ""), "traceback": ""}
            wall_seconds = last.get("wall_seconds", 0.0)
        record = RunRecord(
            name=unit.name, cache_key=unit.cache_key,
            status=(STATUS_TIMEOUT if last["status"] == STATUS_TIMEOUT
                    else STATUS_FAILED),
            attempts=unit.attempts, cache_hit=False,
            wall_seconds=wall_seconds, scenario=unit.scenario,
            error=error, retry_history=unit.retry_history,
        )
        CampaignStore(self.campaign_dir(unit.job_id)).write_run(record)
        append_scenario_event(self.events_path(unit.job_id), unit.job_id,
                              record, quarantined=True)
        return record

    # -- periodic maintenance --------------------------------------------
    def tick(self, now: Optional[float] = None, *,
             resumed: bool = False) -> None:
        """Expire leases, mark stragglers, honour cancels, finalise."""
        now = time.time() if now is None else now
        expired = self.queue.expire_leases(now, resumed=resumed)
        for event in expired:
            append_event(
                self.events_path(event["job_id"]), "unit",
                job=event["job_id"], unit=event["unit"],
                name=event["name"], action="lease_expired",
                worker=event["worker"], attempt=event["attempt"],
                requeued=event["requeued"], resumed=resumed)
        for unit_id in {e["unit"] for e in expired if e["requeued"]}:
            unit = self.queue.get_unit(unit_id)
            if unit.state == UNIT_QUARANTINED:
                self._record_failure(unit)

        # Straggler scan: a single-lease unit far past its tenant's p95
        # becomes eligible for one speculative copy.
        p95_cache: Dict[str, Optional[float]] = {}
        for unit in self.queue.list_units(UNIT_LEASED):
            if unit.speculative_eligible or len(unit.leases) != 1:
                continue
            lease = unit.leases[0]
            if lease.get("speculative"):
                continue
            job = self.queue.get(unit.job_id)
            if job.tenant not in p95_cache:
                durations = self.queue.done_unit_durations(job.tenant)
                p95_cache[job.tenant] = (
                    _p95(durations)
                    if len(durations) >= self.straggler_min_samples
                    else None)
            p95 = p95_cache[job.tenant]
            if p95 is None:
                continue
            threshold = max(self.straggler_min_s,
                            self.straggler_factor * p95)
            elapsed = now - lease["granted_at"]
            if elapsed > threshold:
                self.queue.mark_speculative_eligible(unit.id)
                append_event(
                    self.events_path(unit.job_id), "unit",
                    job=unit.job_id, unit=unit.id, name=unit.name,
                    action="straggler", worker=lease["worker"],
                    elapsed_s=round(elapsed, 3),
                    threshold_s=round(threshold, 3))
                self._log(unit.job_id, (
                    f"unit {unit.id} ({unit.name}) straggling on "
                    f"{lease['worker']} ({elapsed:.1f}s > "
                    f"{threshold:.1f}s): speculative copy armed"))

        for job in self.queue.list_jobs(state=STATE_RUNNING):
            if job.cancel_requested:
                dropped = self.queue.cancel_units(job.id)
                if dropped:
                    append_event(
                        self.events_path(job.id), "unit", job=job.id,
                        action="cancelled", units_dropped=dropped)
            self._maybe_finalize(job.id)

    # -- finalisation ----------------------------------------------------
    def _maybe_finalize(self, job_id: str) -> None:
        job = self.queue.get(job_id)
        if job.state != STATE_RUNNING:
            return
        states = self.queue.unit_states(job_id)
        if states[UNIT_PENDING] or states[UNIT_LEASED]:
            return
        spec = self.spec(job_id)
        records = self.records(job_id)
        units = self.queue.units_for_job(job_id)
        for unit in units:
            if unit.state == UNIT_QUARANTINED and unit.name not in records:
                # A crash came between the quarantine and its record.
                records[unit.name] = self._record_failure(unit)
        cancelled = sorted(u.name for u in units if u.state == UNIT_CANCELLED)
        missing = [s.name for s in spec.scenarios if s.name not in records]
        if missing and not cancelled:
            return      # records still landing (should not persist)

        ordered = [records[s.name] for s in spec.scenarios
                   if s.name in records]
        metrics = CampaignMetrics.of_job(
            spec, ordered, units,
            time.time() - (job.started_at or job.submitted_at)).as_dict()
        quarantined = [u for u in units if u.state == UNIT_QUARANTINED]
        extra = None
        if cancelled:
            state = STATE_CANCELLED
            error = (f"cancelled: {len(cancelled)} unit(s) dropped, "
                     f"{metrics['completed']} scenario(s) recorded")
            extra = {"interrupted": True, "unlaunched": cancelled}
        elif quarantined:
            state = STATE_FAILED
            error = ("quarantined unit(s): " + ", ".join(
                f"{u.name} ({u.attempts} attempts)" for u in quarantined))
        else:
            state = STATE_DONE
            error = ""
        CampaignStore(self.campaign_dir(job_id)).write_manifest(
            spec.to_dict(), metrics, ordered, extra=extra)
        job = self.queue.set_state(job_id, state, error=error,
                                   metrics=metrics)
        append_event(self.events_path(job_id), "state", job=job_id,
                     state=job.state, error=error or None)
        self._log(job_id, (
            f"job {job_id} -> {job.state}{f' ({error})' if error else ''} "
            f"[{metrics['replays_executed']} attempt(s) executed, "
            f"{metrics['cached_hits']} served from cache]"))
        self._specs.pop(job_id, None)
        self.settle(job, metrics)


# ----------------------------------------------------------------------
# The local slots: an in-process worker speaking the lease protocol
# ----------------------------------------------------------------------
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
    """Execution slots inside the calling process.

    Each RUNNING job gets as many slots as its spec's ``jobs``, so
    running jobs progress side by side.  Each slot does what one
    ``repro-worker`` does, minus HTTP and artifact staging (traces are
    already local): lease one of its job's units as worker ``local``,
    run it in one :class:`ScenarioChild`, renew the lease every
    ``LOCAL_LEASE_S / 3``, post the verdict to
    :meth:`Dispatcher.on_result`.  A slot whose lease is gone —
    cancelled, expired, or won by a speculative twin — stops its child
    at the next :meth:`reap`, and nothing is posted.
    """

    def __init__(self, dispatcher: Dispatcher) -> None:
        self.queue = dispatcher.queue
        self.dispatcher = dispatcher
        self.live: List[_Slot] = []

    def run(self, job_id: str) -> Job:
        """Run one job's units in this process until the job is terminal;
        returns it.  Between steps the process sleeps on the children's
        pipes until a verdict, a deadline, a heartbeat or the end of a
        backoff is due — never on a fixed tick.  On the main thread a
        SIGTERM cancels the job: the handler only wakes the loop through
        a pipe, and the loop requests the cancel a service job gets."""
        wake_r, wake_w = os.pipe()
        on_main = threading.current_thread() is threading.main_thread()
        if on_main:
            previous = signal.signal(
                signal.SIGTERM, lambda _sig, _frame: os.write(wake_w, b"\0"))
        try:
            while True:
                self.dispatcher.tick()
                self.reap()
                self.fill()
                job = self.queue.get(job_id)
                if job.terminal:
                    return job
                now = time.monotonic()
                wake = [min(slot.child.deadline, slot.renew_at)
                        for slot in self.live]
                ready_at = self.queue.next_ready_at(job_id, time.time())
                if ready_at is not None:
                    wake.append(now + ready_at - time.time())
                if wake_r in conn_wait(
                        [slot.child.conn for slot in self.live] + [wake_r],
                        max(0.0, min(wake) - now) if wake else None):
                    os.read(wake_r, 512)
                    self.dispatcher._log(job_id, (
                        "SIGTERM: cancelling; in-flight scenarios are "
                        "stopped and not recorded"))
                    self.queue.request_cancel(job_id)
        finally:
            if on_main:
                signal.signal(signal.SIGTERM, previous)
            self.stop()
            os.close(wake_r)
            os.close(wake_w)

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
        busy = Counter(slot.job_id for slot in self.live)
        for job in self.queue.list_jobs(state=STATE_RUNNING):
            free = self.dispatcher.spec(job.id).jobs - busy[job.id]
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
