"""Server-side dispatch: fan a job out into leased work units.

Every claimed job goes through the :class:`Dispatcher`: it shards the
campaign into per-scenario *work units* (:mod:`repro.service.queue`),
serves everything the shared result cache already knows, and settles
the verdicts of whoever leases the rest — the server's own local slots
(worker ``local``, in-process) or remote ``repro-worker`` processes
over HTTP, both posting the same document
(:func:`~repro.service.worker.verdict_doc`).  Its duties:

* **fan-out** — one unit per cache-missing scenario, created
  idempotently (a re-dispatched job keeps its DONE units and re-creates
  nothing);
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
  the campaign manifest (byte-compatible with a local
  ``run_campaign``), folds the job's economics into its tenant, and
  settles the job DONE / FAILED (quarantined units carry a structured
  failure record) / CANCELLED.

Everything durable lives in the queue DB and the job directory — the
dispatcher itself can be discarded and rebuilt from disk after a server
restart (see :meth:`Supervisor.recover`).
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict, List, Optional, Set

from ..campaign.cache import canonical_json, scenario_cache_key
from ..campaign.spec import CampaignSpec
from ..campaign.store import (
    STATUS_FAILED, STATUS_OK, STATUS_TIMEOUT, CampaignStore, RunRecord,
)
from .queue import (
    STATE_CANCELLED, STATE_DONE, STATE_FAILED, STATE_RUNNING,
    UNIT_CANCELLED, UNIT_DONE, UNIT_LEASED, UNIT_PENDING, UNIT_QUARANTINED,
    Job, LeaseLostError, WorkUnit,
)
from .supervisor import append_event, append_scenario_event

__all__ = ["Dispatcher", "deterministic_projection",
           "DETERMINISTIC_RESULT_FIELDS"]

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


def _p95(values: List[float]) -> Optional[float]:
    if not values:
        return None
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(0.95 * len(ordered)))]


class Dispatcher:
    """Shards claimed jobs into work units and settles their results."""

    def __init__(self, supervisor: "Any", *,
                 straggler_factor: float = 3.0,
                 straggler_min_s: float = 10.0,
                 straggler_min_samples: int = 3) -> None:
        self.sup = supervisor
        self.queue = supervisor.queue
        self.store = supervisor.store
        self.straggler_factor = straggler_factor
        self.straggler_min_s = straggler_min_s
        self.straggler_min_samples = straggler_min_samples
        self._specs: Dict[str, CampaignSpec] = {}

    # -- helpers ---------------------------------------------------------
    def _spec(self, job_id: str) -> CampaignSpec:
        spec = self._specs.get(job_id)
        if spec is None:
            with open(os.path.join(self.sup.job_dir(job_id), "spec.json"),
                      encoding="utf-8") as handle:
                spec = CampaignSpec.from_dict(json.load(handle))
            self._specs[job_id] = spec
        return spec

    def _cstore(self, job_id: str) -> CampaignStore:
        return CampaignStore(self.sup.campaign_dir(job_id))

    def pinned_digests(self) -> Set[str]:
        """Trace digests referenced by any live (non-terminal) unit —
        pinned against eviction from lease grant through result ack, so
        a bounded store can never drop a tree a worker is fetching."""
        pins: Set[str] = set()
        for state in (UNIT_PENDING, UNIT_LEASED):
            for unit in self.queue.list_units(state):
                pins.update(unit.digests)
        return pins

    # -- fan-out ---------------------------------------------------------
    def start_job(self, job: Job) -> None:
        """STAGING → RUNNING: serve cached scenarios, unit the rest.

        Idempotent: scenarios that already have a unit (a re-dispatched
        job after a server crash) are left exactly as they are.
        """
        spec = self._spec(job.id)
        cstore = self._cstore(job.id)
        events = self.sup.events_path(job.id)
        existing = {u.name for u in self.queue.units_for_job(job.id)}
        served = created = 0
        for seq, scenario in enumerate(spec.scenarios):
            if scenario.name in existing:
                continue
            key = scenario_cache_key(scenario)
            record, prior_history = cstore.serve_known(
                scenario, key,
                lambda k: self.store.get_result(k, tenant=job.tenant),
                job.resume)
            if record is not None:
                append_scenario_event(events, job.id, record)
                served += 1
                continue
            digests = []
            if scenario.trace.kind == "dir":
                # Staged already (supervisor._stage): the path IS the
                # store tree, named by its content digest.
                digests = [os.path.basename(scenario.trace.path)]
            unit = self.queue.create_unit(
                job.id, seq, scenario.name, scenario.to_dict(),
                cache_key=key, digests=digests,
                max_attempts=max(3, scenario.max_retries + 1),
                backoff_s=spec.retry_backoff,
                retry_history=prior_history)
            append_event(events, "unit", job=job.id, unit=unit.id,
                         name=scenario.name, action="created")
            created += 1
        job = self.queue.set_state(job.id, STATE_RUNNING)
        append_event(events, "state", job=job.id, state=job.state,
                     dispatched=True, units_created=created,
                     scenarios_served=served)
        self.sup._emit(
            f"[service] job {job.id} dispatched: {created} unit(s), "
            f"{served} scenario(s) served from cache/store")
        self._maybe_finalize(job.id)

    # -- results from workers --------------------------------------------
    def on_result(self, unit_id: str, worker: str, token: str,
                  doc: Dict[str, Any]) -> Dict[str, Any]:
        """A worker reports a unit outcome.  Raises KeyError (404) for an
        unknown unit and :class:`LeaseLostError` (409) for a superseded
        lease — first result wins, late results are discarded."""
        unit = self.queue.get_unit(unit_id)
        job = self.queue.get(unit.job_id)
        events = self.sup.events_path(unit.job_id)
        status = doc.get("status", STATUS_OK)
        duration = float(doc.get("wall_seconds") or 0.0)

        if status != STATUS_OK:
            error = doc.get("error") or {}
            fail_status = STATUS_TIMEOUT if status == STATUS_TIMEOUT \
                else "error"
            unit = self.queue.fail_unit(
                unit_id, worker, token,
                error=f"{error.get('type', 'Error')}: "
                      f"{error.get('message', '')}",
                status=fail_status)
            append_event(
                events, "unit", job=unit.job_id, unit=unit.id,
                name=unit.name, action="attempt_failed", worker=worker,
                status=status, attempts=unit.attempts,
                unit_state=unit.state)
            if unit.state == UNIT_QUARANTINED:
                self._record_quarantine(job, unit, error)
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
        existing = self.store.results.get(unit.cache_key)
        if existing is not None and existing.get("status") == STATUS_OK:
            mine = canonical_json(deterministic_projection(payload))
            theirs = canonical_json(
                deterministic_projection(existing.get("result", {})))
            if mine != theirs:
                self.queue.incr_counter("dedup_mismatches")
                self.sup._emit(
                    f"[service] unit {unit.id} ({unit.name}): duplicate "
                    f"result DIVERGES from cached copy — replay is "
                    f"supposed to be deterministic; keeping the first")
        else:
            self.store.results.put_result(unit.cache_key, unit.name,
                                          payload)
            if self.store.max_bytes:
                self.store.evict(protect=self.sup.protected_digests())

        record = RunRecord(
            name=unit.name, cache_key=unit.cache_key, status=STATUS_OK,
            attempts=unit.attempts, cache_hit=False,
            wall_seconds=duration, scenario=unit.scenario,
            result=payload, retry_history=unit.retry_history,
        )
        self._cstore(unit.job_id).write_run(record)
        append_scenario_event(events, unit.job_id, record, worker=worker,
                              speculative_win=speculative_win)
        self._maybe_finalize(unit.job_id)
        return {"accepted": True, "unit_state": UNIT_DONE,
                "speculative_win": speculative_win}

    def _record_quarantine(self, job: Job, unit: WorkUnit,
                           error: Dict[str, Any]) -> None:
        """A poison unit gets a structured failure record, not a wedged
        campaign: the sweep continues and finalises around it."""
        record = RunRecord(
            name=unit.name, cache_key=unit.cache_key, status=STATUS_FAILED,
            attempts=unit.attempts, cache_hit=False,
            wall_seconds=unit.duration or 0.0, scenario=unit.scenario,
            error={
                "type": error.get("type") or "Quarantined",
                "message": (f"quarantined after {unit.attempts} attempt(s): "
                            f"{unit.error}"),
                "traceback": error.get("traceback", ""),
            },
            retry_history=unit.retry_history,
        )
        self._cstore(unit.job_id).write_run(record)
        append_scenario_event(self.sup.events_path(unit.job_id),
                              unit.job_id, record, quarantined=True)

    # -- periodic maintenance --------------------------------------------
    def tick(self, now: Optional[float] = None, *,
             resumed: bool = False) -> None:
        """Expire leases, mark stragglers, honour cancels, finalise."""
        now = time.time() if now is None else now
        for event in self.queue.expire_leases(now, resumed=resumed):
            append_event(
                self.sup.events_path(event["job_id"]), "unit",
                job=event["job_id"], unit=event["unit"],
                name=event["name"], action="lease_expired",
                worker=event["worker"], attempt=event["attempt"],
                requeued=event["requeued"], resumed=resumed)

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
                    self.sup.events_path(unit.job_id), "unit",
                    job=unit.job_id, unit=unit.id, name=unit.name,
                    action="straggler", worker=lease["worker"],
                    elapsed_s=round(elapsed, 3),
                    threshold_s=round(threshold, 3))
                self.sup._emit(
                    f"[service] unit {unit.id} ({unit.name}) straggling "
                    f"on {lease['worker']} ({elapsed:.1f}s > "
                    f"{threshold:.1f}s): speculative copy armed")

        # Expiry may quarantine a unit without any worker report — give
        # it its failure record before finalising.
        for unit in self.queue.list_units(UNIT_QUARANTINED):
            if self._cstore(unit.job_id).read_run(unit.name) is None:
                self._record_quarantine(
                    self.queue.get(unit.job_id), unit,
                    {"type": "LeaseExpired"})

        for job in self.queue.list_jobs(state=STATE_RUNNING):
            if job.cancel_requested:
                dropped = self.queue.cancel_units(job.id)
                if dropped:
                    append_event(
                        self.sup.events_path(job.id), "unit", job=job.id,
                        action="cancelled", units_dropped=dropped)
            self._maybe_finalize(job.id)

    # -- finalisation ----------------------------------------------------
    def _maybe_finalize(self, job_id: str) -> None:
        job = self.queue.get(job_id)
        if job.state != STATE_RUNNING:
            return
        states = self.queue.unit_states_for_job(job_id)
        if states[UNIT_PENDING] or states[UNIT_LEASED]:
            return
        spec = self._spec(job_id)
        cstore = self._cstore(job_id)
        records = {r.name: r for r in cstore.read_runs()}
        units = self.queue.units_for_job(job_id)
        cancelled = [u for u in units if u.state == UNIT_CANCELLED]
        quarantined = [u for u in units if u.state == UNIT_QUARANTINED]
        missing = [s.name for s in spec.scenarios if s.name not in records]
        if missing and not cancelled:
            return      # records still landing (should not persist)

        ordered = [records[s.name] for s in spec.scenarios
                   if s.name in records]
        completed = sum(1 for r in ordered if r.ok)
        cached_hits = sum(1 for r in ordered if r.cache_hit)
        busy = sum(u.duration or 0.0 for u in units
                   if u.state == UNIT_DONE)
        metrics = {
            "scenarios_total": len(spec.scenarios),
            "completed": completed,
            "failed": sum(1 for r in ordered if not r.ok),
            "cached_hits": cached_hits,
            "cached_from_store": sum(1 for r in ordered
                                     if r.cache_source == "store"),
            "replays_executed": states[UNIT_DONE],
            "attempts": sum(u.attempts for u in units),
            "retries": sum(max(0, u.attempts - 1) for u in units),
            "timeouts": sum(
                1 for u in units for entry in u.retry_history
                if entry.get("status") == STATUS_TIMEOUT),
            "worker_busy_seconds": round(busy, 6),
            "wall_seconds": round(
                time.time() - (job.started_at or job.submitted_at), 6),
            "units": states,
            "workers": sorted({u.winner for u in units if u.winner}),
            "distributed": True,
        }
        extra = None
        if cancelled:
            state = STATE_CANCELLED
            error = (f"cancelled: {len(cancelled)} unit(s) dropped, "
                     f"{completed} scenario(s) recorded")
            extra = {"interrupted": True,
                     "unlaunched": sorted(u.name for u in cancelled)}
        elif quarantined:
            state = STATE_FAILED
            error = ("quarantined unit(s): " + ", ".join(
                f"{u.name} ({u.attempts} attempts)" for u in quarantined))
        else:
            state = STATE_DONE
            error = ""
        cstore.write_manifest(spec.to_dict(), metrics, ordered, extra=extra)
        job = self.queue.set_state(job_id, state, error=error,
                                   metrics=metrics)
        append_event(self.sup.events_path(job_id), "state", job=job_id,
                     state=job.state, error=error or None)
        self._specs.pop(job_id, None)
        self.sup.settle(job, metrics)
        self.sup._emit(
            f"[service] job {job_id} -> {job.state}"
            f"{f' ({error})' if error else ''} "
            f"[{states[UNIT_DONE]} unit(s) executed, "
            f"{cached_hits} served from cache]")
