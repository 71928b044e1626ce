"""Persistent job queue with weighted fair-share across tenants.

One job = one campaign spec submitted by one *tenant*.  The queue is a
single SQLite file (WAL mode) inside the service root, so every
transition survives a server crash — on restart the supervisor finds
exactly the jobs and work units it was running and adopts them.

**Lifecycle.**  Every job walks the explicit state machine::

    QUEUED ──→ STAGING ──→ RUNNING ──→ DONE
       │           │           ├─────→ FAILED
       │           │           ├─────→ CANCELLED
       └───────────┴───────────┴─────→ CANCELLED
                   └───────────┴─────→ QUEUED   (crash recovery, resume)

Transitions outside this graph raise — a job can never silently skip a
state or resurrect from a terminal one.

**Scheduling.**  :meth:`JobQueue.claim_next` implements weighted
fair-share over *accumulated service*: each tenant carries a virtual
time ``vtime`` that grows by ``busy_seconds / weight`` whenever one of
its jobs finishes; the claimable job is the highest-priority, oldest job
of the tenant with the smallest ``vtime``.  A tenant with weight 2
therefore receives twice the service of a weight-1 tenant under
contention, and an idle tenant's first job is served promptly — but
cannot *starve* the fleet, because its ``vtime`` is clamped up to the
smallest active ``vtime`` at submit instead of replaying its whole idle
history as credit.
"""

from __future__ import annotations

import json
import os
import sqlite3
import time
import uuid
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

__all__ = [
    "Job", "JobQueue", "WorkUnit", "LeaseLostError",
    "STATE_QUEUED", "STATE_STAGING", "STATE_RUNNING", "STATE_DONE",
    "STATE_FAILED", "STATE_CANCELLED", "TERMINAL_STATES",
    "UNIT_PENDING", "UNIT_LEASED", "UNIT_DONE", "UNIT_QUARANTINED",
    "UNIT_CANCELLED", "UNIT_TERMINAL_STATES",
]

STATE_QUEUED = "QUEUED"
STATE_STAGING = "STAGING"
STATE_RUNNING = "RUNNING"
STATE_DONE = "DONE"
STATE_FAILED = "FAILED"
STATE_CANCELLED = "CANCELLED"

TERMINAL_STATES = frozenset({STATE_DONE, STATE_FAILED, STATE_CANCELLED})

#: The lifecycle graph: state -> states reachable from it.
_TRANSITIONS = {
    STATE_QUEUED: {STATE_STAGING, STATE_CANCELLED},
    STATE_STAGING: {STATE_RUNNING, STATE_FAILED, STATE_CANCELLED,
                    STATE_QUEUED},
    STATE_RUNNING: {STATE_DONE, STATE_FAILED, STATE_CANCELLED,
                    STATE_QUEUED},
    STATE_DONE: set(),
    STATE_FAILED: set(),
    STATE_CANCELLED: set(),
}

UNIT_PENDING = "PENDING"
UNIT_LEASED = "LEASED"
UNIT_DONE = "DONE"
UNIT_QUARANTINED = "QUARANTINED"
UNIT_CANCELLED = "CANCELLED"

UNIT_TERMINAL_STATES = frozenset(
    {UNIT_DONE, UNIT_QUARANTINED, UNIT_CANCELLED})


class LeaseLostError(Exception):
    """A heartbeat/result arrived under a lease that no longer exists.

    Raised when the (worker, token) pair does not match any active lease
    on the unit — the lease expired and was requeued, the unit already
    finished under another lease (speculative race), or the unit was
    cancelled.  The server maps this to HTTP 409 so the worker stops
    working on the unit.
    """


_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    id              TEXT PRIMARY KEY,
    tenant          TEXT NOT NULL,
    priority        INTEGER NOT NULL DEFAULT 0,
    state           TEXT NOT NULL,
    campaign        TEXT NOT NULL DEFAULT '',
    n_scenarios     INTEGER NOT NULL DEFAULT 0,
    submitted_at    REAL NOT NULL,
    started_at      REAL,
    finished_at     REAL,
    resume          INTEGER NOT NULL DEFAULT 0,
    cancel_requested INTEGER NOT NULL DEFAULT 0,
    error           TEXT NOT NULL DEFAULT '',
    metrics         TEXT NOT NULL DEFAULT ''
);
CREATE INDEX IF NOT EXISTS jobs_by_state ON jobs (state);
CREATE TABLE IF NOT EXISTS tenants (
    name            TEXT PRIMARY KEY,
    weight          REAL NOT NULL DEFAULT 1.0,
    vtime           REAL NOT NULL DEFAULT 0.0,
    jobs_submitted  INTEGER NOT NULL DEFAULT 0,
    jobs_finished   INTEGER NOT NULL DEFAULT 0,
    busy_seconds    REAL NOT NULL DEFAULT 0.0,
    result_hits     INTEGER NOT NULL DEFAULT 0,
    result_misses   INTEGER NOT NULL DEFAULT 0,
    stage_hits      INTEGER NOT NULL DEFAULT 0,
    stage_misses    INTEGER NOT NULL DEFAULT 0,
    evictions_triggered INTEGER NOT NULL DEFAULT 0
);
CREATE TABLE IF NOT EXISTS units (
    id              TEXT PRIMARY KEY,
    job_id          TEXT NOT NULL,
    seq             INTEGER NOT NULL,
    name            TEXT NOT NULL,
    scenario        TEXT NOT NULL,
    cache_key       TEXT NOT NULL DEFAULT '',
    digests         TEXT NOT NULL DEFAULT '[]',
    state           TEXT NOT NULL,
    attempts        INTEGER NOT NULL DEFAULT 0,
    max_attempts    INTEGER NOT NULL DEFAULT 3,
    backoff_s       REAL NOT NULL DEFAULT 0.5,
    ready_at        REAL NOT NULL DEFAULT 0.0,
    speculative_eligible INTEGER NOT NULL DEFAULT 0,
    leases          TEXT NOT NULL DEFAULT '[]',
    retry_history   TEXT NOT NULL DEFAULT '[]',
    error           TEXT NOT NULL DEFAULT '',
    winner          TEXT NOT NULL DEFAULT '',
    created_at      REAL NOT NULL,
    started_at      REAL,
    finished_at     REAL,
    duration        REAL
);
CREATE INDEX IF NOT EXISTS units_by_job ON units (job_id);
CREATE INDEX IF NOT EXISTS units_by_state ON units (state);
CREATE TABLE IF NOT EXISTS workers (
    name            TEXT PRIMARY KEY,
    registered_at   REAL NOT NULL,
    last_seen       REAL NOT NULL,
    info            TEXT NOT NULL DEFAULT '{}',
    units_done      INTEGER NOT NULL DEFAULT 0,
    units_failed    INTEGER NOT NULL DEFAULT 0
);
CREATE TABLE IF NOT EXISTS dcounters (
    name            TEXT PRIMARY KEY,
    value           INTEGER NOT NULL DEFAULT 0
);
"""


@dataclass
class Job:
    """One queued campaign (the DB row, shaped for JSON)."""

    id: str
    tenant: str
    priority: int
    state: str
    campaign: str = ""
    n_scenarios: int = 0
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    resume: bool = False
    cancel_requested: bool = False
    error: str = ""
    metrics: Dict[str, Any] = field(default_factory=dict)

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def to_dict(self) -> Dict[str, Any]:
        return {
            "id": self.id, "tenant": self.tenant,
            "priority": self.priority, "state": self.state,
            "campaign": self.campaign, "n_scenarios": self.n_scenarios,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "resume": self.resume,
            "cancel_requested": self.cancel_requested,
            "error": self.error, "metrics": self.metrics,
        }


def _row_to_job(row: sqlite3.Row) -> Job:
    metrics = {}
    if row["metrics"]:
        try:
            metrics = json.loads(row["metrics"])
        except ValueError:  # pragma: no cover - defensive
            metrics = {}
    return Job(
        id=row["id"], tenant=row["tenant"], priority=row["priority"],
        state=row["state"], campaign=row["campaign"],
        n_scenarios=row["n_scenarios"], submitted_at=row["submitted_at"],
        started_at=row["started_at"], finished_at=row["finished_at"],
        resume=bool(row["resume"]),
        cancel_requested=bool(row["cancel_requested"]),
        error=row["error"], metrics=metrics,
    )


@dataclass
class WorkUnit:
    """One scenario-shard of a job, claimable by a worker under a lease.

    A unit generalizes the job-level ``RUNNING → QUEUED`` crash-recovery
    edge to per-scenario granularity::

        PENDING ──→ LEASED ──→ DONE
           │           ├─────→ PENDING      (lease expired / attempt failed)
           │           ├─────→ QUARANTINED  (attempts exhausted)
           │           └─────→ CANCELLED
           └─────────────────→ CANCELLED

    ``leases`` is the list of *active* leases — normally one; two during
    a speculative re-execution window (first result wins).  ``attempts``
    counts lease grants, and every lost attempt (expiry or failure)
    lands in ``retry_history`` with the same shape the campaign runner
    uses, plus ``worker``/``resumed``/``speculative`` tags.
    """

    id: str
    job_id: str
    seq: int
    name: str
    scenario: Dict[str, Any]
    cache_key: str = ""
    digests: List[str] = field(default_factory=list)
    state: str = UNIT_PENDING
    attempts: int = 0
    max_attempts: int = 3
    backoff_s: float = 0.5
    ready_at: float = 0.0
    speculative_eligible: bool = False
    leases: List[Dict[str, Any]] = field(default_factory=list)
    retry_history: List[Dict[str, Any]] = field(default_factory=list)
    error: str = ""
    winner: str = ""
    created_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    duration: Optional[float] = None

    @property
    def terminal(self) -> bool:
        return self.state in UNIT_TERMINAL_STATES

    def to_dict(self) -> Dict[str, Any]:
        return {
            "id": self.id, "job_id": self.job_id, "seq": self.seq,
            "name": self.name, "scenario": self.scenario,
            "cache_key": self.cache_key, "digests": list(self.digests),
            "state": self.state, "attempts": self.attempts,
            "max_attempts": self.max_attempts, "backoff_s": self.backoff_s,
            "ready_at": self.ready_at,
            "speculative_eligible": self.speculative_eligible,
            "leases": list(self.leases),
            "retry_history": list(self.retry_history),
            "error": self.error, "winner": self.winner,
            "created_at": self.created_at, "started_at": self.started_at,
            "finished_at": self.finished_at, "duration": self.duration,
        }


def _row_to_unit(row: sqlite3.Row) -> WorkUnit:
    def _loads(text: str, default: Any) -> Any:
        try:
            return json.loads(text) if text else default
        except ValueError:  # pragma: no cover - defensive
            return default

    return WorkUnit(
        id=row["id"], job_id=row["job_id"], seq=row["seq"],
        name=row["name"], scenario=_loads(row["scenario"], {}),
        cache_key=row["cache_key"], digests=_loads(row["digests"], []),
        state=row["state"], attempts=row["attempts"],
        max_attempts=row["max_attempts"], backoff_s=row["backoff_s"],
        ready_at=row["ready_at"],
        speculative_eligible=bool(row["speculative_eligible"]),
        leases=_loads(row["leases"], []),
        retry_history=_loads(row["retry_history"], []),
        error=row["error"], winner=row["winner"],
        created_at=row["created_at"], started_at=row["started_at"],
        finished_at=row["finished_at"], duration=row["duration"],
    )


class JobQueue:
    """SQLite-backed queue; one writer (the server), any readers."""

    def __init__(self, path: str) -> None:
        self.path = path
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        self._db = sqlite3.connect(path, check_same_thread=False)
        self._db.row_factory = sqlite3.Row
        self._db.execute("PRAGMA journal_mode=WAL")
        self._db.execute("PRAGMA synchronous=NORMAL")
        self._db.executescript(_SCHEMA)
        self._db.commit()

    def close(self) -> None:
        self._db.close()

    # -- tenants ---------------------------------------------------------
    def ensure_tenant(self, name: str, weight: Optional[float] = None) -> None:
        """Create the tenant row if needed; set its weight if given."""
        if not name:
            raise ValueError("tenant name must be non-empty")
        if weight is not None and weight <= 0:
            raise ValueError("tenant weight must be > 0")
        self._db.execute(
            "INSERT OR IGNORE INTO tenants (name) VALUES (?)", (name,))
        if weight is not None:
            self._db.execute(
                "UPDATE tenants SET weight = ? WHERE name = ?",
                (float(weight), name))
        self._db.commit()

    def tenants(self) -> List[Dict[str, Any]]:
        rows = self._db.execute(
            "SELECT * FROM tenants ORDER BY name").fetchall()
        return [dict(row) for row in rows]

    # -- submit / read ---------------------------------------------------
    def submit(self, tenant: str, campaign: str, n_scenarios: int,
               priority: int = 0, job_id: Optional[str] = None) -> Job:
        job_id = job_id or uuid.uuid4().hex[:12]
        self.ensure_tenant(tenant)
        now = time.time()
        # Idle-tenant clamp: returning after a quiet spell must not grant
        # unbounded back-service (its vtime would be far below everyone
        # else's — it would monopolise the fleet until "caught up").
        row = self._db.execute(
            "SELECT MIN(t.vtime) AS lo FROM tenants t WHERE EXISTS ("
            "  SELECT 1 FROM jobs j WHERE j.tenant = t.name"
            "  AND j.state IN (?, ?, ?))",
            (STATE_QUEUED, STATE_STAGING, STATE_RUNNING)).fetchone()
        if row["lo"] is not None:
            self._db.execute(
                "UPDATE tenants SET vtime = MAX(vtime, ?) WHERE name = ?",
                (row["lo"], tenant))
        self._db.execute(
            "INSERT INTO jobs (id, tenant, priority, state, campaign,"
            " n_scenarios, submitted_at) VALUES (?, ?, ?, ?, ?, ?, ?)",
            (job_id, tenant, int(priority), STATE_QUEUED, campaign,
             int(n_scenarios), now))
        self._db.execute(
            "UPDATE tenants SET jobs_submitted = jobs_submitted + 1 "
            "WHERE name = ?", (tenant,))
        self._db.commit()
        return self.get(job_id)

    def get(self, job_id: str) -> Job:
        row = self._db.execute(
            "SELECT * FROM jobs WHERE id = ?", (job_id,)).fetchone()
        if row is None:
            raise KeyError(f"unknown job {job_id!r}")
        return _row_to_job(row)

    def list_jobs(self, tenant: Optional[str] = None,
                  state: Optional[str] = None) -> List[Job]:
        query = "SELECT * FROM jobs"
        clauses, args = [], []
        if tenant:
            clauses.append("tenant = ?")
            args.append(tenant)
        if state:
            clauses.append("state = ?")
            args.append(state)
        if clauses:
            query += " WHERE " + " AND ".join(clauses)
        query += " ORDER BY submitted_at ASC, rowid ASC"
        return [_row_to_job(r) for r in self._db.execute(query, args)]

    # -- lifecycle -------------------------------------------------------
    def set_state(self, job_id: str, state: str, *,
                  error: Optional[str] = None,
                  resume: Optional[bool] = None,
                  metrics: Optional[Dict[str, Any]] = None) -> Job:
        """Transition a job, enforcing the lifecycle graph."""
        job = self.get(job_id)
        if state not in _TRANSITIONS:
            raise ValueError(f"unknown job state {state!r}")
        if state not in _TRANSITIONS[job.state]:
            raise ValueError(
                f"job {job_id}: illegal transition "
                f"{job.state} -> {state}")
        sets = ["state = ?"]
        args: List[Any] = [state]
        now = time.time()
        if state == STATE_RUNNING:
            sets.append("started_at = COALESCE(started_at, ?)")
            args.append(now)
        if state in TERMINAL_STATES:
            sets.append("finished_at = ?")
            args.append(now)
        if error is not None:
            sets.append("error = ?")
            args.append(error)
        if resume is not None:
            sets.append("resume = ?")
            args.append(1 if resume else 0)
        if metrics is not None:
            sets.append("metrics = ?")
            args.append(json.dumps(metrics, sort_keys=True))
        args.append(job_id)
        self._db.execute(
            f"UPDATE jobs SET {', '.join(sets)} WHERE id = ?", args)
        self._db.commit()
        return self.get(job_id)

    def request_cancel(self, job_id: str) -> Job:
        """Cancel a job.  QUEUED cancels immediately; STAGING/RUNNING is
        flagged, and the dispatcher cancels its unfinished units;
        terminal states refuse."""
        job = self.get(job_id)
        if job.terminal:
            raise ValueError(
                f"job {job_id} is already {job.state}; nothing to cancel")
        if job.state == STATE_QUEUED:
            return self.set_state(job_id, STATE_CANCELLED,
                                  error="cancelled while queued")
        self._db.execute(
            "UPDATE jobs SET cancel_requested = 1 WHERE id = ?", (job_id,))
        self._db.commit()
        return self.get(job_id)

    # -- fair-share claim ------------------------------------------------
    def claim_next(self) -> Optional[Job]:
        """The next job to run, or None: smallest tenant ``vtime`` first,
        then highest priority, then submit order.  The claim itself is
        the QUEUED → STAGING transition."""
        row = self._db.execute(
            "SELECT j.id FROM jobs j JOIN tenants t ON j.tenant = t.name"
            " WHERE j.state = ?"
            " ORDER BY t.vtime ASC, t.name ASC, j.priority DESC,"
            " j.submitted_at ASC, j.rowid ASC LIMIT 1",
            (STATE_QUEUED,)).fetchone()
        if row is None:
            return None
        return self.set_state(row["id"], STATE_STAGING)

    def charge(self, tenant: str, busy_seconds: float, *,
               result_hits: int = 0, result_misses: int = 0,
               stage_hits: int = 0, stage_misses: int = 0,
               evictions: int = 0, finished: bool = False) -> None:
        """Fold one job's service + cache economics into its tenant:
        ``vtime`` advances by ``busy_seconds / weight`` (the fair-share
        meter), the counters are the per-tenant hit/miss/eviction story
        the metrics endpoint reports."""
        self.ensure_tenant(tenant)
        self._db.execute(
            "UPDATE tenants SET"
            " vtime = vtime + ? / weight,"
            " busy_seconds = busy_seconds + ?,"
            " jobs_finished = jobs_finished + ?,"
            " result_hits = result_hits + ?,"
            " result_misses = result_misses + ?,"
            " stage_hits = stage_hits + ?,"
            " stage_misses = stage_misses + ?,"
            " evictions_triggered = evictions_triggered + ?"
            " WHERE name = ?",
            (max(0.0, busy_seconds), max(0.0, busy_seconds),
             1 if finished else 0, result_hits, result_misses,
             stage_hits, stage_misses, evictions, tenant))
        self._db.commit()

    # -- crash recovery --------------------------------------------------
    def unfinished_jobs(self) -> List[Job]:
        """Jobs a previous server left in STAGING/RUNNING."""
        return [job for state in (STATE_STAGING, STATE_RUNNING)
                for job in self.list_jobs(state=state)]

    def counters_doc(self) -> Dict[str, Any]:
        states = {state: 0 for state in _TRANSITIONS}
        for row in self._db.execute(
                "SELECT state, COUNT(*) AS n FROM jobs GROUP BY state"):
            states[row["state"]] = row["n"]
        return {"jobs_by_state": states, "tenants": self.tenants()}

    # =====================================================================
    # Work units: scenario-shard leases for distributed execution
    # =====================================================================
    def create_unit(self, job_id: str, seq: int, name: str,
                    scenario: Dict[str, Any], *, cache_key: str = "",
                    digests: Iterable[str] = (), max_attempts: int = 3,
                    backoff_s: float = 0.5,
                    retry_history: Optional[List[Dict[str, Any]]] = None,
                    ) -> WorkUnit:
        unit_id = uuid.uuid4().hex[:12]
        self._db.execute(
            "INSERT INTO units (id, job_id, seq, name, scenario, cache_key,"
            " digests, state, max_attempts, backoff_s, retry_history,"
            " created_at) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (unit_id, job_id, int(seq), name,
             json.dumps(scenario, sort_keys=True), cache_key,
             json.dumps(sorted(digests)), UNIT_PENDING,
             max(1, int(max_attempts)), float(backoff_s),
             json.dumps(retry_history or []), time.time()))
        self._db.commit()
        return self.get_unit(unit_id)

    def get_unit(self, unit_id: str) -> WorkUnit:
        row = self._db.execute(
            "SELECT * FROM units WHERE id = ?", (unit_id,)).fetchone()
        if row is None:
            raise KeyError(f"unknown unit {unit_id!r}")
        return _row_to_unit(row)

    def units_for_job(self, job_id: str) -> List[WorkUnit]:
        return [_row_to_unit(r) for r in self._db.execute(
            "SELECT * FROM units WHERE job_id = ? ORDER BY seq ASC",
            (job_id,))]

    def list_units(self, state: Optional[str] = None) -> List[WorkUnit]:
        if state:
            rows = self._db.execute(
                "SELECT * FROM units WHERE state = ?"
                " ORDER BY created_at ASC, rowid ASC", (state,))
        else:
            rows = self._db.execute(
                "SELECT * FROM units ORDER BY created_at ASC, rowid ASC")
        return [_row_to_unit(r) for r in rows]

    def _update_unit(self, unit: WorkUnit, **cols: Any) -> None:
        sets, args = [], []
        for col, value in cols.items():
            sets.append(f"{col} = ?")
            if col in ("leases", "retry_history", "digests"):
                value = json.dumps(value)
            args.append(value)
        args.append(unit.id)
        self._db.execute(
            f"UPDATE units SET {', '.join(sets)} WHERE id = ?", args)
        self._db.commit()

    # -- lease lifecycle -------------------------------------------------
    def lease_unit(self, worker: str, lease_s: float,
                   now: Optional[float] = None,
                   job_id: Optional[str] = None) -> Optional[Dict[str, Any]]:
        """Grant the next unit to ``worker`` under a fresh lease.

        PENDING units go first (oldest job, then shard order); when none
        is ready, a straggling LEASED unit marked ``speculative_eligible``
        may be re-leased to a *different* worker (one extra copy at most —
        first result wins).  ``job_id`` limits both to one job's units.
        Returns ``{"unit", "token", "deadline", "speculative"}`` or None
        when there is nothing to hand out.
        """
        now = time.time() if now is None else now
        self.worker_seen(worker, now)
        only_job = " AND u.job_id = ?" if job_id is not None else ""
        job_arg = (job_id,) if job_id is not None else ()
        row = self._db.execute(
            "SELECT u.id FROM units u JOIN jobs j ON u.job_id = j.id"
            " WHERE u.state = ? AND u.ready_at <= ?" + only_job +
            " ORDER BY j.submitted_at ASC, u.seq ASC, u.rowid ASC LIMIT 1",
            (UNIT_PENDING, now) + job_arg).fetchone()
        speculative = False
        unit: Optional[WorkUnit] = None
        if row is not None:
            unit = self.get_unit(row["id"])
        else:
            for cand in self._db.execute(
                    "SELECT * FROM units u WHERE state = ?"
                    " AND speculative_eligible = 1" + only_job +
                    " ORDER BY started_at ASC, rowid ASC",
                    (UNIT_LEASED,) + job_arg):
                candidate = _row_to_unit(cand)
                if (len(candidate.leases) == 1
                        and candidate.leases[0]["worker"] != worker):
                    unit, speculative = candidate, True
                    break
            if unit is None:
                return None
        token = uuid.uuid4().hex
        attempt = unit.attempts + 1
        lease = {"worker": worker, "token": token, "attempt": attempt,
                 "granted_at": now, "deadline": now + float(lease_s),
                 "speculative": speculative}
        self._update_unit(
            unit, state=UNIT_LEASED, attempts=attempt,
            leases=unit.leases + [lease],
            started_at=unit.started_at if unit.started_at is not None
            else now,
            speculative_eligible=0)
        self.incr_counter("leases_granted")
        if speculative:
            self.incr_counter("speculative_leases")
        fresh = self.get_unit(unit.id)
        return {"unit": fresh, "token": token,
                "deadline": lease["deadline"], "speculative": speculative}

    def _find_lease(self, unit: WorkUnit, worker: str,
                    token: str) -> Optional[Dict[str, Any]]:
        if unit.state != UNIT_LEASED:
            return None
        for lease in unit.leases:
            if lease["worker"] == worker and lease["token"] == token:
                return lease
        return None

    def heartbeat_unit(self, unit_id: str, worker: str, token: str,
                       lease_s: float,
                       now: Optional[float] = None) -> float:
        """Renew a lease; raises :class:`LeaseLostError` if superseded."""
        now = time.time() if now is None else now
        unit = self.get_unit(unit_id)
        self.worker_seen(worker, now)
        lease = self._find_lease(unit, worker, token)
        if lease is None:
            self.incr_counter("late_heartbeats_rejected")
            raise LeaseLostError(
                f"unit {unit_id}: no active lease held by {worker!r}"
                f" (unit is {unit.state})")
        lease["deadline"] = now + float(lease_s)
        self._update_unit(unit, leases=unit.leases)
        return lease["deadline"]

    def release_unit(self, unit_id: str, worker: str, token: str,
                     now: Optional[float] = None) -> None:
        """Hand a lease back unspent: the holder is stopping, the unit did
        not fail.  A unit left leaseless is PENDING again at once and its
        attempt is refunded, so a server restart never counts towards
        ``max_attempts``.  A lease already gone is a no-op."""
        now = time.time() if now is None else now
        unit = self.get_unit(unit_id)
        if self._find_lease(unit, worker, token) is None:
            return
        keep = [l for l in unit.leases if l["token"] != token]
        if keep:            # a speculative twin runs on
            self._update_unit(unit, leases=keep)
            return
        self._update_unit(unit, state=UNIT_PENDING, leases=[],
                          attempts=unit.attempts - 1, ready_at=now,
                          speculative_eligible=0)

    def complete_unit(self, unit_id: str, worker: str, token: str, *,
                      duration: Optional[float] = None,
                      now: Optional[float] = None) -> Dict[str, Any]:
        """First result wins: the valid lease-holder lands DONE; a result
        from a superseded lease raises :class:`LeaseLostError` and is
        counted ``late_results_discarded``."""
        now = time.time() if now is None else now
        unit = self.get_unit(unit_id)
        self.worker_seen(worker, now)
        lease = self._find_lease(unit, worker, token)
        if lease is None:
            self.incr_counter("late_results_discarded")
            raise LeaseLostError(
                f"unit {unit_id}: result from superseded lease of"
                f" {worker!r} discarded (unit is {unit.state})")
        superseded = [l for l in unit.leases if l["token"] != token]
        self._update_unit(
            unit, state=UNIT_DONE, leases=[], winner=worker,
            finished_at=now, duration=duration, error="",
            speculative_eligible=0)
        self._db.execute(
            "UPDATE workers SET units_done = units_done + 1"
            " WHERE name = ?", (worker,))
        self._db.commit()
        if lease.get("speculative") or superseded:
            # A race was on (this lease was the extra copy, or an extra
            # copy is still running) — the winner decides it.
            self.incr_counter("speculative_wins")
        return {"unit": self.get_unit(unit_id), "lease": lease,
                "superseded": superseded}

    def fail_unit(self, unit_id: str, worker: str, token: str, *,
                  error: str, status: str = "error",
                  now: Optional[float] = None) -> WorkUnit:
        """A worker reports an attempt failed: drop its lease, requeue
        with exponential backoff, or quarantine after ``max_attempts``."""
        now = time.time() if now is None else now
        unit = self.get_unit(unit_id)
        self.worker_seen(worker, now)
        lease = self._find_lease(unit, worker, token)
        if lease is None:
            raise LeaseLostError(
                f"unit {unit_id}: failure report from superseded lease"
                f" of {worker!r} ignored (unit is {unit.state})")
        remaining = [l for l in unit.leases if l["token"] != token]
        backoff = unit.backoff_s * (2 ** max(0, unit.attempts - 1))
        entry = {"attempt": lease["attempt"], "status": status,
                 "worker": worker, "message": str(error)[:1000],
                 "backoff_s": round(backoff, 6)}
        if lease.get("speculative"):
            entry["speculative"] = True
        history = unit.retry_history + [entry]
        self._db.execute(
            "UPDATE workers SET units_failed = units_failed + 1"
            " WHERE name = ?", (worker,))
        if remaining:
            # The other (speculative) copy is still running; let it race.
            self._update_unit(unit, leases=remaining,
                              retry_history=history)
        elif unit.attempts >= unit.max_attempts:
            self._quarantine(unit, history, error, now)
        else:
            self._update_unit(
                unit, state=UNIT_PENDING, leases=[],
                retry_history=history, ready_at=now + backoff,
                speculative_eligible=0)
            self.incr_counter("units_requeued")
        return self.get_unit(unit_id)

    def _quarantine(self, unit: WorkUnit, history: List[Dict[str, Any]],
                    error: str, now: float) -> None:
        self._update_unit(
            unit, state=UNIT_QUARANTINED, leases=[],
            retry_history=history, error=str(error)[:2000],
            finished_at=now, speculative_eligible=0)
        self.incr_counter("units_quarantined")

    def expire_leases(self, now: Optional[float] = None, *,
                      resumed: bool = False) -> List[Dict[str, Any]]:
        """Drop every lease past its deadline; requeue or quarantine
        units left leaseless.  Idempotent: a second sweep at the same
        ``now`` finds nothing.  ``resumed`` tags the history entries
        (crash-recovery sweep after a server restart)."""
        now = time.time() if now is None else now
        events: List[Dict[str, Any]] = []
        for row in self._db.execute(
                "SELECT * FROM units WHERE state = ?", (UNIT_LEASED,)):
            unit = _row_to_unit(row)
            keep = [l for l in unit.leases if l["deadline"] > now]
            dropped = [l for l in unit.leases if l["deadline"] <= now]
            if not dropped:
                continue
            history = list(unit.retry_history)
            for lease in dropped:
                entry = {"attempt": lease["attempt"],
                         "status": "lease_expired",
                         "worker": lease["worker"], "backoff_s": 0.0}
                if lease.get("speculative"):
                    entry["speculative"] = True
                if resumed:
                    entry["resumed"] = True
                history.append(entry)
                self.incr_counter("leases_expired")
                events.append({
                    "unit": unit.id, "job_id": unit.job_id,
                    "name": unit.name, "worker": lease["worker"],
                    "attempt": lease["attempt"],
                    "requeued": not keep, "resumed": resumed})
            if keep:
                self._update_unit(unit, leases=keep, retry_history=history)
            elif unit.attempts >= unit.max_attempts:
                self._quarantine(
                    unit, history,
                    f"lease expired on final attempt {unit.attempts}"
                    f" (worker {dropped[-1]['worker']})", now)
            else:
                # Worker death is not the unit's fault: requeue with no
                # backoff so recovery is immediate.
                self._update_unit(
                    unit, state=UNIT_PENDING, leases=[],
                    retry_history=history, ready_at=now,
                    speculative_eligible=0)
                self.incr_counter("units_requeued")
        return events

    def mark_speculative_eligible(self, unit_id: str) -> None:
        self._db.execute(
            "UPDATE units SET speculative_eligible = 1"
            " WHERE id = ? AND state = ?", (unit_id, UNIT_LEASED))
        self._db.commit()

    def cancel_units(self, job_id: str,
                     now: Optional[float] = None) -> int:
        now = time.time() if now is None else now
        cur = self._db.execute(
            "UPDATE units SET state = ?, leases = '[]', finished_at = ?"
            " WHERE job_id = ? AND state IN (?, ?)",
            (UNIT_CANCELLED, now, job_id, UNIT_PENDING, UNIT_LEASED))
        self._db.commit()
        return cur.rowcount

    def unit_states_for_job(self, job_id: str) -> Dict[str, int]:
        states = {UNIT_PENDING: 0, UNIT_LEASED: 0, UNIT_DONE: 0,
                  UNIT_QUARANTINED: 0, UNIT_CANCELLED: 0}
        for row in self._db.execute(
                "SELECT state, COUNT(*) AS n FROM units WHERE job_id = ?"
                " GROUP BY state", (job_id,)):
            states[row["state"]] = row["n"]
        return states

    def done_unit_durations(self, tenant: str) -> List[float]:
        """Durations of this tenant's DONE units (straggler p95 input)."""
        return [row["duration"] for row in self._db.execute(
            "SELECT u.duration FROM units u JOIN jobs j ON u.job_id = j.id"
            " WHERE j.tenant = ? AND u.state = ? AND u.duration IS NOT NULL",
            (tenant, UNIT_DONE))]

    # -- worker registry -------------------------------------------------
    def register_worker(self, name: str,
                        info: Optional[Dict[str, Any]] = None,
                        now: Optional[float] = None) -> Dict[str, Any]:
        if not name:
            raise ValueError("worker name must be non-empty")
        now = time.time() if now is None else now
        self._db.execute(
            "INSERT INTO workers (name, registered_at, last_seen, info)"
            " VALUES (?, ?, ?, ?) ON CONFLICT(name) DO UPDATE SET"
            " last_seen = ?, info = ?",
            (name, now, now, json.dumps(info or {}, sort_keys=True),
             now, json.dumps(info or {}, sort_keys=True)))
        self._db.commit()
        return {"name": name, "registered_at": now}

    def worker_seen(self, name: str, now: Optional[float] = None) -> None:
        now = time.time() if now is None else now
        self._db.execute(
            "INSERT INTO workers (name, registered_at, last_seen)"
            " VALUES (?, ?, ?) ON CONFLICT(name) DO UPDATE SET"
            " last_seen = ?", (name, now, now, now))
        self._db.commit()

    def workers_doc(self, now: Optional[float] = None) -> List[Dict[str, Any]]:
        now = time.time() if now is None else now
        active: Dict[str, int] = {}
        for row in self._db.execute(
                "SELECT leases FROM units WHERE state = ?", (UNIT_LEASED,)):
            try:
                leases = json.loads(row["leases"])
            except ValueError:  # pragma: no cover - defensive
                leases = []
            for lease in leases:
                active[lease["worker"]] = active.get(lease["worker"], 0) + 1
        docs = []
        for row in self._db.execute(
                "SELECT * FROM workers ORDER BY name"):
            try:
                info = json.loads(row["info"]) if row["info"] else {}
            except ValueError:  # pragma: no cover - defensive
                info = {}
            docs.append({
                "name": row["name"],
                "registered_at": row["registered_at"],
                "last_seen": row["last_seen"],
                "last_seen_age_s": round(max(0.0, now - row["last_seen"]), 3),
                "active_leases": active.get(row["name"], 0),
                "units_done": row["units_done"],
                "units_failed": row["units_failed"],
                "info": info,
            })
        return docs

    # -- dispatch counters -----------------------------------------------
    _DISPATCH_COUNTERS = (
        "leases_granted", "leases_expired", "units_requeued",
        "speculative_leases", "speculative_wins", "units_quarantined",
        "late_heartbeats_rejected", "late_results_discarded",
        "bytes_shipped", "bytes_saved_by_cache", "dedup_mismatches",
    )

    def incr_counter(self, name: str, n: int = 1) -> None:
        self._db.execute(
            "INSERT INTO dcounters (name, value) VALUES (?, ?)"
            " ON CONFLICT(name) DO UPDATE SET value = value + ?",
            (name, int(n), int(n)))
        self._db.commit()

    def dispatch_counters(self) -> Dict[str, int]:
        counters = {name: 0 for name in self._DISPATCH_COUNTERS}
        for row in self._db.execute("SELECT name, value FROM dcounters"):
            counters[row["name"]] = row["value"]
        return counters

    def units_by_state_doc(self) -> Dict[str, int]:
        states = {UNIT_PENDING: 0, UNIT_LEASED: 0, UNIT_DONE: 0,
                  UNIT_QUARANTINED: 0, UNIT_CANCELLED: 0}
        for row in self._db.execute(
                "SELECT state, COUNT(*) AS n FROM units GROUP BY state"):
            states[row["state"]] = row["n"]
        return states
