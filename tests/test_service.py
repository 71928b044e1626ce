"""Tests for repro.service: the persistent job queue (lifecycle +
fair-share), the multi-tenant artifact store (staging, LRU eviction),
the supervisor, and the HTTP server end-to-end (submit / poll /
results / cancel / crash-resume) through the thin client."""

import json
import multiprocessing
import os
import re
import signal
import sqlite3
import subprocess
import sys
import time

import pytest

from repro.campaign import CampaignSpec, run_campaign
from repro.campaign.store import CampaignStore
from repro.core.synth import write_synthetic_lu_trace
from repro.service import (
    STATE_CANCELLED, STATE_DONE, STATE_QUEUED, STATE_RUNNING,
    STATE_STAGING, UNIT_DONE, UNIT_LEASED, UNIT_PENDING, ArtifactStore,
    JobQueue, ServiceClient, ServiceError, Supervisor,
)
from repro.service.server import ServiceServer

REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")


def small_spec_doc(name="svc", ranks=(2, 4)):
    return {
        "name": name,
        "jobs": 2,
        "base": {"ranks": 4,
                 "trace": {"kind": "synth", "cls": "S",
                           "iterations": 2, "inorm": 1},
                 "platform": {"name": "bordereau", "hosts": 8},
                 "calibration": {"kind": "fixed", "speed": 2e9}},
        "vary": {"ranks": list(ranks)},
    }


def sleepy_spec_doc(name="slow", n=3, seconds=1.5):
    return {
        "name": name,
        "jobs": 1,
        "base": {"ranks": 2,
                 "trace": {"kind": "sleep", "seconds": seconds},
                 "platform": {"name": "bordereau", "hosts": 4},
                 "calibration": {"kind": "fixed", "speed": 2e9}},
        "vary": {"ranks": list(range(2, 2 + n))},
    }


# ----------------------------------------------------------------------
# JobQueue: lifecycle, persistence, fair share
# ----------------------------------------------------------------------
def test_queue_lifecycle_graph_is_enforced(tmp_path):
    queue = JobQueue(str(tmp_path / "q.db"))
    job = queue.submit("alice", "camp", 3)
    assert job.state == STATE_QUEUED
    # The claim IS the QUEUED -> STAGING transition.
    claimed = queue.claim_next()
    assert claimed.id == job.id and claimed.state == STATE_STAGING
    queue.set_state(job.id, STATE_RUNNING)
    assert queue.get(job.id).started_at is not None
    done = queue.set_state(job.id, STATE_DONE,
                           metrics={"wall_seconds": 1.0})
    assert done.terminal and done.finished_at is not None
    assert done.metrics["wall_seconds"] == 1.0
    # Terminal states are sinks; skipping states is illegal too.
    with pytest.raises(ValueError, match="illegal transition"):
        queue.set_state(job.id, STATE_RUNNING)
    other = queue.submit("alice", "camp2", 1)
    with pytest.raises(ValueError, match="illegal transition"):
        queue.set_state(other.id, STATE_DONE)
    with pytest.raises(ValueError, match="unknown job state"):
        queue.set_state(other.id, "PONDERING")


def test_queue_persists_across_reopen(tmp_path):
    path = str(tmp_path / "q.db")
    queue = JobQueue(path)
    job = queue.submit("alice", "camp", 2, priority=7)
    queue.claim_next()
    queue.set_state(job.id, STATE_RUNNING)
    queue.close()

    reopened = JobQueue(path)
    job = reopened.get(job.id)
    assert job.state == STATE_RUNNING and job.priority == 7
    assert [j.id for j in reopened.unfinished_jobs()] == [job.id]
    # Crash-recovery requeue arms --resume.
    requeued = reopened.set_state(job.id, STATE_QUEUED, resume=True)
    assert requeued.state == STATE_QUEUED and requeued.resume


def test_fair_share_interleaves_tenants_by_weighted_vtime(tmp_path):
    queue = JobQueue(str(tmp_path / "q.db"))
    queue.ensure_tenant("heavy", weight=2.0)
    queue.ensure_tenant("light", weight=1.0)
    for i in range(4):
        queue.submit("heavy", f"h{i}", 1)
        queue.submit("light", f"l{i}", 1)

    order = []
    for _ in range(8):
        job = queue.claim_next()
        order.append(job.tenant)
        queue.set_state(job.id, STATE_RUNNING)
        queue.set_state(job.id, STATE_DONE)
        # Every job costs the same wall time; weight-2 pays half vtime.
        queue.charge(job.tenant, 10.0, finished=True)
    # heavy (weight 2) gets twice the service of light under contention:
    # after both have run once, heavy runs twice per light turn.
    assert order.count("heavy") == 4 and order.count("light") == 4
    assert order[:3] in (["heavy", "light", "heavy"],
                         ["light", "heavy", "heavy"])
    heavy = [t for t in queue.tenants() if t["name"] == "heavy"][0]
    light = [t for t in queue.tenants() if t["name"] == "light"][0]
    assert heavy["vtime"] == pytest.approx(light["vtime"] / 2 * 1)
    assert heavy["busy_seconds"] == light["busy_seconds"] == 40.0


def test_priority_orders_within_a_tenant(tmp_path):
    queue = JobQueue(str(tmp_path / "q.db"))
    low = queue.submit("a", "low", 1, priority=0)
    high = queue.submit("a", "high", 1, priority=5)
    assert queue.claim_next().id == high.id
    assert queue.claim_next().id == low.id


def test_idle_tenant_vtime_is_clamped_at_submit(tmp_path):
    queue = JobQueue(str(tmp_path / "q.db"))
    queue.submit("busy", "b0", 1)
    queue.charge("busy", 100.0, finished=True)     # vtime 100
    # A brand-new tenant submitting now must not get 100s of back-credit:
    # its vtime is clamped up to the smallest *active* vtime.
    queue.submit("newcomer", "n0", 1)
    vtimes = {t["name"]: t["vtime"] for t in queue.tenants()}
    assert vtimes["newcomer"] == pytest.approx(100.0)


def test_cancel_semantics_per_state(tmp_path):
    queue = JobQueue(str(tmp_path / "q.db"))
    queued = queue.submit("a", "c1", 1)
    cancelled = queue.request_cancel(queued.id)
    assert cancelled.state == STATE_CANCELLED
    # Running jobs are only *flagged*; the dispatcher cancels their
    # unfinished units.
    running = queue.submit("a", "c2", 1)
    queue.claim_next()
    queue.set_state(running.id, STATE_RUNNING)
    flagged = queue.request_cancel(running.id)
    assert flagged.state == STATE_RUNNING and flagged.cancel_requested
    # Terminal jobs refuse.
    queue.set_state(running.id, STATE_CANCELLED)
    with pytest.raises(ValueError, match="already CANCELLED"):
        queue.request_cancel(running.id)


# ----------------------------------------------------------------------
# ArtifactStore: staging, dedup, LRU eviction
# ----------------------------------------------------------------------
def test_stage_trace_dir_dedups_across_tenants(tmp_path):
    src_a = str(tmp_path / "ta")
    src_b = str(tmp_path / "tb")
    write_synthetic_lu_trace(src_a, 4, 2, cls="S", inorm=1)
    write_synthetic_lu_trace(src_b, 4, 2, cls="S", inorm=1)

    store = ArtifactStore(str(tmp_path / "store"))
    staged_a, hit_a = store.stage_trace_dir(src_a, tenant="alice")
    staged_b, hit_b = store.stage_trace_dir(src_b, tenant="bob")
    # Byte-identical trees share one staged copy (and its warm .tic set).
    assert staged_a == staged_b
    assert (hit_a, hit_b) == (False, True)
    assert store.counters["alice"]["stage_misses"] == 1
    assert store.counters["bob"]["stage_hits"] == 1
    assert len(os.listdir(store.traces_dir)) == 1


def test_concurrent_stagers_race_to_one_tree(tmp_path):
    src = str(tmp_path / "trace")
    write_synthetic_lu_trace(src, 4, 2, cls="S", inorm=1)
    root = str(tmp_path / "store")

    def stage(out):
        store = ArtifactStore(root)
        path, _hit = store.stage_trace_dir(src)
        with open(out, "w") as handle:
            handle.write(path)

    ctx = multiprocessing.get_context("fork")
    outs = [str(tmp_path / f"out{i}") for i in range(4)]
    procs = [ctx.Process(target=stage, args=(out,)) for out in outs]
    for p in procs:
        p.start()
    for p in procs:
        p.join(30)
        assert p.exitcode == 0
    paths = {open(out).read() for out in outs}
    assert len(paths) == 1
    store = ArtifactStore(root)
    published = [n for n in os.listdir(store.traces_dir)
                 if not n.startswith(".tmp-")]
    assert published == [os.path.basename(paths.pop())]
    # No leftover temp copies from the losing racers.
    assert not [n for n in os.listdir(store.traces_dir)
                if n.startswith(".tmp-")]


def test_lru_eviction_is_by_recency_and_respects_protect(tmp_path):
    store = ArtifactStore(str(tmp_path / "store"))    # fill unbounded...
    now = time.time()
    for i, name in enumerate(["old", "mid", "new"]):
        path = store.results.put(f"{name}{'0' * 60}", {"i": i})
        os.utime(path, (now - 100 + i, now - 100 + i))
    src = str(tmp_path / "trace")
    write_synthetic_lu_trace(src, 2, 1, cls="S", inorm=1)
    staged, _hit = store.stage_trace_dir(src)
    digest = os.path.basename(staged)
    os.utime(staged, (now - 200, now - 200))       # oldest of all
    store.max_bytes = 1                            # ...then bound it

    evicted = store.evict(protect=[digest])
    # Everything evictable goes (max_bytes=1), oldest first — but the
    # protected trace tree survives despite being least recently used.
    assert [e["name"][:3] for e in evicted] == ["old", "mid", "new"]
    assert os.path.isdir(staged)
    assert store.evictions == 3
    usage = store.usage()
    assert usage["result_records"] == 0 and usage["trace_trees"] == 1

    # Unprotected, the tree is fair game too.
    assert store.evict()[0]["name"] == digest
    assert not os.path.isdir(staged)


def test_result_hit_refreshes_lru_position(tmp_path):
    store = ArtifactStore(str(tmp_path / "store"), max_bytes=1)
    old = store.results.put("a" * 64, {"v": 1})
    new = store.results.put("b" * 64, {"v": 2})
    past = time.time() - 1000
    os.utime(old, (past, past))
    os.utime(new, (past + 1, past + 1))
    # A cache hit bumps the record's mtime: "a" becomes the fresh one...
    assert store.get_result("a" * 64) == {"v": 1}
    # ...so eviction takes "b" first.
    evicted = store.evict()
    assert [e["name"] for e in evicted] == ["b" * 64, "a" * 64]


# ----------------------------------------------------------------------
# Supervisor driven inline (no HTTP): staging + shared store
# ----------------------------------------------------------------------
def tick_until(supervisor, predicate, timeout_s=30.0):
    deadline = time.monotonic() + timeout_s
    while True:
        supervisor.tick()
        value = predicate()
        if value:
            return value
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.05)


def drive(supervisor, job_id, timeout_s=90.0):
    tick_until(supervisor, lambda: supervisor.queue.get(job_id).terminal,
               timeout_s)
    return supervisor.queue.get(job_id)


def test_supervisor_runs_dir_trace_jobs_with_shared_staging(tmp_path):
    trace_dir = str(tmp_path / "trace")
    write_synthetic_lu_trace(trace_dir, 4, 2, cls="S", inorm=1)
    spec_doc = {
        "name": "dircamp", "jobs": 1,
        "scenarios": [{"name": "d", "ranks": 4,
                       "trace": {"kind": "dir", "path": trace_dir},
                       "platform": {"name": "bordereau", "hosts": 8},
                       "calibration": {"kind": "fixed", "speed": 2e9}}],
    }
    supervisor = Supervisor(str(tmp_path / "root"), max_jobs=1)
    try:
        first = drive(supervisor, supervisor.submit(
            spec_doc, tenant="alice").id)
        assert first.state == STATE_DONE, first.error
        # The job ran against the *staged* copy, not the submitted path.
        with open(os.path.join(supervisor.job_dir(first.id),
                               "spec.json")) as handle:
            staged_path = json.load(handle)["scenarios"][0]["trace"]["path"]
        assert staged_path.startswith(supervisor.store.traces_dir)
        # ...which now holds warm .tic sidecars for the next tenant.
        assert any(name.endswith(".tic") for name in
                   os.listdir(staged_path))

        second = drive(supervisor, supervisor.submit(
            spec_doc, tenant="bob").id)
        assert second.state == STATE_DONE, second.error
        assert second.metrics["cached_hits"] == 1
        assert second.metrics["replays_executed"] == 0
        tenants = {t["name"]: t for t in supervisor.queue.tenants()}
        assert tenants["alice"]["stage_misses"] == 1
        assert tenants["alice"]["result_misses"] == 1
        assert tenants["bob"]["stage_hits"] == 1
        assert tenants["bob"]["result_hits"] == 1
    finally:
        supervisor.shutdown()


def test_supervisor_rejects_bad_spec_at_submit(tmp_path):
    supervisor = Supervisor(str(tmp_path / "root"))
    try:
        with pytest.raises(ValueError, match="name"):
            supervisor.submit({"scenarios": []})
        with pytest.raises(ValueError):
            supervisor.submit({"name": "x", "scenarios": [
                {"name": "bad", "ranks": 2,
                 "trace": {"kind": "nope"}}]})
    finally:
        supervisor.shutdown()


def test_recover_never_signals_a_pid_an_older_server_recorded(tmp_path):
    # A root written by a server that kept a runner PID per RUNNING job,
    # adopted after a reboot: the PID now belongs to an unrelated process.
    helper = subprocess.Popen(["sleep", "30"])
    root = str(tmp_path / "root")
    try:
        old = Supervisor(root)
        job = old.submit(sleepy_spec_doc(n=1))
        old.queue.claim_next()
        old.queue.set_state(job.id, STATE_RUNNING)
        old.queue.close()
        db = sqlite3.connect(os.path.join(root, "queue.db"))
        if "pid" not in {row[1] for row in
                         db.execute("PRAGMA table_info(jobs)")}:
            db.execute("ALTER TABLE jobs ADD COLUMN pid INTEGER")
        db.execute("UPDATE jobs SET pid = ? WHERE id = ?",
                   (helper.pid, job.id))
        db.commit()
        db.close()

        restarted = Supervisor(root)
        try:
            restarted.recover()
            assert helper.poll() is None, "recover() signalled a stranger"
            adopted = restarted.queue.get(job.id)
            assert adopted.state == STATE_QUEUED and adopted.resume
        finally:
            restarted.shutdown()
    finally:
        helper.kill()
        helper.wait()


# ----------------------------------------------------------------------
# The local slots: the server's own in-process worker
# ----------------------------------------------------------------------
@pytest.mark.skipif(
    not os.path.exists(f"/proc/{os.getpid()}/task/{os.getpid()}/children"),
    reason="needs /proc/<pid>/task/<tid>/children")
def test_a_local_unit_is_one_child_with_no_children_of_its_own(tmp_path):
    from tests.test_worker import _children

    me = os.getpid()
    before = set(_children(me))
    seen = set()
    supervisor = Supervisor(str(tmp_path / "root"), max_jobs=1)
    try:
        job = supervisor.submit(sleepy_spec_doc(n=2, seconds=0.4))

        def snapshot():
            mine = set(_children(me)) - before
            assert len(mine) <= 1
            assert [_children(pid) for pid in mine] == [[]] * len(mine)
            seen.update(mine)
            return supervisor.queue.get(job.id).terminal

        tick_until(supervisor, snapshot)
        assert supervisor.queue.get(job.id).state == STATE_DONE
        assert len(seen) == 2       # one child per executed unit
    finally:
        supervisor.shutdown()


def test_cancelled_unit_stops_its_local_child_within_one_tick(tmp_path):
    ran = tmp_path / "ran"
    spec_doc = {"name": "doomed", "scenarios": [{
        "name": "d", "ranks": 2,
        "trace": {"kind": "fail", "stage_wait_s": 1.0,
                  "state_path": str(ran)},
        "platform": {"name": "bordereau", "hosts": 4},
        "calibration": {"kind": "fixed", "speed": 2e9}}]}
    supervisor = Supervisor(str(tmp_path / "root"), max_jobs=1)
    try:
        job = supervisor.submit(spec_doc)
        supervisor.tick()           # claim, fan out, lease, start
        [unit] = supervisor.queue.units_for_job(job.id)
        assert unit.state == UNIT_LEASED
        assert unit.leases[0]["worker"] == "local"
        assert len(multiprocessing.active_children()) == 1

        supervisor.queue.cancel_units(job.id)
        supervisor.tick()
        assert multiprocessing.active_children() == []
        assert supervisor.queue.get(job.id).state == STATE_CANCELLED
        assert CampaignStore(supervisor.campaign_dir(job.id)).read_run(
            "d") is None
        # Nothing is left to finish the scenario once its wait is over.
        time.sleep(1.5)
        assert not ran.exists()
    finally:
        supervisor.shutdown()


def test_local_unit_past_timeout_is_requeued_under_the_unit_policy(
        tmp_path):
    spec_doc = sleepy_spec_doc("hung", n=1, seconds=5.0)
    spec_doc["base"].update(timeout_s=0.3, max_retries=0)
    supervisor = Supervisor(str(tmp_path / "root"), max_jobs=1)
    try:
        job = supervisor.submit(spec_doc)
        t0 = time.monotonic()
        unit = tick_until(supervisor, lambda: [
            u for u in supervisor.queue.units_for_job(job.id)
            if u.retry_history])[0]
        assert time.monotonic() - t0 < 2.0
        assert multiprocessing.active_children() == []
        [entry] = unit.retry_history
        assert entry["status"] == "timeout" and entry["worker"] == "local"
        # Requeued with backoff, not quarantined: max(3, 0 + 1) attempts.
        assert unit.state == UNIT_PENDING
        assert (unit.attempts, unit.max_attempts) == (1, 3)
        assert entry["backoff_s"] == pytest.approx(0.5)
        assert supervisor.queue.get(job.id).state == STATE_RUNNING
    finally:
        supervisor.shutdown()


@pytest.mark.parametrize("dispatch", ["local", "workers"])
def test_running_jobs_is_the_queue_running_count(tmp_path, dispatch):
    supervisor = Supervisor(str(tmp_path / "root"), max_jobs=2,
                            dispatch=dispatch)
    try:
        for i in range(3):
            supervisor.submit(sleepy_spec_doc(f"s{i}", n=1, seconds=5.0))
        supervisor.tick()
        running = len(supervisor.queue.list_jobs(state=STATE_RUNNING))
        assert running == 2
        _status, health = ServiceServer(supervisor)._route(
            "GET", "/v1/health", {}, {})
        assert health["running_jobs"] == running
        assert supervisor.metrics_doc()["running_jobs"] == running
        # Only local dispatch runs units in the server itself.
        assert len(multiprocessing.active_children()) == \
            (2 if dispatch == "local" else 0)
    finally:
        supervisor.shutdown()
    assert multiprocessing.active_children() == []


def test_running_jobs_progress_side_by_side_each_as_wide_as_its_spec(
        tmp_path):
    supervisor = Supervisor(str(tmp_path / "root"), max_jobs=2)
    try:
        big_doc = sleepy_spec_doc("big", n=8, seconds=0.5)
        big_doc["jobs"] = 2
        big = supervisor.submit(big_doc, tenant="a")
        small = supervisor.submit(sleepy_spec_doc("small", n=2, seconds=0.5),
                                  tenant="b")
        supervisor.tick()
        leased = {job.id: sum(u.state == UNIT_LEASED for u in
                              supervisor.queue.units_for_job(job.id))
                  for job in (big, small)}
        assert leased == {big.id: 2, small.id: 1}
        assert len(multiprocessing.active_children()) == 3
        # The small job does not wait behind the big one's units.
        tick_until(supervisor,
                   lambda: supervisor.queue.get(small.id).terminal)
        assert supervisor.queue.get(small.id).state == STATE_DONE
        assert supervisor.queue.get(big.id).state == STATE_RUNNING
    finally:
        supervisor.shutdown()


def test_stopping_the_server_mid_unit_never_spends_an_attempt(tmp_path):
    # Three stops with the same unit in flight, two graceful and one
    # crash, would use up its max(3, 0 + 1) attempts if a hand-back
    # counted, and the job would end FAILED.
    root = str(tmp_path / "root")
    job_id = None
    for stop in ("graceful", "graceful", "crash"):
        supervisor = Supervisor(root, max_jobs=1)
        supervisor.recover()
        if job_id is None:
            job_id = supervisor.submit(sleepy_spec_doc(n=1, seconds=1.0)).id
        [unit] = tick_until(supervisor, lambda: [
            u for u in supervisor.queue.units_for_job(job_id)
            if u.state == UNIT_LEASED])
        assert unit.attempts == 1
        if stop == "graceful":
            supervisor.shutdown()
        else:   # the server dies: its child goes, its lease stays behind
            for child in multiprocessing.active_children():
                child.terminate()
                child.join()
            supervisor.queue.close()

    supervisor = Supervisor(root, max_jobs=1)
    try:
        supervisor.recover()
        assert drive(supervisor, job_id).state == STATE_DONE
        [unit] = supervisor.queue.units_for_job(job_id)
        assert unit.attempts == 1 and unit.retry_history == []
    finally:
        supervisor.shutdown()


# ----------------------------------------------------------------------
# The HTTP service end-to-end (real server process, real client)
# ----------------------------------------------------------------------
class ServerProc:
    """A repro-service subprocess on an ephemeral port."""

    def __init__(self, root, extra_args=()):
        self.root = str(root)
        self.extra_args = list(extra_args)
        self.log_path = self.root + ".server.log"
        self.proc = None
        self.port = None

    def start(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = REPO_SRC + os.pathsep + \
            env.get("PYTHONPATH", "")
        # Logs go to a file (not a pipe): nobody drains the pipe during
        # the test, and a full pipe buffer would block the server.
        log = open(self.log_path, "w")
        try:
            self.proc = subprocess.Popen(
                [sys.executable, "-u", "-m", "repro.service.cli",
                 "--root", self.root, "--port", "0", "--tick-s", "0.05",
                 *self.extra_args],
                stdout=log, stderr=subprocess.STDOUT, env=env)
        finally:
            log.close()
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            try:
                with open(self.log_path) as handle:
                    match = re.search(r"listening on http://[^:]+:(\d+)",
                                      handle.read())
            except OSError:
                match = None
            if match:
                self.port = int(match.group(1))
                return self
            if self.proc.poll() is not None:
                with open(self.log_path) as handle:
                    raise AssertionError(
                        f"server died at startup:\n{handle.read()}")
            time.sleep(0.05)
        raise AssertionError("server never reported its port")

    @property
    def url(self):
        return f"http://127.0.0.1:{self.port}"

    def sigterm(self, timeout_s=30):
        self.proc.send_signal(signal.SIGTERM)
        self.proc.communicate(timeout=timeout_s)

    def stop(self):
        if self.proc and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.communicate()


@pytest.fixture
def server(tmp_path):
    proc = ServerProc(tmp_path / "root").start()
    yield proc
    proc.stop()


def test_http_round_trip_matches_local_run_and_caches(tmp_path, server):
    client = ServiceClient(server.url)
    assert client.health()["ok"]

    spec_doc = small_spec_doc()
    job = client.submit(spec_doc, tenant="alice")
    events = []
    done = client.wait(job["id"], timeout_s=120, poll_s=0.1,
                       on_event=events.append)
    assert done["state"] == STATE_DONE
    scenario_events = [e for e in events if e["event"] == "scenario"]
    assert sorted(e["name"] for e in scenario_events) == \
        ["svc-2", "svc-4"]
    assert all(e["status"] == "ok" for e in scenario_events)

    # The service's records ARE repro-campaign run's records: same cache
    # keys, same simulated outcome (host wall-clock fields aside).
    results = client.results(job["id"])
    local = run_campaign(CampaignSpec.from_dict(spec_doc),
                         str(tmp_path / "local"), log=None)
    by_name = {r["scenario"]["name"]: r for r in results["records"]}
    for name, local_rec in local.records.items():
        remote = by_name[name]
        assert remote["cache_key"] == local_rec.cache_key
        assert remote["result"]["simulated_time"] == pytest.approx(
            local_rec.result["simulated_time"])
        assert remote["result"]["n_actions"] == \
            local_rec.result["n_actions"]
        assert remote["scenario"] == local_rec.scenario

    # Resubmission by another tenant: 100% cache hits, zero replays.
    job2 = client.submit(spec_doc, tenant="bob")
    done2 = client.wait(job2["id"], timeout_s=60, poll_s=0.1)
    assert done2["state"] == STATE_DONE
    assert done2["metrics"]["cached_hits"] == 2
    assert done2["metrics"]["replays_executed"] == 0

    metrics = client.metrics()
    tenants = {t["name"]: t for t in metrics["tenants"]}
    assert tenants["alice"]["result_misses"] == 2
    assert tenants["bob"]["result_hits"] == 2
    assert metrics["jobs_by_state"][STATE_DONE] == 2

    # Error taxonomy: unknown job is 404, bad spec 400, cancel-done 409.
    with pytest.raises(ServiceError) as exc:
        client.job("nope")
    assert exc.value.status == 404
    with pytest.raises(ServiceError) as exc:
        client.submit({"scenarios": []})
    assert exc.value.status == 400
    with pytest.raises(ServiceError) as exc:
        client.cancel(job["id"])
    assert exc.value.status == 409


def test_http_cancel_queued_and_running(server):
    client = ServiceClient(server.url)
    # One slot (--max-jobs default 2): occupy both with slow jobs so the
    # third stays QUEUED long enough to cancel.
    slow = sleepy_spec_doc(n=2, seconds=2.0)
    running = [client.submit(sleepy_spec_doc(f"slow{i}", n=2, seconds=2.0))
               for i in range(2)]
    queued = client.submit(sleepy_spec_doc("slow-q", n=2, seconds=2.0))
    cancelled = client.cancel(queued["id"])
    assert cancelled["state"] == STATE_CANCELLED
    assert client.job(queued["id"])["state"] == STATE_CANCELLED

    # Cancelling a running job stops its in-flight units: terminal
    # state CANCELLED, nothing recorded for what was stopped.
    target = running[0]["id"]
    deadline = time.monotonic() + 60
    while client.job(target)["state"] != STATE_RUNNING:
        assert time.monotonic() < deadline
        time.sleep(0.1)
    client.cancel(target)
    done = client.wait(target, timeout_s=60, poll_s=0.1)
    assert done["state"] == STATE_CANCELLED
    assert "cancelled" in done["error"]
    # The other running job is untouched.
    other = client.wait(running[1]["id"], timeout_s=60, poll_s=0.1)
    assert other["state"] == STATE_DONE
    del slow


def test_server_restart_resumes_running_job_to_done(tmp_path):
    first = ServerProc(tmp_path / "root", ["--max-jobs", "1"]).start()
    try:
        client = ServiceClient(first.url)
        job = client.submit(sleepy_spec_doc(n=3, seconds=1.2))
        # Wait for the first scenario to land, then stop the server.
        deadline = time.monotonic() + 60
        while True:
            doc = client.job(job["id"])
            if doc["progress"]["scenarios_done"] >= 1:
                break
            assert time.monotonic() < deadline
            time.sleep(0.1)
        first.sigterm()
        # The units table is the durable state: the job stays RUNNING,
        # and the unit in flight was handed back, not left LEASED.
        queue = JobQueue(str(tmp_path / "root" / "queue.db"))
        assert queue.get(job["id"]).state == STATE_RUNNING
        units = queue.units_for_job(job["id"])
        queue.close()
        assert len(units) == 3
        assert UNIT_LEASED not in {u.state for u in units}
        done_before = {u.name for u in units if u.state == UNIT_DONE}
        assert done_before
    finally:
        first.stop()

    second = ServerProc(tmp_path / "root", ["--max-jobs", "1"]).start()
    try:
        client = ServiceClient(second.url)
        done = client.wait(job["id"], timeout_s=120, poll_s=0.1)
        assert done["state"] == STATE_DONE
        results = client.results(job["id"])
        by_name = {r["scenario"]["name"]: r for r in results["records"]}
        assert len(by_name) == 3
        assert all(r["status"] == "ok" for r in by_name.values())
        # What finished before the stop was not run again, and the unit
        # handed back at the stop did not spend an attempt.
        units = client.job_units(job["id"])
        assert [u["attempts"] for u in units] == [1, 1, 1]
    finally:
        second.stop()


def test_http_reserves_the_local_worker_name(server):
    client = ServiceClient(server.url)
    for call in (lambda: client.register_worker("local"),
                 lambda: client.lease("local")):
        with pytest.raises(ServiceError) as exc:
            call()
        assert exc.value.status == 400
    assert client.register_worker("w1")["name"] == "w1"
    assert client.lease("w1") is None
