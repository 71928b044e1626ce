"""Tests for distributed campaign execution: work-unit leases
(grant / heartbeat / expiry / quarantine), the dispatcher (fan-out,
speculative re-execution, deterministic dedup), artifact shipping by
content digest, the remote worker end-to-end over HTTP, and the chaos
path — SIGKILLed workers, corrupted staged artifacts, and a server
restart mid-campaign — all converging to byte-identical results."""

import io
import json
import os
import signal
import subprocess
import sys
import tarfile
import time

import pytest

from repro.campaign import CampaignSpec, run_campaign
from repro.campaign.cache import canonical_json, digest_tree
from repro.core.compile import compile_source
from repro.core.synth import write_synthetic_lu_trace
from repro.service import (
    STATE_DONE, STATE_RUNNING, UNIT_DONE, UNIT_LEASED, UNIT_PENDING,
    UNIT_QUARANTINED, ArtifactStore, JobQueue, LeaseLostError,
    ServiceClient, ServiceError, Supervisor, deterministic_projection,
)
from repro.service.artifacts import pack_tree_tar, unpack_tree_tar
from repro.service.supervisor import append_event, read_events

from tests.test_service import REPO_SRC, ServerProc

pytestmark = pytest.mark.filterwarnings(
    "ignore::pytest.PytestUnraisableExceptionWarning")


def dir_spec_doc(trace_dir, name="dist", hosts=(8, 16)):
    # The trace has 4 ranks; the sweep axis is the platform size.
    return {
        "name": name, "jobs": 2,
        "base": {"ranks": 4,
                 "trace": {"kind": "dir", "path": str(trace_dir)},
                 "platform": {"name": "bordereau", "hosts": 8},
                 "calibration": {"kind": "fixed", "speed": 2e9}},
        "vary": {"platform.hosts": list(hosts)},
    }


class WorkerProc:
    """A repro-worker subprocess pointed at a live server."""

    def __init__(self, url, root, name, lease_s=5.0, poll_s=0.1):
        self.root = str(root)
        self.name = name
        self.log_path = self.root + ".worker.log"
        env = dict(os.environ)
        env["PYTHONPATH"] = REPO_SRC + os.pathsep + \
            env.get("PYTHONPATH", "")
        log = open(self.log_path, "w")
        try:
            self.proc = subprocess.Popen(
                [sys.executable, "-u", "-m", "repro.service.worker",
                 "--server", url, "--root", self.root, "--name", name,
                 "--lease-s", str(lease_s), "--poll-s", str(poll_s)],
                stdout=log, stderr=subprocess.STDOUT, env=env)
        finally:
            log.close()

    def log(self):
        with open(self.log_path) as handle:
            return handle.read()

    def sigkill(self):
        self.proc.kill()
        self.proc.wait()

    def stop(self):
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


# ----------------------------------------------------------------------
# Event log: torn and corrupt lines (satellite regression)
# ----------------------------------------------------------------------
def test_read_events_tolerates_torn_and_corrupt_lines(tmp_path):
    path = str(tmp_path / "events.jsonl")
    append_event(path, "state", job="j1", state="QUEUED")
    append_event(path, "state", job="j1", state="RUNNING")

    # A reader racing append_event mid-write sees a torn, unterminated
    # final line — possibly cut inside a UTF-8 sequence.  It must get
    # the complete events and a cursor that stays stable.
    with open(path, "ab") as handle:
        handle.write(b'{"t": 1.0, "event": "scenario", "name": "caf\xc3')
    events, cursor = read_events(path)
    assert [e["event"] for e in events] == ["state", "state"]
    assert cursor == 2
    assert read_events(path, after=cursor) == ([], 2)

    # The writer finishes the line (including the second half of the
    # split UTF-8 sequence): the event appears at the same index.
    with open(path, "ab") as handle:
        handle.write(b'\xa9"}\n')
    events, cursor = read_events(path, after=2)
    assert len(events) == 1 and events[0]["name"] == "café"
    assert cursor == 3

    # A *complete but corrupt* line (crash mid-write + later appends) is
    # skipped without hiding the valid events after it.
    with open(path, "ab") as handle:
        handle.write(b"\xff\xfe not json \xff\n")
    append_event(path, "state", job="j1", state="DONE")
    events, cursor = read_events(path)
    assert [e["event"] for e in events] == ["state", "state",
                                           "scenario", "state"]
    assert events[-1]["state"] == "DONE"


# ----------------------------------------------------------------------
# Lease lifecycle invariants (queue-level)
# ----------------------------------------------------------------------
def test_lease_grant_heartbeat_and_late_heartbeat(tmp_path):
    queue = JobQueue(str(tmp_path / "q.db"))
    job = queue.submit("t", "c", 1)
    unit = queue.create_unit(job.id, 0, "s0", {"name": "s0"},
                             cache_key="k0")
    grant = queue.lease_unit("w1", 5.0)
    assert grant["unit"].id == unit.id and not grant["speculative"]
    assert queue.get_unit(unit.id).state == UNIT_LEASED

    deadline = queue.heartbeat_unit(unit.id, "w1", grant["token"], 5.0)
    assert deadline > time.time()
    # Wrong token, wrong worker: both are late/stale heartbeats -> 409.
    for worker, token in (("w1", "bogus"), ("w2", grant["token"])):
        with pytest.raises(LeaseLostError):
            queue.heartbeat_unit(unit.id, worker, token, 5.0)
    assert queue.dispatch_counters()["late_heartbeats_rejected"] == 2


def test_lease_expiry_is_idempotent_and_requeues_without_backoff(
        tmp_path):
    queue = JobQueue(str(tmp_path / "q.db"))
    job = queue.submit("t", "c", 1)
    unit = queue.create_unit(job.id, 0, "s0", {"name": "s0"},
                             backoff_s=5.0)
    grant = queue.lease_unit("w1", 0.01)
    time.sleep(0.03)
    now = time.time()
    events = queue.expire_leases(now)
    assert len(events) == 1 and events[0]["worker"] == "w1" \
        and events[0]["requeued"]
    # Racing sweeps at the same instant find nothing to do.
    assert queue.expire_leases(now) == []
    assert queue.expire_leases() == []
    requeued = queue.get_unit(unit.id)
    assert requeued.state == UNIT_PENDING and requeued.attempts == 1
    # Worker death is not the unit's fault: no backoff, leasable now.
    assert requeued.ready_at <= now
    assert requeued.retry_history[-1]["status"] == "lease_expired"
    assert requeued.retry_history[-1]["backoff_s"] == 0.0
    counters = queue.dispatch_counters()
    assert counters["leases_expired"] == 1
    assert counters["units_requeued"] == 1

    # A heartbeat from the expired holder is late -> LeaseLostError.
    with pytest.raises(LeaseLostError):
        queue.heartbeat_unit(unit.id, "w1", grant["token"], 5.0)


def test_failure_backoff_grows_then_quarantines(tmp_path):
    queue = JobQueue(str(tmp_path / "q.db"))
    job = queue.submit("t", "c", 1)
    unit = queue.create_unit(job.id, 0, "s0", {"name": "s0"},
                             max_attempts=3, backoff_s=0.2)
    backoffs = []
    for attempt in range(3):
        now = time.time()
        grant = queue.lease_unit("w1", 5.0, now=now)
        assert grant is not None, f"attempt {attempt}: nothing leasable"
        failed = queue.fail_unit(unit.id, "w1", grant["token"],
                                 error="E: boom", now=now)
        if failed.state == UNIT_PENDING:
            backoffs.append(failed.ready_at - now)
            # Make the unit leasable again without waiting wall-clock.
            queue._update_unit(failed, ready_at=now)
    assert backoffs == pytest.approx([0.2, 0.4])    # exponential
    final = queue.get_unit(unit.id)
    assert final.state == UNIT_QUARANTINED and final.attempts == 3
    assert "boom" in final.error
    assert [h["status"] for h in final.retry_history] == ["failed"] * 3
    assert queue.dispatch_counters()["units_quarantined"] == 1
    # Quarantined units are poison: nothing further to lease.
    assert queue.lease_unit("w1", 5.0) is None


def test_speculative_lease_first_result_wins_and_late_discarded(
        tmp_path):
    queue = JobQueue(str(tmp_path / "q.db"))
    job = queue.submit("t", "c", 1)
    unit = queue.create_unit(job.id, 0, "s0", {"name": "s0"})
    first = queue.lease_unit("slow", 30.0)
    # Not eligible yet: no second lease, not even for another worker.
    assert queue.lease_unit("fast", 30.0) is None
    queue.mark_speculative_eligible(unit.id)
    # The straggler's own worker never gets the twin.
    assert queue.lease_unit("slow", 30.0) is None
    twin = queue.lease_unit("fast", 30.0)
    assert twin["unit"].id == unit.id and twin["speculative"]

    done = queue.complete_unit(unit.id, "fast", twin["token"],
                               duration=0.5)
    assert [l["worker"] for l in done["superseded"]] == ["slow"]
    assert queue.get_unit(unit.id).winner == "fast"
    # The superseded worker's result arrives late: discarded + counted.
    with pytest.raises(LeaseLostError):
        queue.complete_unit(unit.id, "slow", first["token"],
                            duration=9.0)
    counters = queue.dispatch_counters()
    assert counters["speculative_leases"] == 1
    assert counters["speculative_wins"] == 1
    assert counters["late_results_discarded"] == 1


def test_retry_history_tags_resumed_and_speculative(tmp_path):
    queue = JobQueue(str(tmp_path / "q.db"))
    job = queue.submit("t", "c", 1)
    unit = queue.create_unit(job.id, 0, "s0", {"name": "s0"},
                             max_attempts=5)
    queue.lease_unit("w1", 0.01)
    time.sleep(0.03)
    # The crash-recovery sweep tags its expiries as resumed.
    events = queue.expire_leases(resumed=True)
    assert events[0]["resumed"]
    assert queue.get_unit(unit.id).retry_history[-1]["resumed"] is True

    grant = queue.lease_unit("w1", 30.0)
    queue.mark_speculative_eligible(unit.id)
    twin = queue.lease_unit("w2", 30.0)
    # The *speculative* attempt fails; its history entry says so.
    queue.fail_unit(unit.id, "w2", twin["token"], error="E: spec boom")
    history = queue.get_unit(unit.id).retry_history
    assert history[-1]["speculative"] is True
    assert history[-1]["worker"] == "w2"
    # The original lease survives its twin's failure.
    assert queue.get_unit(unit.id).state == UNIT_LEASED
    queue.complete_unit(unit.id, "w1", grant["token"], duration=0.1)
    assert queue.get_unit(unit.id).winner == "w1"
    del job


# ----------------------------------------------------------------------
# Artifact shipping: tar round trip, verification, safety
# ----------------------------------------------------------------------
def test_trace_tar_round_trip_is_content_addressed(tmp_path):
    src = str(tmp_path / "trace")
    write_synthetic_lu_trace(src, 4, 2, cls="S", inorm=1)
    digest = digest_tree(src)
    data = pack_tree_tar(src)
    dst = str(tmp_path / "copy")
    unpack_tree_tar(data, dst)
    assert digest_tree(dst) == digest
    # Packing is deterministic (sorted members): same bytes both times.
    assert pack_tree_tar(dst) == data


def test_sidecars_grown_in_the_store_never_ship(tmp_path):
    src = str(tmp_path / "trace")
    write_synthetic_lu_trace(src, 4, 2, cls="S", inorm=1)
    store = ArtifactStore(str(tmp_path / "store"))
    staged, _hit = store.stage_trace_dir(src)
    digest = digest_tree(src)
    cold = store.export_trace_tar(digest)
    compile_source(staged)      # what the server's own replays leave
    assert any(name.endswith(".tic") for name in os.listdir(staged))
    data = store.export_trace_tar(digest)
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        names = tar.getnames()
    assert names and not [name for name in names if name.endswith(".tic")]
    assert data == cold


def test_import_trace_tar_refuses_corrupt_bytes(tmp_path):
    src = str(tmp_path / "trace")
    write_synthetic_lu_trace(src, 2, 1, cls="S", inorm=1)
    store = ArtifactStore(str(tmp_path / "store"))
    data = pack_tree_tar(src)
    with pytest.raises(ValueError, match="refusing corrupt"):
        store.import_trace_tar(data, "0" * 64)
    assert not os.path.isdir(store.trace_path("0" * 64))
    # The honest digest is accepted; a re-push is a hit.
    digest = digest_tree(src)
    _path, hit = store.import_trace_tar(data, digest)
    assert not hit
    _path, hit = store.import_trace_tar(data, digest)
    assert hit


def test_unpack_refuses_traversal_and_specials(tmp_path):
    for name in ("/etc/evil", "../escape", "a/../../b"):
        buf = io.BytesIO()
        with tarfile.open(fileobj=buf, mode="w") as tar:
            info = tarfile.TarInfo(name)
            info.size = 0
            tar.addfile(info, io.BytesIO(b""))
        with pytest.raises(ValueError, match="unsafe tar member"):
            unpack_tree_tar(buf.getvalue(), str(tmp_path / "out"))
    buf = io.BytesIO()
    with tarfile.open(fileobj=buf, mode="w") as tar:
        info = tarfile.TarInfo("link")
        info.type = tarfile.SYMTYPE
        info.linkname = "/etc/passwd"
        tar.addfile(info)
    with pytest.raises(ValueError, match="unsupported tar member"):
        unpack_tree_tar(buf.getvalue(), str(tmp_path / "out"))


# ----------------------------------------------------------------------
# Dispatcher inline (no HTTP): fan-out, pinning, speculation, dedup
# ----------------------------------------------------------------------
def wait_units(supervisor, job_id, timeout_s=30.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        supervisor.tick()
        units = supervisor.queue.units_for_job(job_id)
        if units:
            return units
        job = supervisor.queue.get(job_id)
        if job.terminal:
            raise AssertionError(
                f"job went {job.state} without units: {job.error}")
        time.sleep(0.02)
    raise AssertionError("units never appeared")


def local_payloads(spec_doc, out_dir):
    """Run the campaign locally; payloads by scenario name."""
    result = run_campaign(CampaignSpec.from_dict(spec_doc),
                          str(out_dir), log=None)
    return {name: rec.result for name, rec in result.records.items()}


def test_dispatch_pins_leased_digests_against_eviction(tmp_path):
    trace_dir = str(tmp_path / "trace")
    write_synthetic_lu_trace(trace_dir, 4, 2, cls="S", inorm=1)
    spec_doc = dir_spec_doc(trace_dir, hosts=(8,))
    supervisor = Supervisor(str(tmp_path / "root"), max_jobs=1,
                            dispatch="workers")
    try:
        job = supervisor.submit(spec_doc, tenant="alice")
        units = wait_units(supervisor, job.id)
        digest = digest_tree(trace_dir)
        assert units[0].digests == [digest]
        # PENDING and LEASED units both pin their trace trees.
        assert digest in supervisor.protected_digests()
        grant = supervisor.queue.lease_unit("w1", 30.0)
        assert digest in supervisor.protected_digests()

        # Bound the store to nothing: everything evictable must go,
        # except the tree a live unit still needs.
        supervisor.store.max_bytes = 1
        evicted = supervisor.store.evict(
            protect=supervisor.protected_digests())
        assert digest not in [e["name"] for e in evicted]
        assert os.path.isdir(supervisor.store.trace_path(digest))

        # Once the unit completes and the job settles, the pin is gone.
        payloads = local_payloads(spec_doc, tmp_path / "local")
        supervisor.dispatcher.on_result(
            units[0].id, "w1", grant["token"],
            {"status": "ok", "result": payloads[units[0].name],
             "wall_seconds": 0.1})
        assert digest not in supervisor.protected_digests()
        assert supervisor.queue.get(job.id).state == STATE_DONE
    finally:
        supervisor.shutdown()


def test_straggler_is_respeculated_and_first_result_wins(tmp_path):
    trace_dir = str(tmp_path / "trace")
    write_synthetic_lu_trace(trace_dir, 4, 2, cls="S", inorm=1)
    spec_doc = dir_spec_doc(trace_dir)
    supervisor = Supervisor(str(tmp_path / "root"), max_jobs=1,
                            dispatch="workers")
    dispatcher = supervisor.dispatcher
    dispatcher.straggler_factor = 1.0
    dispatcher.straggler_min_s = 0.05
    dispatcher.straggler_min_samples = 1
    try:
        job = supervisor.submit(spec_doc, tenant="alice")
        units = {u.name: u for u in wait_units(supervisor, job.id)}
        payloads = local_payloads(spec_doc, tmp_path / "local")

        # One unit completes fast: that seeds the tenant p95.
        fast = supervisor.queue.lease_unit("fast-worker", 30.0)
        dispatcher.on_result(
            fast["unit"].id, "fast-worker", fast["token"],
            {"status": "ok", "result": payloads[fast["unit"].name],
             "wall_seconds": 0.01})

        # The other is leased and... nothing.  Past the threshold the
        # tick marks it speculative-eligible.
        slow = supervisor.queue.lease_unit("slow-worker", 30.0)
        time.sleep(0.12)
        dispatcher.tick()
        twin = supervisor.queue.lease_unit("spec-worker", 30.0)
        assert twin is not None and twin["speculative"]
        assert twin["unit"].id == slow["unit"].id

        # The twin lands first and wins; the straggler's result is late.
        outcome = dispatcher.on_result(
            twin["unit"].id, "spec-worker", twin["token"],
            {"status": "ok", "result": payloads[twin["unit"].name],
             "wall_seconds": 0.02})
        assert outcome["accepted"] and outcome["speculative_win"]
        with pytest.raises(LeaseLostError):
            dispatcher.on_result(
                slow["unit"].id, "slow-worker", slow["token"],
                {"status": "ok", "result": payloads[slow["unit"].name],
                 "wall_seconds": 9.9})

        final = supervisor.queue.get(job.id)
        assert final.state == STATE_DONE
        assert final.metrics["units"]["DONE"] == 2
        counters = supervisor.queue.dispatch_counters()
        assert counters["speculative_wins"] == 1
        assert counters["late_results_discarded"] == 1
        # Provenance: the straggler event is in the job's event log.
        events, _ = read_events(supervisor.events_path(job.id))
        straggler = [e for e in events
                     if e.get("action") == "straggler"]
        assert straggler and straggler[0]["worker"] == "slow-worker"
        del units
    finally:
        supervisor.shutdown()


def test_duplicate_execution_dedup_checks_determinism(tmp_path):
    trace_dir = str(tmp_path / "trace")
    write_synthetic_lu_trace(trace_dir, 4, 2, cls="S", inorm=1)
    spec_doc = dir_spec_doc(trace_dir, hosts=(8,))
    supervisor = Supervisor(str(tmp_path / "root"), max_jobs=2,
                            dispatch="workers")
    try:
        # Two tenants race the same scenario: both miss the result
        # cache at fan-out, so the cache key is executed twice.
        job_a = supervisor.submit(spec_doc, tenant="alice")
        unit_a = wait_units(supervisor, job_a.id)[0]
        job_b = supervisor.submit(spec_doc, tenant="bob")
        unit_b = wait_units(supervisor, job_b.id)[0]
        assert unit_a.cache_key == unit_b.cache_key
        payload = local_payloads(spec_doc, tmp_path / "local")[
            unit_a.name]

        grant_a = supervisor.queue.lease_unit("w1", 30.0)
        grant_b = supervisor.queue.lease_unit("w2", 30.0)
        supervisor.dispatcher.on_result(
            grant_a["unit"].id, "w1", grant_a["token"],
            {"status": "ok", "result": payload, "wall_seconds": 0.1})
        # Identical replay: projections agree, no mismatch.
        supervisor.dispatcher.on_result(
            grant_b["unit"].id, "w2", grant_b["token"],
            {"status": "ok", "result": dict(payload),
             "wall_seconds": 0.2})
        assert supervisor.queue.dispatch_counters()[
            "dedup_mismatches"] == 0

        # Wall-clock fields may differ freely — they are not projected.
        same_wall = dict(payload)
        same_wall["worker_wall_seconds"] = 123.456
        assert canonical_json(deterministic_projection(payload)) == \
            canonical_json(deterministic_projection(same_wall))

        # A worker disagreeing on the *simulated* outcome is flagged.
        spec2 = dir_spec_doc(trace_dir, name="dist8", hosts=(16,))
        job_c = supervisor.submit(spec2, tenant="carol")
        unit_c = wait_units(supervisor, job_c.id)[0]
        job_d = supervisor.submit(spec2, tenant="dave")
        wait_units(supervisor, job_d.id)
        payload2 = local_payloads(spec2, tmp_path / "local2")[
            unit_c.name]
        grant_c = supervisor.queue.lease_unit("w1", 30.0)
        grant_d = supervisor.queue.lease_unit("w2", 30.0)
        supervisor.dispatcher.on_result(
            grant_c["unit"].id, "w1", grant_c["token"],
            {"status": "ok", "result": payload2, "wall_seconds": 0.1})
        tampered = dict(payload2)
        tampered["simulated_time"] = payload2["simulated_time"] * 2
        supervisor.dispatcher.on_result(
            grant_d["unit"].id, "w2", grant_d["token"],
            {"status": "ok", "result": tampered, "wall_seconds": 0.1})
        assert supervisor.queue.dispatch_counters()[
            "dedup_mismatches"] == 1
    finally:
        supervisor.shutdown()


# ----------------------------------------------------------------------
# The worker over HTTP, end-to-end
# ----------------------------------------------------------------------
@pytest.fixture
def dist_server(tmp_path):
    proc = ServerProc(tmp_path / "sroot",
                      ["--dispatch", "workers"]).start()
    yield proc
    proc.stop()


def test_worker_end_to_end_ships_artifacts_and_matches_local(
        tmp_path, dist_server):
    trace_dir = str(tmp_path / "trace")
    write_synthetic_lu_trace(trace_dir, 4, 2, cls="S", inorm=1)
    spec_doc = dir_spec_doc(trace_dir)
    client = ServiceClient(dist_server.url)

    worker = WorkerProc(dist_server.url, tmp_path / "w1", "w1")
    try:
        job = client.submit(spec_doc, tenant="alice")
        done = client.wait(job["id"], timeout_s=120, poll_s=0.1)
        assert done["state"] == STATE_DONE, done.get("error")
        assert done["metrics"]["distributed"] is True
        assert done["metrics"]["workers"] == ["w1"]

        units = client.job_units(job["id"])
        assert sorted(u["name"] for u in units) == ["dist-16", "dist-8"]
        assert all(u["state"] == UNIT_DONE and u["winner"] == "w1"
                   for u in units)

        # The trace crossed the wire exactly once; the second unit hit
        # the worker's local digest cache.
        counters = client.metrics()["dispatch"]["counters"]
        assert counters["bytes_shipped"] > 0
        assert counters["bytes_saved_by_cache"] > 0
        assert counters["leases_granted"] == 2

        # Distributed records are the local runner's records: same cache
        # keys, same deterministic projection of every result.
        results = client.results(job["id"])
        local = run_campaign(CampaignSpec.from_dict(spec_doc),
                             str(tmp_path / "local"), log=None)
        by_name = {r["scenario"]["name"]: r for r in results["records"]}
        for name, local_rec in local.records.items():
            remote = by_name[name]
            assert remote["cache_key"] == local_rec.cache_key
            assert canonical_json(
                deterministic_projection(remote["result"])) == \
                canonical_json(
                    deterministic_projection(local_rec.result))

        # Resubmission: pure cache, no units fanned out at all.
        job2 = client.submit(spec_doc, tenant="bob")
        done2 = client.wait(job2["id"], timeout_s=60, poll_s=0.1)
        assert done2["state"] == STATE_DONE
        assert done2["metrics"]["cached_hits"] == 2
        assert done2["metrics"]["replays_executed"] == 0
        assert client.job_units(job2["id"]) == []

        # The fleet view answers over HTTP too.
        fleet = client.workers()
        assert [w["name"] for w in fleet] == ["w1"]
        assert fleet[0]["units_done"] == 2
    finally:
        worker.stop()


def test_fleet_status_cli_shows_workers_and_counters(
        tmp_path, dist_server, capsys):
    from repro.campaign.cli import main_campaign

    client = ServiceClient(dist_server.url)
    client.register_worker("cli-worker", info={"pid": 1})
    rc = main_campaign(["status", "--server", dist_server.url,
                        "--workers"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "cli-worker" in out and "idle" in out
    assert "leases_granted" in out and "bytes_shipped" in out


def test_worker_error_taxonomy_over_http(tmp_path, dist_server):
    client = ServiceClient(dist_server.url)
    # Leasing with no work returns None, not an error.
    client.register_worker("w1", info={})
    assert client.lease("w1") is None
    # Unknown unit: 404.  Bad lease fields: 400.  Unknown digest: 404.
    with pytest.raises(ServiceError) as exc:
        client.heartbeat("nope", "w1", "tok")
    assert exc.value.status == 404
    with pytest.raises(ServiceError) as exc:
        client._request("POST", "/v1/lease", {"lease_s": 5.0})
    assert exc.value.status == 400
    with pytest.raises(ServiceError) as exc:
        client.fetch_trace("0" * 64)
    assert exc.value.status == 404
    # Corrupt artifact push: 400, refused.
    src = str(tmp_path / "t")
    write_synthetic_lu_trace(src, 2, 1, cls="S", inorm=1)
    with pytest.raises(ServiceError) as exc:
        client.push_trace("0" * 64, pack_tree_tar(src))
    assert exc.value.status == 400
    # Honest push is accepted and deduplicated.
    digest = digest_tree(src)
    assert client.push_trace(digest, pack_tree_tar(src)) == {
        "digest": digest, "hit": False}
    assert client.push_trace(digest, pack_tree_tar(src))["hit"] is True


# ----------------------------------------------------------------------
# Chaos: SIGKILLed worker, corrupted artifact, server restart
# ----------------------------------------------------------------------
def chaos_spec_doc(trace_dir):
    # The SIGKILLed worker's expired lease spends one attempt of the unit
    # it held; max_retries 2 leaves two more, so one late heartbeat on a
    # loaded host cannot quarantine that unit and fail the job.
    scenarios = [
        {"name": f"sleep-{i}", "ranks": 2, "max_retries": 2,
         "trace": {"kind": "sleep", "seconds": 2.5},
         "platform": {"name": "bordereau", "hosts": 4},
         "calibration": {"kind": "fixed", "speed": 2e9}}
        for i in range(2)
    ] + [
        {"name": f"lu-{hosts}", "ranks": 4, "max_retries": 2,
         "trace": {"kind": "dir", "path": str(trace_dir)},
         "platform": {"name": "bordereau", "hosts": hosts},
         "calibration": {"kind": "fixed", "speed": 2e9}}
        for hosts in (8, 16)
    ]
    return {"name": "chaos", "jobs": 2, "scenarios": scenarios}


def wait_for(predicate, timeout_s=60.0, interval_s=0.1, what="condition"):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(interval_s)
    raise AssertionError(f"timed out waiting for {what}")


def test_chaos_worker_kill_artifact_corruption_server_restart(tmp_path):
    trace_dir = str(tmp_path / "trace")
    write_synthetic_lu_trace(trace_dir, 4, 2, cls="S", inorm=1)
    digest = digest_tree(trace_dir)
    spec_doc = chaos_spec_doc(trace_dir)

    server = ServerProc(tmp_path / "sroot",
                        ["--dispatch", "workers"]).start()
    worker1 = None
    worker2 = None
    try:
        client = ServiceClient(server.url)
        job = client.submit(spec_doc, tenant="alice")

        # Worker 1 takes a lease (short, so its death surfaces fast)...
        worker1 = WorkerProc(server.url, tmp_path / "w1", "w1",
                             lease_s=2.0)
        leased = wait_for(
            lambda: [u for u in client.job_units(job["id"])
                     if u["state"] == UNIT_LEASED],
            what="worker1 to lease a unit")
        assert leased[0]["leases"][0]["worker"] == "w1"
        # ...and dies without a word, mid-unit.
        worker1.sigkill()

        # The server restarts underneath the campaign.  Units-backed
        # jobs stay RUNNING across the restart (leases live in SQLite).
        server.sigterm()
        assert JobQueue(str(tmp_path / "sroot" / "queue.db")).get(
            job["id"]).state == STATE_RUNNING
        server = ServerProc(tmp_path / "sroot",
                            ["--dispatch", "workers"]).start()
        client = ServiceClient(server.url)

        # The dead worker's lease expires and the unit requeues; no
        # unit is orphaned in LEASED by the restart + recovery.
        wait_for(
            lambda: not [u for u in client.job_units(job["id"])
                         if u["state"] == UNIT_LEASED],
            what="dead worker's lease to expire")

        # Worker 2 joins with a *corrupted* local copy of the trace:
        # verification must catch it and refetch honest bytes.
        w2root = tmp_path / "w2"
        bad = w2root / "traces" / digest
        os.makedirs(bad)
        (bad / "LU.S.2.trace").write_text("garbage\n")
        worker2 = WorkerProc(server.url, w2root, "w2", lease_s=2.0)

        done = client.wait(job["id"], timeout_s=180, poll_s=0.2)
        assert done["state"] == STATE_DONE, done.get("error")

        units = client.job_units(job["id"])
        assert len(units) == 4
        assert all(u["state"] == UNIT_DONE for u in units)
        assert all(u["winner"] == "w2" for u in units)
        # Full provenance: the unit worker1 died holding shows the
        # expired lease in its retry history.
        histories = [h for u in units for h in u["retry_history"]]
        assert any(h["status"] == "lease_expired" and h["worker"] == "w1"
                   for h in histories)
        counters = client.metrics()["dispatch"]["counters"]
        assert counters["leases_expired"] >= 1
        assert counters["units_requeued"] >= 1
        assert counters["bytes_shipped"] > 0
        assert "failed verification; refetching" in worker2.log()

        # The merged results equal a single-host run of the same spec.
        results = client.results(job["id"])
        local = run_campaign(CampaignSpec.from_dict(spec_doc),
                             str(tmp_path / "local"), log=None)
        by_name = {r["scenario"]["name"]: r for r in results["records"]}
        assert set(by_name) == set(local.records)
        for name, local_rec in local.records.items():
            assert canonical_json(deterministic_projection(
                by_name[name]["result"])) == \
                canonical_json(deterministic_projection(
                    local_rec.result))

        # Event log tells the whole story.
        events = client.job(job["id"])["events"]
        kinds = {e["event"] for e in events}
        assert {"state", "unit", "scenario"} <= kinds
        assert any(e.get("action") == "lease_expired" for e in events)

        # Resubmit: everything from cache, zero units, zero replays.
        job2 = client.submit(spec_doc, tenant="bob")
        done2 = client.wait(job2["id"], timeout_s=60, poll_s=0.2)
        assert done2["state"] == STATE_DONE
        assert done2["metrics"]["cached_hits"] == 4
        assert done2["metrics"]["replays_executed"] == 0
        assert client.job_units(job2["id"]) == []
    finally:
        for worker in (worker1, worker2):
            if worker is not None:
                worker.stop()
        server.stop()


def test_quarantine_surfaces_as_failed_job_with_structured_error(
        tmp_path):
    # A unit that fails on every host (bad platform: more ranks than
    # the trace has) is quarantined, and the job fails with provenance
    # instead of hanging.
    trace_dir = str(tmp_path / "trace")
    write_synthetic_lu_trace(trace_dir, 4, 2, cls="S", inorm=1)
    spec_doc = dir_spec_doc(trace_dir, name="poison", hosts=(8,))
    supervisor = Supervisor(str(tmp_path / "root"), max_jobs=1,
                            dispatch="workers")
    try:
        job = supervisor.submit(spec_doc, tenant="alice")
        unit = wait_units(supervisor, job.id)[0]
        for _ in range(unit.max_attempts):
            grant = wait_for(
                lambda: supervisor.queue.lease_unit("w1", 30.0),
                timeout_s=10, interval_s=0.05, what="a leasable unit")
            supervisor.dispatcher.on_result(
                grant["unit"].id, "w1", grant["token"],
                {"status": "failed",
                 "error": {"type": "ReplayError",
                           "message": "deterministic boom",
                           "traceback": ""},
                 "wall_seconds": 0.01})
            # Clear the failure backoff so the next lease is immediate.
            pending = supervisor.queue.get_unit(unit.id)
            if pending.state == UNIT_PENDING:
                supervisor.queue._update_unit(pending,
                                              ready_at=time.time())
        final_unit = supervisor.queue.get_unit(unit.id)
        assert final_unit.state == UNIT_QUARANTINED
        assert final_unit.attempts == final_unit.max_attempts

        job = supervisor.queue.get(job.id)
        assert job.state == "FAILED"
        assert "quarantined" in job.error
        # The run record carries the structured failure, not a hang.
        results_dir = supervisor.campaign_dir(job.id)
        from repro.campaign.store import CampaignStore
        record = CampaignStore(results_dir).read_run(final_unit.name)
        assert record.status in ("failed", "error")
        assert "deterministic boom" in record.error["message"]
        assert record.retry_history
    finally:
        supervisor.shutdown()
