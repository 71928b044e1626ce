"""In-process ``Worker`` over a fake client: what one leased unit turns
into (ok / failed / timeout / died), and what the worker promises while
it runs — one child per unit, heartbeats, a lost lease stops the
scenario, an unreachable server is waited out — and what staging a
cached artifact reports."""

import multiprocessing
import os
import shutil
import signal
import time

import pytest

from repro.campaign import Scenario, TraceSpec, runner
from repro.campaign.cache import digest_tree
from repro.campaign.runner import execute_scenario
from repro.core.synth import write_synthetic_lu_trace
from repro.service import ServiceError, Worker, deterministic_projection

from tests.test_campaign import _exit_3, lu_scenario


class FakeClient:
    """Records what a worker sends; raises what the test queues up."""

    base_url = "fake://server"

    def __init__(self, grants=(), heartbeat_error=None, post_errors=(),
                 on_heartbeat=None):
        self.grants = list(grants)
        self.heartbeat_error = heartbeat_error
        self.post_errors = list(post_errors)
        self.on_heartbeat = on_heartbeat
        self.heartbeat_at = []
        self.posted = []

    def register_worker(self, name, info=None):
        return {"name": name}

    def lease(self, worker, lease_s):
        return self.grants.pop(0) if self.grants else None

    def ack_staged(self, unit_id, worker, **_bytes):
        return {}

    def heartbeat(self, unit_id, worker, token, lease_s):
        self.heartbeat_at.append(time.monotonic())
        if self.on_heartbeat is not None:
            self.on_heartbeat()
        if self.heartbeat_error is not None:
            raise self.heartbeat_error
        return {}

    def post_result(self, unit_id, worker, token, doc):
        if self.post_errors:
            raise self.post_errors.pop(0)
        self.posted.append(doc)
        return {"accepted": True}


def grant(scenario, unit_id="u1"):
    return {"token": "tok", "unit": {
        "id": unit_id, "name": scenario.name, "digests": [],
        "scenario": scenario.to_dict()}}


def make_worker(tmp_path, client, **options):
    options.setdefault("lease_s", 0.3)
    options.setdefault("poll_s", 0.05)
    worker = Worker("http://unused", str(tmp_path / "wroot"), "w0",
                    **options)
    worker.client = client
    return worker


def sleep_scenario(seconds, name="nap", **fields):
    return Scenario(name, 2, trace=TraceSpec(kind="sleep", seconds=seconds),
                    **fields)


# ----------------------------------------------------------------------
# The four verdicts
# ----------------------------------------------------------------------
@pytest.mark.parametrize("case, scenario, status, error_type", [
    ("ok", lu_scenario(), "ok", None),
    ("raises", Scenario("boom", 2,
                        trace=TraceSpec(kind="fail", fail_times=1)),
     "failed", "RuntimeError"),
    ("hangs", sleep_scenario(5.0, timeout_s=0.3), "timeout", "Timeout"),
    ("dies", lu_scenario(), "failed", "WorkerDied"),
])
def test_unit_verdict_is_posted(tmp_path, monkeypatch, case, scenario,
                                status, error_type):
    if case == "dies":
        monkeypatch.setattr(runner, "_scenario_worker", _exit_3)
    client = FakeClient()
    worker = make_worker(tmp_path, client)
    t0 = time.monotonic()
    worker._run_unit(grant(scenario))
    wall = time.monotonic() - t0

    assert multiprocessing.active_children() == []
    assert os.listdir(worker.root) == ["traces"]
    [doc] = client.posted
    assert doc["status"] == status
    assert 0.0 < doc["wall_seconds"] <= wall
    if status == "ok":
        assert deterministic_projection(doc["result"]) == \
            deterministic_projection(execute_scenario(scenario.to_dict()))
        assert (worker.units_completed, worker.units_failed) == (1, 0)
        return
    assert (worker.units_completed, worker.units_failed) == (0, 1)
    assert doc["error"]["type"] == error_type
    if case == "raises":
        assert "injected failure 1/1" in doc["error"]["message"]
        assert "RuntimeError" in doc["error"]["traceback"]
    elif case == "hangs":
        assert wall < 2.0
        assert "timeout_s=0.3" in doc["error"]["message"]
    else:
        assert "exitcode 3" in doc["error"]["message"]


# ----------------------------------------------------------------------
# While a unit runs
# ----------------------------------------------------------------------
def _children(pid):
    pids = []
    for task in os.listdir(f"/proc/{pid}/task"):
        with open(f"/proc/{pid}/task/{task}/children") as handle:
            pids += [int(p) for p in handle.read().split()]
    return pids


@pytest.mark.skipif(
    not os.path.exists(f"/proc/{os.getpid()}/task/{os.getpid()}/children"),
    reason="needs /proc/<pid>/task/<tid>/children")
def test_a_unit_is_one_child_with_no_children_of_its_own(tmp_path):
    me = os.getpid()
    before = set(_children(me))
    seen = []

    def snapshot():
        mine = set(_children(me)) - before
        seen.append((mine, [_children(pid) for pid in mine]))

    client = FakeClient(on_heartbeat=snapshot)
    make_worker(tmp_path, client)._run_unit(grant(sleep_scenario(0.3)))
    assert client.posted[0]["status"] == "ok"
    assert seen
    for mine, theirs in seen:
        assert len(mine) == 1 and theirs == [[]]


def test_heartbeats_every_third_of_the_lease_and_wall_spans_the_unit(
        tmp_path):
    client = FakeClient()
    worker = make_worker(tmp_path, client)
    worker._run_unit(grant(sleep_scenario(0.5)))
    beats = client.heartbeat_at
    assert len(beats) >= 2
    assert all(b - a >= 0.1 - 1e-3 for a, b in zip(beats, beats[1:]))
    assert client.posted[0]["wall_seconds"] >= 0.5


def test_unreachable_server_at_heartbeat_keeps_computing(tmp_path):
    client = FakeClient(
        heartbeat_error=ServiceError(0, "cannot reach server"))
    worker = make_worker(tmp_path, client)
    worker._run_unit(grant(sleep_scenario(0.3)))
    assert client.heartbeat_at
    assert client.posted[0]["status"] == "ok"
    assert (worker.units_completed, worker.leases_lost) == (1, 0)


def test_lost_lease_stops_the_scenario_instead_of_draining_it(tmp_path):
    state = tmp_path / "ran"
    scenario = Scenario("doomed", 2, trace=TraceSpec(
        kind="fail", stage_wait_s=3.0, state_path=str(state)))
    client = FakeClient(heartbeat_error=ServiceError(409, "lease lost"))
    worker = make_worker(tmp_path, client)
    t0 = time.monotonic()
    worker._run_unit(grant(scenario))
    assert time.monotonic() - t0 < 1.5
    assert worker.leases_lost == 1
    assert client.posted == []
    assert multiprocessing.active_children() == []
    # Nothing — no orphaned grandchild either — is left to finish the
    # scenario once its staging wait would have ended.
    time.sleep(4.0)
    assert not state.exists()


def test_sigterm_finishes_the_unit_in_flight_then_stops(tmp_path):
    client = FakeClient(
        grants=[grant(sleep_scenario(0.3)), grant(sleep_scenario(0.3))],
        on_heartbeat=lambda: os.kill(os.getpid(), signal.SIGTERM))
    worker = make_worker(tmp_path, client)
    previous = signal.signal(signal.SIGTERM,
                             lambda _s, _f: worker.request_stop())
    try:
        assert worker.run() == 1
    finally:
        signal.signal(signal.SIGTERM, previous)
    assert [doc["status"] for doc in client.posted] == ["ok"]
    assert len(client.grants) == 1      # the second unit was never leased


# ----------------------------------------------------------------------
# Staging
# ----------------------------------------------------------------------
def test_cached_bytes_leave_out_the_sidecars_a_replay_adds(tmp_path):
    src = str(tmp_path / "trace")
    write_synthetic_lu_trace(src, 4, 2, cls="S", inorm=1)
    digest = digest_tree(src)
    worker = make_worker(tmp_path, FakeClient())
    shutil.copytree(src, os.path.join(worker.traces_dir, digest))
    local, fetched, cached = worker._stage_digest(digest)
    assert (fetched, cached) == (0, sum(
        os.path.getsize(os.path.join(src, name)) for name in os.listdir(src)))
    execute_scenario(lu_scenario(
        trace=TraceSpec(kind="dir", path=local)).to_dict())
    assert any(name.endswith(".tic") for name in os.listdir(local))
    assert worker._stage_digest(digest) == (local, 0, cached)


# ----------------------------------------------------------------------
# Posting the verdict
# ----------------------------------------------------------------------
def test_server_restart_at_the_finish_line_is_waited_out(tmp_path):
    client = FakeClient(
        grants=[grant(sleep_scenario(0.05, "a"), "u1"),
                grant(sleep_scenario(0.05, "b"), "u2")],
        post_errors=[ServiceError(0, "cannot reach server")])
    worker = make_worker(tmp_path, client, max_units=2)
    assert worker.run() == 2
    assert [doc["status"] for doc in client.posted] == ["ok", "ok"]
    assert worker.leases_lost == 0


def test_verdict_is_dropped_once_the_lease_has_run_out(tmp_path):
    client = FakeClient(
        post_errors=[ServiceError(0, "cannot reach server")] * 1000)
    worker = make_worker(tmp_path, client)
    t0 = time.monotonic()
    worker._run_unit(grant(sleep_scenario(0.05)))
    assert time.monotonic() - t0 < 2.0
    assert client.posted == []
    assert (worker.units_completed, worker.leases_lost) == (0, 1)


@pytest.mark.parametrize("status, raises", [(409, False), (500, True)])
def test_post_409_is_a_lost_race_and_other_errors_still_raise(
        tmp_path, status, raises):
    client = FakeClient(post_errors=[ServiceError(status, "nope")])
    worker = make_worker(tmp_path, client)
    if raises:
        with pytest.raises(ServiceError):
            worker._run_unit(grant(sleep_scenario(0.05)))
    else:
        worker._run_unit(grant(sleep_scenario(0.05)))
        assert worker.leases_lost == 1
    assert client.posted == []
    assert worker.units_completed == 0
