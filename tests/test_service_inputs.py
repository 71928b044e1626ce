"""Numbers the service reads from outside: lease lengths and tenant
weights must be finite and positive at every door (queue, HTTP, worker,
CLI), and a malformed numeric header, query or body field is the
client's mistake — a 400 naming the field, never a 500."""

import math
import socket
import time

import pytest

from repro.service import (
    UNIT_LEASED, UNIT_PENDING, JobQueue, ServiceClient, ServiceError,
    Worker,
)
from repro.service import cli as service_cli
from repro.service.worker import main_worker

from tests.test_service import ServerProc, sleepy_spec_doc

UNUSABLE = [math.nan, math.inf, -math.inf, 0.0, -1.0]


def _queue_with_unit(tmp_path):
    queue = JobQueue(str(tmp_path / "q.db"))
    job = queue.submit("t", "c", 1)
    unit = queue.create_unit(job.id, 0, "s0", {"name": "s0"})
    return queue, unit


# ----------------------------------------------------------------------
# The queue
# ----------------------------------------------------------------------
@pytest.mark.parametrize("lease_s", UNUSABLE)
def test_the_queue_refuses_a_lease_that_cannot_expire(tmp_path, lease_s):
    queue, unit = _queue_with_unit(tmp_path)
    with pytest.raises(ValueError, match="lease_s must be a finite"):
        queue.lease_unit("w1", lease_s)
    assert queue.get_unit(unit.id).state == UNIT_PENDING
    assert queue.dispatch_counters().get("leases_granted", 0) == 0

    grant = queue.lease_unit("w1", 5.0)
    with pytest.raises(ValueError, match="lease_s must be a finite"):
        queue.heartbeat_unit(unit.id, "w1", grant["token"], lease_s)
    assert queue.get_unit(unit.id).leases[0]["deadline"] == \
        grant["deadline"]
    # The five-second lease a dead worker holds still runs out.
    expired = queue.expire_leases(time.time() + 1e9)
    assert [event["worker"] for event in expired] == ["w1"]
    assert queue.get_unit(unit.id).state == UNIT_PENDING


@pytest.mark.parametrize("weight", UNUSABLE)
def test_the_queue_refuses_a_weight_that_is_never_charged(tmp_path,
                                                          weight):
    queue = JobQueue(str(tmp_path / "q.db"))
    queue.ensure_tenant("t", 2.0)
    with pytest.raises(ValueError, match="tenant weight must be a finite"):
        queue.ensure_tenant("t", weight)
    queue.charge("t", 10.0)
    [tenant] = queue.tenants()
    assert tenant["weight"] == 2.0 and tenant["vtime"] == 5.0


# ----------------------------------------------------------------------
# The worker and the two CLIs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("lease_s", UNUSABLE)
def test_a_worker_refuses_a_lease_that_cannot_expire(tmp_path, lease_s):
    with pytest.raises(ValueError, match="lease_s must be a finite"):
        Worker("http://unused", str(tmp_path / "w"), "w0", lease_s=lease_s)


@pytest.mark.parametrize("text", ["nan", "inf", "0", "-3", "abc"])
def test_repro_worker_lease_s_is_a_usage_error(tmp_path, capsys, text):
    with pytest.raises(SystemExit) as exc:
        main_worker(["--server", "http://127.0.0.1:9", "--root",
                     str(tmp_path / "w"), "--lease-s", text])
    assert exc.value.code == 2
    assert "--lease-s must be a finite number > 0" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["ml=nan", "ml=inf", "ml=0", "ml=abc"])
def test_repro_service_tenant_weight_is_a_usage_error(tmp_path, capsys,
                                                      monkeypatch, text):
    served = []

    async def fake_serve(*args, **kwargs):
        served.append(kwargs)
    monkeypatch.setattr(service_cli, "serve", fake_serve)
    with pytest.raises(SystemExit) as exc:
        service_cli.main_service(["--root", str(tmp_path / "root"),
                                  "--tenant-weight", text])
    assert exc.value.code == 2 and served == []
    assert "must be a finite number > 0" in capsys.readouterr().err


def test_repro_service_passes_good_weights_on(tmp_path, monkeypatch):
    served = []

    async def fake_serve(*args, **kwargs):
        served.append(kwargs["tenant_weights"])
    monkeypatch.setattr(service_cli, "serve", fake_serve)
    assert service_cli.main_service(
        ["--root", str(tmp_path / "root"), "--tenant-weight", "ml=3",
         "--tenant-weight", "ci=0.5"]) == 0
    assert served == [{"ml": 3.0, "ci": 0.5}]


# ----------------------------------------------------------------------
# Over HTTP
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def leased(tmp_path_factory):
    """A workers-dispatch server with one unit leased to ``w1``:
    ``(server, client, grant)``."""
    server = ServerProc(tmp_path_factory.mktemp("svc") / "root",
                        ["--dispatch", "workers"]).start()
    try:
        client = ServiceClient(server.url)
        client.submit(sleepy_spec_doc("held", n=1, seconds=60.0))
        deadline = time.monotonic() + 30
        grant = None
        while grant is None and time.monotonic() < deadline:
            grant = client.lease("w1", 60.0)
            time.sleep(0.05)
        assert grant is not None, "no unit to lease"
        yield server, client, grant
    finally:
        server.stop()


def _raw_status(server, request: bytes):
    """Send ``request`` as it is; return (status, body text)."""
    with socket.create_connection(("127.0.0.1", server.port),
                                  timeout=30) as conn:
        conn.sendall(request)
        reply = b""
        while True:
            chunk = conn.recv(65536)
            if not chunk:
                break
            reply += chunk
    head, _sep, body = reply.decode("latin-1").partition("\r\n\r\n")
    return int(head.split(" ", 2)[1]), body


@pytest.mark.parametrize("value", ["abc", "-5", "1.5"])
def test_a_malformed_content_length_is_a_400(leased, value):
    server, _client, _grant = leased
    status, body = _raw_status(
        server, b"POST /v1/tenants HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: " + value.encode() + b"\r\n\r\n")
    assert status == 400 and "Content-Length must be" in body


@pytest.mark.parametrize("value", ["abc", "-1"])
def test_a_malformed_events_after_is_a_400(leased, value):
    _server, client, grant = leased
    with pytest.raises(ServiceError) as exc:
        client._request(
            "GET", f"/v1/jobs/{grant['unit']['job_id']}"
                   f"?events_after={value}")
    assert exc.value.status == 400
    assert exc.value.message.startswith("events_after must be")


def test_a_malformed_cached_bytes_is_a_400(leased):
    _server, client, grant = leased
    unit_id = grant["unit"]["id"]
    with pytest.raises(ServiceError) as exc:
        client._request("POST", f"/v1/units/{unit_id}/staged",
                        {"worker": "w1", "cached_bytes": "abc"})
    assert exc.value.status == 400
    assert exc.value.message.startswith("cached_bytes must be")


def test_a_malformed_priority_is_a_400(leased):
    _server, client, _grant = leased
    with pytest.raises(ServiceError) as exc:
        client._request("POST", "/v1/jobs",
                        {"spec": sleepy_spec_doc(), "priority": "high"})
    assert exc.value.status == 400
    assert exc.value.message.startswith("priority must be")


@pytest.mark.parametrize("lease_s", [math.nan, math.inf, 0.0, "abc"])
def test_the_lease_routes_refuse_a_lease_that_cannot_expire(leased,
                                                            lease_s):
    _server, client, grant = leased
    unit_id = grant["unit"]["id"]
    with pytest.raises(ServiceError) as exc:
        client.lease("w2", lease_s)
    assert exc.value.status == 400 and "lease_s must be" in \
        exc.value.message
    with pytest.raises(ServiceError) as exc:
        client.heartbeat(unit_id, "w1", grant["token"], lease_s)
    assert exc.value.status == 400 and "lease_s must be" in \
        exc.value.message
    unit = client.unit(unit_id)
    assert unit["state"] == UNIT_LEASED
    assert [lease["deadline"] for lease in unit["leases"]] == \
        [grant["deadline"]]


@pytest.mark.parametrize("weight", [math.nan, math.inf, 0.0, "abc"])
def test_set_tenant_refuses_a_weight_that_is_never_charged(leased, weight):
    _server, client, _grant = leased
    with pytest.raises(ServiceError) as exc:
        client.set_tenant("greedy", weight)
    assert exc.value.status == 400 and "weight must be" in exc.value.message
    doc = client.set_tenant("fair", 2.5)
    assert {t["name"]: t["weight"] for t in doc["tenants"]}["fair"] == 2.5
    assert "greedy" not in {t["name"] for t in doc["tenants"]}
