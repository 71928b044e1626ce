"""The HTTP/JSON front end of the replay service.

Pure stdlib: an :func:`asyncio.start_server` loop speaking enough
HTTP/1.1 for JSON request/response bodies (``Connection: close`` per
request — clients poll, they do not stream).  All state lives in the
:class:`~repro.service.supervisor.Supervisor`; the server is a thin
router plus a periodic scheduler tick, so killing it loses nothing that
matters — the queue is the durable object.

API (all bodies JSON):

======  =============================  =======================================
POST    /v1/jobs                       submit {spec, tenant?, priority?}
GET     /v1/jobs[?tenant=&state=]      list jobs
GET     /v1/jobs/<id>[?events_after=]  status + incremental events
GET     /v1/jobs/<id>/results          manifest + run records
POST    /v1/jobs/<id>/cancel           cancel (queued: now; running: units)
POST    /v1/tenants                    {name, weight} — fair-share weight
GET     /v1/metrics                    queue/tenant/artifact-store counters
GET     /v1/health                     liveness + fleet occupancy
GET     /v1/jobs/<id>/units            the job's work units
POST    /v1/workers                    register {name, info?}
GET     /v1/workers                    worker fleet + heartbeat ages
POST    /v1/lease                      {worker, lease_s?} — claim a unit
POST    /v1/units/<id>/heartbeat       {worker, token, lease_s?} — renew
POST    /v1/units/<id>/result          {worker, token, status, result|error}
POST    /v1/units/<id>/staged          {worker, cached_bytes, fetched_bytes}
GET     /v1/units/<id>                 one unit (state, leases, history)
GET     /v1/artifacts/traces/<digest>  staged trace tree as a tar body
PUT     /v1/artifacts/traces/<digest>  push a trace tar (digest-verified)
======  =============================  =======================================

The bodies of the two ``/v1/artifacts/`` transfers are raw tar bytes
(``application/x-tar``); everything else stays JSON.

Error taxonomy: 400 malformed request or spec, 404 unknown job, 409
illegal lifecycle transition (e.g. cancelling a DONE job), 405 wrong
method, 500 with the exception name for anything else.
"""

from __future__ import annotations

import asyncio
import json
import signal
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from ..campaign.queue import LOCAL_WORKER, LeaseLostError
from .supervisor import Supervisor

__all__ = ["ServiceServer", "serve"]

_MAX_BODY = 64 << 20        # a campaign spec, not a trace upload
_STATUS_TEXT = {200: "OK", 201: "Created", 400: "Bad Request",
                404: "Not Found", 405: "Method Not Allowed",
                409: "Conflict", 500: "Internal Server Error"}


class _HttpError(Exception):
    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


def _number(value: Any, field: str, kind: type = int, default: Any = 0,
            minimum: Optional[int] = None) -> Any:
    """A numeric header, query or body field as ``kind``; absent or empty
    reads as ``default``.  A malformed value is the client's mistake: a
    400 naming the field, never a 500 with Python's text."""
    if value is None or value == "":
        return default
    try:
        number = kind(value)
    except (TypeError, ValueError, OverflowError):
        raise _HttpError(400, f"{field} must be "
                              f"{'an integer' if kind is int else 'a number'}"
                              f", got {value!r}")
    if minimum is not None and number < minimum:
        raise _HttpError(400, f"{field} must be >= {minimum}, got {value!r}")
    return number


class ServiceServer:
    """Router + scheduler tick around one Supervisor."""

    def __init__(self, supervisor: Supervisor, host: str = "127.0.0.1",
                 port: int = 8642, tick_s: float = 0.2) -> None:
        self.supervisor = supervisor
        self.host = host
        self.port = port
        self.tick_s = tick_s
        self._server: Optional[asyncio.AbstractServer] = None
        self._tick_task: Optional[asyncio.Task] = None

    # -- lifecycle -------------------------------------------------------
    async def start(self) -> None:
        self.supervisor.recover()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self._tick_task = asyncio.ensure_future(self._tick_loop())

    async def stop(self) -> None:
        if self._tick_task is not None:
            self._tick_task.cancel()
            try:
                await self._tick_task
            except asyncio.CancelledError:
                pass
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self.supervisor.shutdown()

    async def _tick_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            try:
                self.supervisor.tick()
                fds = [c.fileno() for c in self.supervisor.local_conns()]
            except Exception:  # pragma: no cover - keep the pump alive
                fds = []
            # One tick apart at most; a local unit's verdict wakes the
            # next tick at once, so a slot never idles for the rest.
            woken = asyncio.Event()
            for fd in fds:
                loop.add_reader(fd, woken.set)
            try:
                await asyncio.wait_for(woken.wait(), self.tick_s)
            except asyncio.TimeoutError:
                pass
            finally:
                for fd in fds:
                    loop.remove_reader(fd)

    # -- HTTP plumbing ---------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            status, document = await self._handle_request(reader)
        except _HttpError as exc:
            status, document = exc.status, {"error": exc.message}
        except Exception as exc:  # noqa: BLE001 - surfaced to the client
            status, document = 500, {"error": f"{type(exc).__name__}: {exc}"}
        if isinstance(document, (bytes, bytearray)):
            body = bytes(document)          # artifact fetch: raw tar
            ctype = "application/x-tar"
        else:
            body = (json.dumps(document, sort_keys=True)
                    + "\n").encode("utf-8")
            ctype = "application/json"
        head = (f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
                f"Content-Type: {ctype}\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: close\r\n\r\n").encode("ascii")
        try:
            writer.write(head + body)
            await writer.drain()
        except (ConnectionError, BrokenPipeError):  # pragma: no cover
            pass
        finally:
            writer.close()

    async def _handle_request(self, reader: asyncio.StreamReader
                              ) -> Tuple[int, Any]:
        request_line = (await reader.readline()).decode("latin-1").strip()
        if not request_line:
            raise _HttpError(400, "empty request")
        try:
            method, target, _version = request_line.split(" ", 2)
        except ValueError:
            raise _HttpError(400, f"malformed request line {request_line!r}")
        headers: Dict[str, str] = {}
        while True:
            line = (await reader.readline()).decode("latin-1")
            if line in ("\r\n", "\n", ""):
                break
            name, _sep, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = _number(headers.get("content-length"), "Content-Length",
                         minimum=0)
        if length > _MAX_BODY:
            raise _HttpError(400, f"body too large ({length} bytes)")
        split = urlsplit(target)
        query = {k: v[-1] for k, v in parse_qs(split.query).items()}
        path = split.path.rstrip("/")
        raw = await reader.readexactly(length) if length else b""
        if method.upper() == "PUT" and path.startswith("/v1/artifacts/"):
            # Artifact push: the body is the artifact, not JSON.
            return self._route(method.upper(), path, query, {}, raw=raw)
        body: Dict[str, Any] = {}
        if raw:
            try:
                body = json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, ValueError):
                raise _HttpError(400, "request body is not valid JSON")
        return self._route(method.upper(), path, query, body)

    # -- routing ---------------------------------------------------------
    def _route(self, method: str, path: str, query: Dict[str, str],
               body: Dict[str, Any], raw: bytes = b"") -> Tuple[int, Any]:
        parts = [p for p in path.split("/") if p]
        if parts[:1] != ["v1"]:
            raise _HttpError(404, f"unknown path {path!r}")
        tail = parts[1:]

        if tail == ["health"]:
            self._need(method, "GET")
            return 200, {"ok": True, "service": "repro.service",
                         "running_jobs": self.supervisor.running_jobs,
                         "max_jobs": self.supervisor.max_jobs}
        if tail == ["metrics"]:
            self._need(method, "GET")
            return 200, self.supervisor.metrics_doc()
        if tail == ["tenants"]:
            self._need(method, "POST")
            name = body.get("name")
            if not name:
                raise _HttpError(400, "tenant needs a 'name'")
            try:
                self.supervisor.queue.ensure_tenant(
                    name, _number(body.get("weight"), "weight", float, 1.0))
            except ValueError as exc:
                raise _HttpError(400, str(exc))
            return 200, {"tenants": self.supervisor.queue.tenants()}
        if tail == ["jobs"]:
            if method == "POST":
                return self._submit(body)
            self._need(method, "GET")
            jobs = self.supervisor.queue.list_jobs(
                tenant=query.get("tenant"), state=query.get("state"))
            return 200, {"jobs": [j.to_dict() for j in jobs]}
        if len(tail) >= 2 and tail[0] == "jobs":
            job_id = tail[1]
            if len(tail) == 2:
                self._need(method, "GET")
                after = _number(query.get("events_after"), "events_after",
                                minimum=0)
                return 200, self._job(job_id, after)
            if tail[2:] == ["results"]:
                self._need(method, "GET")
                return 200, self._results(job_id)
            if tail[2:] == ["cancel"]:
                self._need(method, "POST")
                return self._cancel(job_id)
            if tail[2:] == ["units"]:
                self._need(method, "GET")
                try:
                    self.supervisor.queue.get(job_id)
                except KeyError:
                    raise _HttpError(404, f"unknown job {job_id!r}")
                units = self.supervisor.queue.units_for_job(job_id)
                return 200, {"units": [u.to_dict() for u in units]}

        # -- distributed execution: workers, leases, units, artifacts ----
        if tail == ["workers"]:
            if method == "POST":
                name = self._remote_worker(body.get("name"),
                                           "worker needs a 'name'")
                doc = self.supervisor.queue.register_worker(
                    name, info=body.get("info") or {})
                return 201, {"worker": doc}
            self._need(method, "GET")
            return 200, {"workers": self.supervisor.queue.workers_doc()}
        if tail == ["lease"]:
            self._need(method, "POST")
            worker = self._remote_worker(body.get("worker"),
                                         "lease request needs a 'worker'")
            try:
                grant = self.supervisor.queue.lease_unit(
                    worker, _number(body.get("lease_s"), "lease_s", float,
                                    15.0))
            except ValueError as exc:
                raise _HttpError(400, str(exc))
            if grant is None:
                return 200, {"unit": None}
            return 200, {"unit": grant["unit"].to_dict(),
                         "token": grant["token"],
                         "deadline": grant["deadline"],
                         "speculative": grant["speculative"]}
        if len(tail) >= 2 and tail[0] == "units":
            unit_id = tail[1]
            if tail[2:] == []:
                self._need(method, "GET")
                return 200, {"unit": self._unit(unit_id).to_dict()}
            if tail[2:] == ["heartbeat"]:
                self._need(method, "POST")
                return self._heartbeat(unit_id, body)
            if tail[2:] == ["result"]:
                self._need(method, "POST")
                return self._unit_result(unit_id, body)
            if tail[2:] == ["staged"]:
                self._need(method, "POST")
                return self._unit_staged(unit_id, body)
        if len(tail) == 3 and tail[:2] == ["artifacts", "traces"]:
            digest = tail[2]
            if method == "GET":
                try:
                    data = self.supervisor.store.export_trace_tar(digest)
                except KeyError:
                    raise _HttpError(404, f"trace {digest!r} not staged")
                self.supervisor.queue.incr_counter("bytes_shipped",
                                                   len(data))
                return 200, data
            self._need(method, "PUT")
            try:
                path_, hit = self.supervisor.store.import_trace_tar(
                    raw, digest, tenant=str(query.get("tenant", "default")))
            except ValueError as exc:
                raise _HttpError(400, str(exc))
            return 201, {"digest": digest, "hit": hit}
        raise _HttpError(404, f"unknown path {path!r}")

    @staticmethod
    def _need(method: str, expected: str) -> None:
        if method != expected:
            raise _HttpError(405, f"use {expected}")

    def _submit(self, body: Dict[str, Any]) -> Tuple[int, Any]:
        spec = body.get("spec")
        if not isinstance(spec, dict):
            raise _HttpError(400, "submit body needs a 'spec' object")
        try:
            job = self.supervisor.submit(
                spec, tenant=str(body.get("tenant", "default")),
                priority=_number(body.get("priority"), "priority"))
        except (TypeError, ValueError, KeyError) as exc:
            raise _HttpError(400, f"bad campaign spec: {exc}")
        return 201, {"job": job.to_dict()}

    def _job(self, job_id: str, events_after: int) -> Any:
        try:
            return self.supervisor.job_status_doc(
                job_id, events_after=events_after)
        except KeyError:
            raise _HttpError(404, f"unknown job {job_id!r}")

    def _results(self, job_id: str) -> Any:
        try:
            return self.supervisor.results_doc(job_id)
        except KeyError:
            raise _HttpError(404, f"unknown job {job_id!r}")

    def _cancel(self, job_id: str) -> Tuple[int, Any]:
        try:
            job = self.supervisor.cancel(job_id)
        except KeyError:
            raise _HttpError(404, f"unknown job {job_id!r}")
        except ValueError as exc:
            raise _HttpError(409, str(exc))
        return 200, {"job": job.to_dict()}

    # -- distributed-execution handlers -----------------------------------
    def _unit(self, unit_id: str):
        try:
            return self.supervisor.queue.get_unit(unit_id)
        except KeyError:
            raise _HttpError(404, f"unknown unit {unit_id!r}")

    @staticmethod
    def _remote_worker(name: Any, missing: str) -> str:
        """A remote worker's name: given, and not the one the server's
        own slots lease under."""
        if not name:
            raise _HttpError(400, missing)
        if str(name) == LOCAL_WORKER:
            raise _HttpError(400, f"worker name {LOCAL_WORKER!r} is "
                                  f"reserved for the server's own slots")
        return str(name)

    @staticmethod
    def _lease_fields(body: Dict[str, Any]) -> Tuple[str, str]:
        worker, token = body.get("worker"), body.get("token")
        if not worker or not token:
            raise _HttpError(400, "need 'worker' and 'token'")
        return str(worker), str(token)

    def _heartbeat(self, unit_id: str,
                   body: Dict[str, Any]) -> Tuple[int, Any]:
        worker, token = self._lease_fields(body)
        self._unit(unit_id)
        try:
            deadline = self.supervisor.queue.heartbeat_unit(
                unit_id, worker, token,
                _number(body.get("lease_s"), "lease_s", float, 15.0))
        except LeaseLostError as exc:
            raise _HttpError(409, str(exc))
        except ValueError as exc:
            raise _HttpError(400, str(exc))
        return 200, {"deadline": deadline}

    def _unit_result(self, unit_id: str,
                     body: Dict[str, Any]) -> Tuple[int, Any]:
        worker, token = self._lease_fields(body)
        self._unit(unit_id)
        try:
            doc = self.supervisor.dispatcher.on_result(
                unit_id, worker, token, body)
        except LeaseLostError as exc:
            raise _HttpError(409, str(exc))
        return 200, doc

    def _unit_staged(self, unit_id: str,
                     body: Dict[str, Any]) -> Tuple[int, Any]:
        """A worker finished staging a unit's artifacts: fold its cache
        economics (bytes it did NOT have to fetch) into the counters."""
        unit = self._unit(unit_id)
        saved = _number(body.get("cached_bytes"), "cached_bytes")
        if saved > 0:
            self.supervisor.queue.incr_counter("bytes_saved_by_cache",
                                               saved)
        if body.get("worker"):
            self.supervisor.queue.worker_seen(str(body["worker"]))
        return 200, {"unit": unit.id}


async def serve(root: str, host: str = "127.0.0.1", port: int = 8642,
                max_jobs: int = 2, cache_max_bytes: int = 0,
                tenant_weights: Optional[Dict[str, float]] = None,
                tick_s: float = 0.2, dispatch: str = "local",
                log=print) -> None:
    """Run the service until SIGTERM/SIGINT, then stop the local
    slots and hand their leases back."""
    supervisor = Supervisor(root, max_jobs=max_jobs,
                            cache_max_bytes=cache_max_bytes,
                            tenant_weights=tenant_weights,
                            dispatch=dispatch, log=log)
    server = ServiceServer(supervisor, host=host, port=port, tick_s=tick_s)
    await server.start()
    if log:
        log(f"repro.service listening on http://{server.host}:{server.port}"
            f" (root {supervisor.root}, {max_jobs} job(s) at once, "
            f"dispatch {dispatch})")
    loop = asyncio.get_running_loop()
    stop = loop.create_future()
    for signum in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(
            signum, lambda: stop.done() or stop.set_result(None))
    try:
        await stop
    finally:
        if log:
            log("repro.service stopping: local units stopped, their "
                "leases released for the next start")
        await server.stop()
