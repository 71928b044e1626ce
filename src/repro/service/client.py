"""Thin stdlib client for the replay service.

``repro-campaign submit/status/results/cancel --server URL`` all go
through :class:`ServiceClient`; it is equally usable from notebooks and
tests.  One HTTP request per call (``urllib``), JSON in/out, and a
:class:`ServiceError` carrying the server's status code and message on
anything non-2xx — no retry magic, the service is idempotent to poll.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Any, Callable, Dict, List, Optional

__all__ = ["ServiceClient", "ServiceError"]

#: Job states a client may wait for (mirrors repro.service.queue).
_TERMINAL = {"DONE", "FAILED", "CANCELLED"}


class ServiceError(Exception):
    """An HTTP-level failure: ``status`` 0 means unreachable."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"[{status}] {message}" if status else message)
        self.status = status
        self.message = message


class ServiceClient:
    def __init__(self, base_url: str, timeout_s: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout_s = timeout_s

    # -- transport -------------------------------------------------------
    def _request(self, method: str, path: str,
                 body: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        data = None if body is None else json.dumps(body).encode("utf-8")
        raw = self._request_raw(method, path, data, "application/json")
        return json.loads(raw.decode("utf-8"))

    def _request_raw(self, method: str, path: str,
                     data: Optional[bytes] = None,
                     content_type: str = "application/x-tar") -> bytes:
        """The one HTTP round trip: raw bytes in/out (artifact fetch and
        push use it directly, :meth:`_request` wraps it in JSON)."""
        headers = {}
        if data is not None:
            headers["Content-Type"] = content_type
        request = urllib.request.Request(
            self.base_url + path, data=data, headers=headers, method=method)
        try:
            with urllib.request.urlopen(request,
                                        timeout=self.timeout_s) as response:
                return response.read()
        except urllib.error.HTTPError as exc:
            try:
                message = json.loads(exc.read().decode("utf-8")) \
                    .get("error", exc.reason)
            except Exception:  # noqa: BLE001 - error body is best-effort
                message = str(exc.reason)
            raise ServiceError(exc.code, message) from None
        except urllib.error.URLError as exc:
            raise ServiceError(
                0, f"cannot reach {self.base_url}: {exc.reason}") from None

    # -- API -------------------------------------------------------------
    def health(self) -> Dict[str, Any]:
        return self._request("GET", "/v1/health")

    def metrics(self) -> Dict[str, Any]:
        return self._request("GET", "/v1/metrics")

    def set_tenant(self, name: str, weight: float = 1.0) -> Dict[str, Any]:
        return self._request("POST", "/v1/tenants",
                             {"name": name, "weight": weight})

    def submit(self, spec_doc: Dict[str, Any], tenant: str = "default",
               priority: int = 0) -> Dict[str, Any]:
        doc = self._request("POST", "/v1/jobs", {
            "spec": spec_doc, "tenant": tenant, "priority": priority})
        return doc["job"]

    def jobs(self, tenant: Optional[str] = None,
             state: Optional[str] = None) -> List[Dict[str, Any]]:
        query = []
        if tenant:
            query.append(f"tenant={tenant}")
        if state:
            query.append(f"state={state}")
        suffix = ("?" + "&".join(query)) if query else ""
        return self._request("GET", f"/v1/jobs{suffix}")["jobs"]

    def job(self, job_id: str, events_after: int = 0) -> Dict[str, Any]:
        return self._request(
            "GET", f"/v1/jobs/{job_id}?events_after={events_after}")

    def results(self, job_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/v1/jobs/{job_id}/results")

    def cancel(self, job_id: str) -> Dict[str, Any]:
        return self._request("POST", f"/v1/jobs/{job_id}/cancel")["job"]

    # -- distributed execution -------------------------------------------
    def register_worker(self, name: str,
                        info: Optional[Dict[str, Any]] = None
                        ) -> Dict[str, Any]:
        return self._request("POST", "/v1/workers",
                             {"name": name, "info": info or {}})["worker"]

    def workers(self) -> List[Dict[str, Any]]:
        return self._request("GET", "/v1/workers")["workers"]

    def lease(self, worker: str,
              lease_s: float = 15.0) -> Optional[Dict[str, Any]]:
        """Claim the next work unit, or None when the queue is idle."""
        doc = self._request("POST", "/v1/lease",
                            {"worker": worker, "lease_s": lease_s})
        if doc.get("unit") is None:
            return None
        return doc

    def heartbeat(self, unit_id: str, worker: str, token: str,
                  lease_s: float = 15.0) -> float:
        """Renew a lease; :class:`ServiceError` 409 = lease lost."""
        return self._request(
            "POST", f"/v1/units/{unit_id}/heartbeat",
            {"worker": worker, "token": token,
             "lease_s": lease_s})["deadline"]

    def post_result(self, unit_id: str, worker: str, token: str,
                    doc: Dict[str, Any]) -> Dict[str, Any]:
        body = dict(doc)
        body.update(worker=worker, token=token)
        return self._request("POST", f"/v1/units/{unit_id}/result", body)

    def ack_staged(self, unit_id: str, worker: str, *,
                   fetched_bytes: int = 0,
                   cached_bytes: int = 0) -> Dict[str, Any]:
        return self._request(
            "POST", f"/v1/units/{unit_id}/staged",
            {"worker": worker, "fetched_bytes": int(fetched_bytes),
             "cached_bytes": int(cached_bytes)})

    def job_units(self, job_id: str) -> List[Dict[str, Any]]:
        return self._request("GET", f"/v1/jobs/{job_id}/units")["units"]

    def unit(self, unit_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/v1/units/{unit_id}")["unit"]

    def fetch_trace(self, digest: str) -> bytes:
        """The staged trace tree as tar bytes (404 = not staged)."""
        return self._request_raw("GET", f"/v1/artifacts/traces/{digest}")

    def push_trace(self, digest: str, data: bytes) -> Dict[str, Any]:
        raw = self._request_raw("PUT", f"/v1/artifacts/traces/{digest}",
                                data=data)
        return json.loads(raw.decode("utf-8"))

    # -- convenience -----------------------------------------------------
    def wait(self, job_id: str, timeout_s: Optional[float] = None,
             poll_s: float = 0.5,
             on_event: Optional[Callable[[Dict[str, Any]], None]] = None,
             ) -> Dict[str, Any]:
        """Poll until the job reaches a terminal state, streaming each
        new event through ``on_event``.  Raises :class:`TimeoutError`
        when ``timeout_s`` elapses first."""
        deadline = None if timeout_s is None else \
            time.monotonic() + timeout_s
        cursor = 0
        while True:
            doc = self.job(job_id, events_after=cursor)
            cursor = doc.get("events_next", cursor)
            if on_event is not None:
                for event in doc.get("events", []):
                    on_event(event)
            if doc["state"] in _TERMINAL:
                return doc
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError(
                    f"job {job_id} still {doc['state']} after "
                    f"{timeout_s:g}s")
            time.sleep(poll_s)
