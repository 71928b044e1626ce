"""``repro-worker``: a remote execution worker for the campaign service.

A worker is the distributed counterpart of one slot of the campaign
runner's process fleet.  It is stdlib-only and owns a local *root*::

    <root>/
      traces/<digest>/...   # artifact cache, content-addressed, mirrors
                            # the server store (grows warm .tic sidecars)
      cache/...             # local ResultCache for re-executed units
      units/<id>/           # scratch campaign dir of the unit in flight

The loop::

    register → lease → stage artifacts by digest → fork runner
             → heartbeat while it runs → post result → lease …

**Staging by content address.**  A unit names the trace digests it
needs.  A digest already present locally is *verified*
(``digest_tree``, which skips ``.tic`` sidecars — locally compiled
programs survive verification) and reused: zero bytes move.  A missing
or corrupt tree is fetched from ``GET /v1/artifacts/traces/<digest>``
as a tar, verified, and published atomically.  The worker reports
fetched vs. cached bytes so the server can account
``bytes_shipped`` / ``bytes_saved_by_cache``.

**Leases.**  The unit is executed by a forked child running the
ordinary campaign runner (``jobs=1``, ``max_retries=0`` — the *server*
owns the retry/backoff/quarantine policy).  While the child runs, the
parent heartbeats every ``lease_s / 3``.  A 409 means the lease was
lost (expired and requeued, or a speculative twin already won): the
child is killed and nothing is posted.  A 409 on the result post means
the same race was lost at the finish line — the result is discarded
server-side and counted, and the worker simply moves on.

SIGTERM finishes the unit in flight, then exits (SIGKILL is the chaos
path the service is designed to absorb).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import socket
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..campaign.cache import digest_tree
from ..campaign.runner import stop_process
from .artifacts import pack_tree_tar, unpack_tree_tar
from .client import ServiceClient, ServiceError

__all__ = ["Worker", "main_worker"]


def _unit_main(spec_doc: Dict[str, Any], out_dir: str,
               cache_dir: str) -> None:
    """Child entry: run the single-scenario campaign, exit 0/1."""
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    from ..campaign.runner import run_campaign
    from ..campaign.spec import CampaignSpec

    spec = CampaignSpec.from_dict(spec_doc)
    result = run_campaign(spec, out_dir, jobs=1, cache_dir=cache_dir)
    sys.exit(0 if result.ok else 1)


class Worker:
    """One remote worker process: lease, stage, execute, report."""

    def __init__(self, server_url: str, root: str,
                 name: Optional[str] = None, *,
                 lease_s: float = 15.0, poll_s: float = 1.0,
                 max_units: int = 0, idle_exit_s: float = 0.0,
                 verify: bool = True,
                 log: Optional[Callable[[str], None]] = None) -> None:
        if lease_s <= 0:
            raise ValueError("lease_s must be > 0")
        self.client = ServiceClient(server_url)
        self.name = name or f"{socket.gethostname()}-{os.getpid()}"
        self.root = os.path.abspath(root)
        self.traces_dir = os.path.join(self.root, "traces")
        self.cache_dir = os.path.join(self.root, "cache")
        self.units_dir = os.path.join(self.root, "units")
        for path in (self.traces_dir, self.cache_dir, self.units_dir):
            os.makedirs(path, exist_ok=True)
        self.lease_s = lease_s
        self.poll_s = poll_s
        self.max_units = max_units
        self.idle_exit_s = idle_exit_s
        self.verify = verify
        self._emit = log if log is not None else (lambda _msg: None)
        self._stop = False
        import multiprocessing
        start = ("fork"
                 if "fork" in multiprocessing.get_all_start_methods()
                 else "spawn")
        self._ctx = multiprocessing.get_context(start)
        self.units_completed = 0
        self.units_failed = 0
        self.leases_lost = 0
        self.bytes_fetched = 0
        self.bytes_cached = 0

    # -- lifecycle -------------------------------------------------------
    def request_stop(self) -> None:
        self._stop = True

    def run(self) -> int:
        """The worker loop; returns the number of units completed."""
        self.client.register_worker(self.name, info={
            "pid": os.getpid(), "host": socket.gethostname(),
            "root": self.root})
        self._emit(f"[worker {self.name}] registered with "
                   f"{self.client.base_url}")
        idle_since: Optional[float] = None
        while not self._stop:
            if self.max_units and self.units_completed >= self.max_units:
                break
            try:
                grant = self.client.lease(self.name, self.lease_s)
            except ServiceError as exc:
                if exc.status == 0:
                    self._emit(f"[worker {self.name}] server unreachable: "
                               f"{exc.message}; retrying")
                    time.sleep(self.poll_s)
                    continue
                raise
            if grant is None:
                now = time.monotonic()
                idle_since = idle_since if idle_since is not None else now
                if self.idle_exit_s and now - idle_since >= self.idle_exit_s:
                    self._emit(f"[worker {self.name}] idle "
                               f"{self.idle_exit_s:g}s; exiting")
                    break
                time.sleep(self.poll_s)
                continue
            idle_since = None
            self._run_unit(grant)
        self._emit(f"[worker {self.name}] done: "
                   f"{self.units_completed} completed, "
                   f"{self.units_failed} failed, "
                   f"{self.leases_lost} lease(s) lost")
        return self.units_completed

    # -- staging ---------------------------------------------------------
    def _stage_digest(self, digest: str) -> Tuple[str, int, int]:
        """Ensure ``traces/<digest>`` exists and is intact; returns
        ``(path, fetched_bytes, cached_bytes)``."""
        local = os.path.join(self.traces_dir, digest)
        if os.path.isdir(local):
            if not self.verify or digest_tree(local) == digest:
                size = sum(
                    os.path.getsize(os.path.join(dirpath, fname))
                    for dirpath, _dirs, files in os.walk(local)
                    for fname in files)
                return local, 0, size
            # Corrupt local copy (torn fetch, disk trouble, chaos):
            # refuse to replay garbage — drop it and fetch fresh bytes.
            self._emit(f"[worker {self.name}] local artifact {digest[:12]} "
                       f"failed verification; refetching")
            shutil.rmtree(local, ignore_errors=True)
        data = self.client.fetch_trace(digest)
        tmp = os.path.join(self.traces_dir,
                           f".tmp-{digest}-{os.getpid()}")
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            unpack_tree_tar(data, tmp)
            actual = digest_tree(tmp)
            if actual != digest:
                raise ValueError(
                    f"fetched artifact hashes to {actual[:12]}, "
                    f"not {digest[:12]}")
        except BaseException:
            shutil.rmtree(tmp, ignore_errors=True)
            raise
        try:
            os.rename(tmp, local)
        except OSError:
            shutil.rmtree(tmp, ignore_errors=True)
            if not os.path.isdir(local):
                raise
        return local, len(data), 0

    def _stage_unit(self, unit: Dict[str, Any]
                    ) -> Tuple[Dict[str, Any], int, int]:
        """Stage every artifact the unit references; returns the
        rewritten scenario plus fetched/cached byte counts."""
        scenario = json.loads(json.dumps(unit["scenario"]))  # deep copy
        fetched = cached = 0
        trace = scenario.get("trace") or {}
        if trace.get("kind") == "dir":
            digests = unit.get("digests") or []
            if not digests:
                raise ValueError("dir-trace unit carries no digest")
            local, f, c = self._stage_digest(digests[0])
            fetched += f
            cached += c
            trace["path"] = local
            scenario["trace"] = trace
        platform = scenario.get("platform") or {}
        xml_path = platform.get("xml_path")
        if xml_path and not os.path.exists(xml_path):
            raise ValueError(
                f"platform file {xml_path!r} is not visible from this "
                f"worker (server-local paths do not ship; see "
                f"docs/distributed.md)")
        faults = scenario.get("faults") or {}
        plan_path = faults.get("plan_path")
        if plan_path and not os.path.exists(plan_path):
            raise ValueError(
                f"fault plan {plan_path!r} is not visible from this "
                f"worker (use inline plan_json for distributed runs)")
        # The server owns retries/backoff/quarantine; one attempt here.
        scenario["max_retries"] = 0
        return scenario, fetched, cached

    # -- one unit --------------------------------------------------------
    def _run_unit(self, grant: Dict[str, Any]) -> None:
        unit = grant["unit"]
        unit_id, token = unit["id"], grant["token"]
        name = unit["name"]
        tag = " (speculative)" if grant.get("speculative") else ""
        self._emit(f"[worker {self.name}] unit {unit_id} ({name})"
                   f"{tag}: leased")
        t0 = time.monotonic()
        try:
            scenario, fetched, cached = self._stage_unit(unit)
        except (ServiceError, ValueError, OSError) as exc:
            self._post_failure(unit_id, token, name, {
                "type": type(exc).__name__, "message": str(exc),
                "traceback": ""}, time.monotonic() - t0)
            return
        self.bytes_fetched += fetched
        self.bytes_cached += cached
        try:
            self.client.ack_staged(unit_id, self.name,
                                   fetched_bytes=fetched,
                                   cached_bytes=cached)
        except ServiceError:
            pass    # accounting only; never worth failing the unit

        spec_doc = {"name": f"unit-{unit_id}", "jobs": 1,
                    "retry_backoff": 0.0, "scenarios": [scenario]}
        out_dir = os.path.join(self.units_dir, unit_id)
        shutil.rmtree(out_dir, ignore_errors=True)
        process = self._ctx.Process(
            target=_unit_main, args=(spec_doc, out_dir, self.cache_dir),
            name=f"repro-unit-{unit_id}")
        process.start()
        lost = False
        hb_due = time.monotonic() + self.lease_s / 3.0
        while process.is_alive():
            time.sleep(min(0.2, self.lease_s / 10.0))
            if time.monotonic() < hb_due:
                continue
            hb_due = time.monotonic() + self.lease_s / 3.0
            try:
                self.client.heartbeat(unit_id, self.name, token,
                                      self.lease_s)
            except ServiceError as exc:
                if exc.status == 409:
                    # Superseded: expired + requeued, cancelled, or a
                    # speculative twin already won.  Stop burning CPU.
                    self._emit(f"[worker {self.name}] unit {unit_id}: "
                               f"lease lost ({exc.message}); aborting")
                    stop_process(process)
                    lost = True
                    break
                # Unreachable server: keep computing, try again next beat.
        process.join()
        wall = time.monotonic() - t0
        if lost:
            self.leases_lost += 1
            shutil.rmtree(out_dir, ignore_errors=True)
            return
        self._report(unit_id, token, name, scenario, out_dir, wall)
        shutil.rmtree(out_dir, ignore_errors=True)

    def _report(self, unit_id: str, token: str, name: str,
                scenario: Dict[str, Any], out_dir: str,
                wall: float) -> None:
        from ..campaign.store import CampaignStore

        record = CampaignStore(out_dir).read_run(name)
        if record is None:
            self._post_failure(unit_id, token, name, {
                "type": "WorkerDied",
                "message": "unit runner exited without a record",
                "traceback": ""}, wall)
            return
        if record.ok:
            try:
                self.client.post_result(unit_id, self.name, token, {
                    "status": "ok", "result": record.result,
                    "wall_seconds": wall})
            except ServiceError as exc:
                if exc.status != 409:
                    raise
                self.leases_lost += 1
                self._emit(f"[worker {self.name}] unit {unit_id}: result "
                           f"discarded (lease superseded)")
                return
            self.units_completed += 1
            self._emit(f"[worker {self.name}] unit {unit_id} ({name}): "
                       f"ok in {wall:.2f}s")
            return
        error = record.error or {"type": "Unknown", "message": "",
                                 "traceback": ""}
        self._post_failure(unit_id, token, name, error, wall,
                           status=record.status)

    def _post_failure(self, unit_id: str, token: str, name: str,
                      error: Dict[str, str], wall: float,
                      status: str = "failed") -> None:
        self.units_failed += 1
        self._emit(f"[worker {self.name}] unit {unit_id} ({name}): "
                   f"{status}: {error.get('message', '')}")
        try:
            self.client.post_result(unit_id, self.name, token, {
                "status": status, "error": error, "wall_seconds": wall})
        except ServiceError as exc:
            if exc.status != 409:
                raise
            self.leases_lost += 1

    # -- push-back (optional) --------------------------------------------
    def push_trace(self, digest: str) -> bool:
        """Push a locally staged tree (e.g. one that grew ``.tic``
        sidecars) back to the server store; False when absent locally."""
        local = os.path.join(self.traces_dir, digest)
        if not os.path.isdir(local):
            return False
        self.client.push_trace(digest, pack_tree_tar(local))
        return True


def main_worker(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-worker",
        description="Remote execution worker for the repro campaign "
                    "service: leases work units, stages artifacts by "
                    "content digest, runs them through the campaign "
                    "runner, and streams results back.")
    parser.add_argument("--server", required=True,
                        help="service base URL, e.g. http://host:8642")
    parser.add_argument("--root", required=True,
                        help="worker root (artifact cache + scratch)")
    parser.add_argument("--name", default=None,
                        help="worker name (default: <host>-<pid>)")
    parser.add_argument("--lease-s", type=float, default=15.0,
                        help="lease duration; heartbeats every third "
                             "of it (default 15)")
    parser.add_argument("--poll-s", type=float, default=1.0,
                        help="idle poll interval (default 1)")
    parser.add_argument("--max-units", type=int, default=0,
                        help="exit after N completed units (0 = forever)")
    parser.add_argument("--idle-exit-s", type=float, default=0.0,
                        help="exit after this long with nothing to lease "
                             "(0 = never)")
    parser.add_argument("--no-verify", action="store_true",
                        help="skip re-hashing locally cached artifacts")
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    worker = Worker(
        args.server, args.root, args.name,
        lease_s=args.lease_s, poll_s=args.poll_s,
        max_units=args.max_units, idle_exit_s=args.idle_exit_s,
        verify=not args.no_verify,
        log=(None if args.quiet else print))
    signal.signal(signal.SIGTERM,
                  lambda _s, _f: worker.request_stop())
    try:
        worker.run()
    except KeyboardInterrupt:
        pass
    except ServiceError as exc:
        print(f"repro-worker: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":   # pragma: no cover - `python -m` entry
    sys.exit(main_worker())
