"""``repro-worker``: a remote execution worker for the campaign service.

A worker is the remote counterpart of one of the server's local slots
(protocol and recovery story: ``docs/distributed.md``).  It is
stdlib-only; its *root* holds only
``traces/<digest>/...``, a content-addressed artifact cache mirroring
the server store (it grows warm ``.tic`` sidecars).  The loop::

    register → lease → stage artifacts by digest → one child per unit
             → heartbeat while it runs → post the verdict → lease …

**Staging.**  A digest already present locally is always re-verified
(``digest_tree``, which skips ``.tic`` sidecars) and reused: zero bytes
move.  A missing or corrupt tree is fetched as a tar, verified, and
published atomically; fetched vs. cached bytes are reported so the
server can account ``bytes_shipped`` / ``bytes_saved_by_cache``.

**One unit, one child.**  A unit is one attempt at one scenario in one
:class:`~repro.campaign.runner.ScenarioChild` — the same a local slot
runs — whose verdict (result, exception, timeout, death) arrives over a
pipe; the *server's* dispatcher owns retry/backoff/quarantine.  The
worker starts without the replay stack; its first unit imports it, and
every child after that is forked warm.  While
the child runs, the parent heartbeats every ``lease_s / 3``.  A 409
means the lease was lost (expired and requeued, or a speculative twin
already won): the child is stopped on the spot and nothing is posted.
A 409 on the result post is the same race lost at the finish line —
the result is discarded server-side and counted, the worker moves on.
An unreachable server is waited out: heartbeats are skipped and the
post is retried every ``poll_s`` while the lease could still be valid.

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
from multiprocessing.connection import wait as conn_wait
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..campaign.cache import digest_tree, tree_files
from ..campaign.dispatch import verdict_doc
from ..campaign.queue import positive_finite
from ..campaign.runner import ScenarioChild
from .artifacts import unpack_tree_tar
from .client import ServiceClient, ServiceError

__all__ = ["Worker", "main_worker"]


class Worker:
    """One remote worker process: lease, stage, execute, report."""

    def __init__(self, server_url: str, root: str,
                 name: Optional[str] = None, *,
                 lease_s: float = 15.0, poll_s: float = 1.0,
                 max_units: int = 0, idle_exit_s: float = 0.0,
                 log: Optional[Callable[[str], None]] = None) -> None:
        self.lease_s = positive_finite(lease_s, "lease_s")
        self.client = ServiceClient(server_url)
        self.name = name or f"{socket.gethostname()}-{os.getpid()}"
        self.root = os.path.abspath(root)
        self.traces_dir = os.path.join(self.root, "traces")
        os.makedirs(self.traces_dir, exist_ok=True)
        self.poll_s = poll_s
        self.max_units = max_units
        self.idle_exit_s = idle_exit_s
        self._emit = log if log is not None else (lambda _msg: None)
        self._stop = False
        self.units_completed = 0
        self.units_failed = 0
        self.leases_lost = 0

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
            if digest_tree(local) == digest:
                # The bytes a fetch would have shipped: sidecars this
                # worker compiled itself do not count.
                size = sum(os.path.getsize(path)
                           for path, _rel in tree_files(local))
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
        # The lease is known good until here; heartbeats push it out.
        lease_until = t0 + self.lease_s
        try:
            scenario, fetched, cached = self._stage_unit(unit)
        except (ServiceError, ValueError, OSError) as exc:
            self._post(unit_id, token, name, "failed", {
                "type": type(exc).__name__, "message": str(exc),
                "traceback": ""}, time.monotonic() - t0, lease_until)
            return
        try:
            self.client.ack_staged(unit_id, self.name,
                                   fetched_bytes=fetched,
                                   cached_bytes=cached)
        except ServiceError:
            pass    # accounting only; never worth failing the unit

        child = ScenarioChild(scenario, scenario["timeout_s"],
                              name=f"repro-unit-{unit_id}")
        hb_due = time.monotonic() + self.lease_s / 3.0
        while True:
            wake = min(hb_due, child.deadline)
            if conn_wait([child.conn],
                         timeout=max(0.0, wake - time.monotonic())):
                status, body = child.collect()
                break
            now = time.monotonic()
            if now >= child.deadline:
                status, body = child.expire()
                break
            if now < hb_due:
                continue
            hb_due = now + self.lease_s / 3.0
            try:
                self.client.heartbeat(unit_id, self.name, token,
                                      self.lease_s)
                lease_until = time.monotonic() + self.lease_s
            except ServiceError as exc:
                if exc.status == 409:
                    # Superseded: expired + requeued, cancelled, or a
                    # speculative twin already won.  Stop burning CPU.
                    self._emit(f"[worker {self.name}] unit {unit_id}: "
                               f"lease lost ({exc.message}); aborting")
                    child.abort()
                    self.leases_lost += 1
                    return
                # Unreachable server: keep computing, try again next beat.
        self._post(unit_id, token, name, status, body,
                   time.monotonic() - t0, lease_until)

    def _post(self, unit_id: str, token: str, name: str, status: str,
              body: Dict[str, Any], wall: float,
              lease_until: float) -> None:
        """Post a unit's verdict (:func:`verdict_doc`).  An unreachable
        server is retried every ``poll_s`` until the lease would have
        run out; then (as on a 409) the verdict is dropped — expiry
        requeues the unit server-side."""
        ok = status == "ok"
        doc = verdict_doc(status, body, wall)
        if not ok:
            self.units_failed += 1
            self._emit(f"[worker {self.name}] unit {unit_id} ({name}): "
                       f"{status}: {body.get('message', '')}")
        while True:
            try:
                self.client.post_result(unit_id, self.name, token, doc)
                break
            except ServiceError as exc:
                if exc.status == 0 and time.monotonic() < lease_until:
                    time.sleep(self.poll_s)
                    continue
                if exc.status not in (0, 409):
                    raise
                self.leases_lost += 1
                self._emit(f"[worker {self.name}] unit {unit_id}: verdict "
                           f"discarded ({exc.message})")
                return
        if ok:
            self.units_completed += 1
            self._emit(f"[worker {self.name}] unit {unit_id} ({name}): "
                       f"ok in {wall:.2f}s")


def _lease_seconds(text: str) -> float:
    try:
        return positive_finite(text, "--lease-s")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def main_worker(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-worker",
        description="Remote execution worker for the repro campaign "
                    "service: leases work units, stages artifacts by "
                    "content digest, runs each in one child process, "
                    "and streams results back.")
    parser.add_argument("--server", required=True,
                        help="service base URL, e.g. http://host:8642")
    parser.add_argument("--root", required=True,
                        help="worker root (the artifact cache)")
    parser.add_argument("--name", default=None,
                        help="worker name (default: <host>-<pid>)")
    parser.add_argument("--lease-s", type=_lease_seconds, default=15.0,
                        help="lease duration; heartbeats every third "
                             "of it (default 15)")
    parser.add_argument("--poll-s", type=float, default=1.0,
                        help="idle poll interval (default 1)")
    parser.add_argument("--max-units", type=int, default=0,
                        help="exit after N completed units (0 = forever)")
    parser.add_argument("--idle-exit-s", type=float, default=0.0,
                        help="exit after this long with nothing to lease "
                             "(0 = never)")
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    worker = Worker(
        args.server, args.root, args.name,
        lease_s=args.lease_s, poll_s=args.poll_s,
        max_units=args.max_units, idle_exit_s=args.idle_exit_s,
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
