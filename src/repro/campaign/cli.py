"""``repro-campaign`` — run, inspect, and report experiment campaigns.

* ``repro-campaign run SPEC.json --out DIR [--jobs N] [--no-cache]
  [--resume]`` — execute a campaign spec (see
  :mod:`repro.campaign.spec`; ``base``/``vary`` grids supported).
* ``repro-campaign status DIR`` — per-scenario state of a campaign
  directory plus the fleet counters.
* ``repro-campaign report DIR [--output FILE]`` — the actual-vs-simulated
  comparison table over the recorded runs.

Against a running ``repro-service`` the same tool becomes the thin
client (see :mod:`repro.service`):

* ``repro-campaign submit SPEC.json --server URL [--tenant T]
  [--priority N] [--wait]`` — enqueue the campaign on the server.
* ``repro-campaign status --server URL [JOB] [--workers]`` — list jobs,
  show one, or show the worker fleet + dispatch counters.
* ``repro-campaign results JOB --server URL [--output FILE]`` — manifest
  plus run records of a finished job.
* ``repro-campaign cancel JOB --server URL`` — cancel (queued jobs die
  immediately; a running job's unfinished units are stopped).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional

from .report import render_report, render_status
from .runner import run_campaign
from .spec import load_campaign_spec

__all__ = ["main_campaign"]


def _fmt_job_line(job: Dict[str, Any]) -> str:
    error = f"  {job['error']}" if job.get("error") else ""
    return (f"{job['id']}  {job['state']:<9}  tenant={job['tenant']}"
            f"  prio={job['priority']}  campaign={job['campaign']}"
            f"  scenarios={job['n_scenarios']}{error}")


def main_campaign(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-campaign",
        description="Parallel experiment campaigns over the acquire/"
                    "calibrate/replay pipeline, with content-addressed "
                    "result caching.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a campaign spec")
    run_p.add_argument("spec", help="campaign spec JSON file")
    run_p.add_argument("--out", required=True,
                       help="campaign directory (runs/, manifest.json, "
                            "cache/)")
    run_p.add_argument("--jobs", type=int, default=None,
                       help="worker processes (default: the spec's)")
    run_p.add_argument("--no-cache", action="store_true",
                       help="execute every scenario even when a cached "
                            "result exists (results are still cached)")
    run_p.add_argument("--resume", action="store_true",
                       help="also serve scenarios whose stored run record "
                            "already succeeded with the same cache key")
    run_p.add_argument("--cache-dir", default=None,
                       help="shared result cache location (default: "
                            "<out>/cache)")
    run_p.add_argument("--quiet", action="store_true",
                       help="suppress per-scenario progress lines")

    status_p = sub.add_parser("status", help="show a campaign directory, "
                                             "or jobs on a server")
    status_p.add_argument("out", nargs="?", default=None,
                          help="campaign directory (local mode) or job id "
                               "(with --server; omit to list all jobs)")
    status_p.add_argument("--server", default=None,
                          help="repro-service base URL")
    status_p.add_argument("--tenant", default=None,
                          help="with --server: only this tenant's jobs")
    status_p.add_argument("--workers", action="store_true",
                          help="with --server: show the worker fleet and "
                               "distributed-dispatch counters instead of "
                               "jobs")

    report_p = sub.add_parser("report", help="comparison table of a "
                                             "campaign's results")
    report_p.add_argument("out", help="campaign directory")
    report_p.add_argument("--output", default=None,
                          help="write the table here instead of stdout")

    submit_p = sub.add_parser("submit", help="submit a campaign spec to a "
                                             "repro-service server")
    submit_p.add_argument("spec", help="campaign spec JSON file")
    submit_p.add_argument("--server", required=True,
                          help="repro-service base URL, e.g. "
                               "http://127.0.0.1:8642")
    submit_p.add_argument("--tenant", default="default",
                          help="tenant to charge (default: 'default')")
    submit_p.add_argument("--priority", type=int, default=0,
                          help="higher runs earlier within the tenant")
    submit_p.add_argument("--wait", action="store_true",
                          help="poll until the job finishes, streaming "
                               "per-scenario events")
    submit_p.add_argument("--timeout", type=float, default=None,
                          help="with --wait: give up after this many "
                               "seconds")

    results_p = sub.add_parser("results", help="fetch a job's manifest and "
                                               "run records from a server")
    results_p.add_argument("job", help="job id")
    results_p.add_argument("--server", required=True,
                           help="repro-service base URL")
    results_p.add_argument("--output", default=None,
                           help="write the JSON document here instead of "
                                "stdout")

    cancel_p = sub.add_parser("cancel", help="cancel a job on a server")
    cancel_p.add_argument("job", help="job id")
    cancel_p.add_argument("--server", required=True,
                          help="repro-service base URL")

    args = parser.parse_args(argv)

    if args.command in ("submit", "results", "cancel") or (
            args.command == "status" and args.server):
        return _remote_command(args)

    if args.command == "run":
        try:
            spec = load_campaign_spec(args.spec)
        except (OSError, ValueError) as exc:
            print(f"bad campaign spec {args.spec!r}: {exc}", file=sys.stderr)
            return 2
        result = run_campaign(
            spec, args.out, jobs=args.jobs,
            use_cache=not args.no_cache, resume=args.resume,
            cache_dir=args.cache_dir,
            log=None if args.quiet else print,
        )
        metrics = result.metrics
        print(f"{metrics.completed}/{metrics.scenarios_total} scenarios ok "
              f"({metrics.cached_hits} cached, {metrics.failed} failed, "
              f"{metrics.replays_executed} replays executed) in "
              f"{metrics.wall_seconds:.2f}s")
        if not result.ok:
            print(f"failed: {', '.join(result.failed_names)}",
                  file=sys.stderr)
            return 1
        return 0

    if args.command == "status":
        if not args.out:
            print("status: need a campaign directory (or --server URL)",
                  file=sys.stderr)
            return 2
        print(render_status(args.out))
        return 0

    # report
    text = render_report(args.out)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"report written to {args.output}")
    else:
        print(text)
    return 0


def _fleet_status(client: Any) -> int:
    """``status --server URL --workers``: fleet + dispatch counters."""
    workers = client.workers()
    if not workers:
        print("no workers registered")
    for worker in workers:
        age = worker.get("last_seen_age_s", 0.0)
        leases = worker.get("active_leases", [])
        busy = (f"leased: {', '.join(leases)}" if leases else "idle")
        print(f"{worker['name']}: {busy}  "
              f"done={worker.get('units_done', 0)} "
              f"failed={worker.get('units_failed', 0)}  "
              f"last seen {age:.1f}s ago")
    dispatch = client.metrics().get("dispatch", {})
    units = dispatch.get("units_by_state", {})
    if units:
        states = " ".join(f"{state}={count}"
                          for state, count in sorted(units.items()))
        print(f"units: {states}")
    counters = dispatch.get("counters", {})
    if counters:
        print("counters:")
        for name, value in sorted(counters.items()):
            print(f"  {name}: {value}")
    return 0


def _remote_command(args: argparse.Namespace) -> int:
    """submit/status/results/cancel against a repro-service server."""
    from ..service.client import ServiceClient, ServiceError

    client = ServiceClient(args.server)
    try:
        if args.command == "submit":
            try:
                with open(args.spec, "r", encoding="utf-8") as handle:
                    spec_doc = json.load(handle)
            except (OSError, ValueError) as exc:
                print(f"bad campaign spec {args.spec!r}: {exc}",
                      file=sys.stderr)
                return 2
            job = client.submit(spec_doc, tenant=args.tenant,
                                priority=args.priority)
            print(f"submitted job {job['id']} "
                  f"(campaign={job['campaign']}, tenant={job['tenant']}, "
                  f"{job['n_scenarios']} scenarios)")
            if not args.wait:
                return 0

            def _show(event: Dict[str, Any]) -> None:
                if event.get("event") == "scenario":
                    source = (" [" + event["cache_source"] + "]"
                              if event.get("cache_hit") else "")
                    print(f"  {event.get('name')}: "
                          f"{event.get('status')}{source}")

            try:
                doc = client.wait(job["id"], timeout_s=args.timeout,
                                  on_event=_show)
            except TimeoutError as exc:
                print(str(exc), file=sys.stderr)
                return 1
            print(f"job {doc['id']} {doc['state']}"
                  + (f": {doc['error']}" if doc.get("error") else ""))
            return 0 if doc["state"] == "DONE" else 1

        if args.command == "status":
            if getattr(args, "workers", False):
                return _fleet_status(client)
            if args.out:
                doc = client.job(args.out)
                print(_fmt_job_line(doc))
                progress = doc.get("progress")
                if progress:
                    print(f"  progress: {progress['scenarios_done']}/"
                          f"{progress['scenarios_total']} scenarios")
                return 0
            jobs = client.jobs(tenant=args.tenant)
            if not jobs:
                print("no jobs")
                return 0
            for job in jobs:
                print(_fmt_job_line(job))
            return 0

        if args.command == "results":
            doc = client.results(args.job)
            text = json.dumps(doc, indent=2, sort_keys=True)
            if args.output:
                with open(args.output, "w", encoding="utf-8") as handle:
                    handle.write(text + "\n")
                print(f"results written to {args.output}")
            else:
                print(text)
            return 0

        # cancel
        job = client.cancel(args.job)
        print(f"job {job['id']} -> {job['state']}"
              + ("" if job["state"] == "CANCELLED"
                 else " (cancel requested; its units will be stopped)"))
        return 0
    except ServiceError as exc:
        print(f"service error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main_campaign())
