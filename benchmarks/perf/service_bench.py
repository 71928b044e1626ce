"""``campaign-service-8u``: one sweep of distinct scenarios, run three ways.

* ``campaign_wall_s`` — ``run_campaign(spec, out, jobs=1)``;
* ``service_wall_s`` — an in-process ``Supervisor(max_jobs=2)`` in local
  dispatch, the sweep submitted together as small jobs and ticked every
  20 ms;
* ``workers_wall_s`` — ``repro.service.cli --dispatch workers`` plus one
  ``repro-worker`` over HTTP, the sweep as one job.

All load comes from this process (``nproc`` is 2: never more than 2 job
slots, 1 worker, 1 client connection) and every loop is closed.  The
server, the worker and the supervisor start once, in set-up.  Scenario
seeds are unique per rep, so nothing is ever served from a cache, and
equal across the three legs of a rep, so their result records must be
projection-identical.
"""

from __future__ import annotations

import os
import re
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

from repro.campaign import (
    CampaignSpec, Scenario, execute_scenario, run_campaign,
    scenario_cache_key,
)
from repro.core.synth import write_synthetic_lu_trace
from repro.platforms import bordereau
from repro.service import (
    ArtifactStore, JobQueue, ServiceClient, STATE_DONE, Supervisor,
    deterministic_projection,
)
from repro.service.artifacts import pack_tree_tar, unpack_tree_tar
from repro.service.supervisor import read_events
from repro.smpi import round_robin_deployment

from . import replay_bench, workloads
from .harness import Pacer, SpanRecorder, new_outcome, timed

__all__ = ["setup", "measure", "trace", "golden_record"]

START_TIMEOUT_S = 60.0
JOB_TIMEOUT_S = 150.0


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def _scenario(config: Dict[str, Any], index: int, seed: int) -> dict:
    return {
        "name": f"u{index}", "ranks": config["ranks"],
        "trace": {"kind": "synth", "family": "lu", "cls": config["cls"],
                  "iterations": config["iterations"],
                  "inorm": config["inorm"], "seed": seed,
                  "jitter": workloads.JITTER},
        "platform": {"name": config["platform"], "hosts": config["hosts"]},
        "calibration": {"kind": "fixed",
                        "speed": config["calibrated_speed"]},
    }


def _scenarios(ctx: Dict[str, Any], rep: int,
               units: Optional[int] = None) -> List[dict]:
    """The sweep of one rep: seeds never repeat across reps or runs."""
    config = ctx["config"]
    base = ctx["seed"] * 100_000 + rep * 100
    return [_scenario(config, i, base + i)
            for i in range(units or config["units"])]


def _spec(name: str, scenarios: List[dict]) -> dict:
    return {"name": name, "jobs": 1, "scenarios": scenarios}


# ----------------------------------------------------------------------
# Set-up: server + worker processes, local supervisor
# ----------------------------------------------------------------------
def _spawn(args: List[str], log_path: str) -> subprocess.Popen:
    with open(log_path, "w") as log:
        return subprocess.Popen([sys.executable, "-u", "-m"] + args,
                                stdout=log, stderr=subprocess.STDOUT)


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
    proc.wait()


def setup(name: str, seed: int, quick: bool, workdir: str) -> Dict[str, Any]:
    config = workloads.workload_config(name, quick)
    ctx: Dict[str, Any] = {
        "name": name, "seed": seed, "quick": quick, "workdir": workdir,
        "config": dict(config, seed=seed, jitter=workloads.JITTER),
        "procs": [], "n_out": 0,
    }
    ctx["teardown"] = lambda: _teardown(ctx)
    try:
        server_log = os.path.join(workdir, "server.log")
        server = _spawn(
            ["repro.service.cli", "--root", os.path.join(workdir, "server"),
             "--port", "0", "--tick-s", str(config["tick_s"]),
             "--dispatch", "workers"], server_log)
        ctx["procs"].append(server)
        url = _wait_for(lambda: _listening_url(server, server_log),
                        "server to report its port")
        worker = _spawn(
            ["repro.service.worker", "--server", url,
             "--root", os.path.join(workdir, "worker"), "--name", "w0",
             "--lease-s", str(config["lease_s"]),
             "--poll-s", str(config["poll_s"])],
            os.path.join(workdir, "worker.log"))
        ctx["procs"].append(worker)
        ctx["client"] = client = ServiceClient(url)
        _wait_for(lambda: client.workers() or None, "worker to register")
        ctx["supervisor"] = Supervisor(os.path.join(workdir, "supervisor"),
                                       max_jobs=2)
    except BaseException:
        _teardown(ctx)
        raise
    return ctx


def _listening_url(server: subprocess.Popen, log_path: str) -> Optional[str]:
    if server.poll() is not None:
        with open(log_path) as handle:
            raise RuntimeError(f"server died: {handle.read()}")
    with open(log_path) as handle:
        match = re.search(r"listening on http://[^:]+:(\d+)", handle.read())
    return f"http://127.0.0.1:{match.group(1)}" if match else None


def _wait_for(probe, what: str):
    deadline = time.monotonic() + START_TIMEOUT_S
    while time.monotonic() < deadline:
        value = probe()
        if value:
            return value
        time.sleep(0.01)
    raise TimeoutError(f"timed out waiting for the {what}")


def _teardown(ctx: Dict[str, Any]) -> None:
    supervisor = ctx.pop("supervisor", None)
    if supervisor is not None:
        supervisor.shutdown()
    for proc in reversed(ctx["procs"]):
        _stop(proc)
    ctx["procs"] = []


# ----------------------------------------------------------------------
# The three legs.  Each returns {scenario name: result payload} and
# raises if any unit did not finish DONE.
# ----------------------------------------------------------------------
def _leg_campaign(ctx: Dict[str, Any], scenarios: List[dict]) -> dict:
    ctx["n_out"] += 1
    out_dir = os.path.join(ctx["workdir"], f"campaign-{ctx['n_out']}")
    result = run_campaign(CampaignSpec.from_dict(_spec("sweep", scenarios)),
                          out_dir, jobs=1, log=None)
    if not result.ok:
        raise RuntimeError(f"scenarios failed: {result.failed_names}")
    ctx["last_campaign"] = (out_dir, result)
    return {name: rec.result for name, rec in result.records.items()}


def _leg_service(ctx: Dict[str, Any], scenarios: List[dict]) -> dict:
    supervisor = ctx["supervisor"]
    n_jobs = min(ctx["config"]["supervisor_jobs"], len(scenarios))
    ids = [supervisor.submit(_spec(f"sweep-{j}", scenarios[j::n_jobs])).id
           for j in range(n_jobs)]
    deadline = time.monotonic() + JOB_TIMEOUT_S
    while True:
        supervisor.tick()
        jobs = [supervisor.queue.get(job_id) for job_id in ids]
        if all(job.terminal for job in jobs):
            break
        if time.monotonic() > deadline:
            raise TimeoutError("supervisor jobs did not finish")
        time.sleep(ctx["config"]["tick_s"])
    bad = [(job.id, job.state, job.error) for job in jobs
           if job.state != STATE_DONE]
    if bad:
        raise RuntimeError(f"jobs not DONE: {bad}")
    ctx["last_service_jobs"] = ids
    return {rec["name"]: rec["result"] for job_id in ids
            for rec in supervisor.results_doc(job_id)["records"]}


def _leg_workers(ctx: Dict[str, Any], scenarios: List[dict]) -> dict:
    client = ctx["client"]
    job = client.submit(_spec("sweep", scenarios))
    done = client.wait(job["id"], timeout_s=JOB_TIMEOUT_S,
                       poll_s=ctx["config"]["poll_s"])
    units = client.job_units(job["id"])
    bad = [(u["name"], u["state"]) for u in units if u["state"] != "DONE"]
    if done["state"] != STATE_DONE or bad or len(units) != len(scenarios):
        raise RuntimeError(
            f"job {done['state']} ({done.get('error')}), units {bad}")
    ctx["last_workers_job"] = (job["id"], units)
    return {rec["name"]: rec["result"]
            for rec in client.results(job["id"])["records"]}


LEGS = {"campaign_wall_s": _leg_campaign,
        "service_wall_s": _leg_service,
        "workers_wall_s": _leg_workers}


def _run_rep(ctx: Dict[str, Any], scenarios: List[dict],
             out: Dict[str, Any], pacer: Optional[Pacer] = None,
             recorder: Optional[SpanRecorder] = None,
             legs=tuple(LEGS)) -> Dict[str, dict]:
    """``legs`` (all three unless told) over one sweep, walls recorded
    when a ``pacer`` is given; returns the per-leg payloads."""
    payloads: Dict[str, dict] = {}
    for leg in legs:
        run_leg = LEGS[leg]
        out["attempted"] += len(scenarios)
        if recorder is not None:
            run_leg = recorder.wrap(leg, run_leg)
        try:
            wall, payloads[leg] = timed(lambda: run_leg(ctx, scenarios),
                                        sync=True)
        except Exception as exc:  # noqa: BLE001 - a failed op is a result
            out["failed"] += len(scenarios)
            out["failures"].append(
                f"{leg} raised {type(exc).__name__}: {exc}")
            continue
        if pacer is not None:
            if leg not in out["samples"]:
                out["samples"][leg] = pacer.new_walls()
            pacer.add(out["samples"][leg], wall)
    _check_projections(payloads, out)
    return payloads


def _check_projections(payloads: Dict[str, dict],
                       out: Dict[str, Any]) -> None:
    """Every way of running a scenario must give the same deterministic
    projection of its result record."""
    if not payloads:
        return
    reference_leg = next(iter(payloads))
    reference = payloads[reference_leg]
    for leg, records in payloads.items():
        for name, payload in reference.items():
            out["attempted"] += 1
            if name not in records or (
                    deterministic_projection(records[name])
                    != deterministic_projection(payload)):
                out["failed"] += 1
                out["failures"].append(
                    f"{leg} record of {name} differs from {reference_leg}")


def measure(ctx: Dict[str, Any], seconds: float,
            golden: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    out = new_outcome()
    # Untimed warm-up: two units (both supervisor slots) through every leg.
    _run_rep(ctx, _scenarios(ctx, 99, units=2), out)
    pacer = Pacer()
    start = time.perf_counter()
    rep = 0
    first: Dict[str, dict] = {}
    while True:
        payloads = _run_rep(ctx, _scenarios(ctx, rep), out, pacer)
        if rep == 0:
            first = payloads
        rep += 1
        spent = time.perf_counter() - start
        # A sweep takes ~7 s, so two of them already fill the budget;
        # the median of three is what steadies the worker leg, whose
        # wall depends on where its polls happen to fall.
        if (rep >= ctx["config"]["min_sweeps"]
                and spent + spent / rep > seconds):
            break
    # The worker leg is 5 s of a 7 s sweep: the two short legs get as
    # many sweeps again without it.
    for extra in range(rep, 2 * rep):
        _run_rep(ctx, _scenarios(ctx, extra), out, pacer,
                 legs=("campaign_wall_s", "service_wall_s"))
    for walls in out["samples"].values():
        pacer.finish(walls)
    _check_golden(first, golden, out)
    return out


def _check_golden(payloads: Dict[str, dict],
                  golden: Optional[Dict[str, Any]],
                  out: Dict[str, Any]) -> None:
    """At the golden seed, rep 0's unit makespans against golden.json."""
    if golden is None or not payloads:
        return
    sims = next(iter(payloads.values()))
    err = max((abs(sims[name]["simulated_time"] - want) / max(1.0, want)
               if name in sims else float("inf"))
              for name, want in golden["simulated_time"].items())
    out["attempted"] += 1
    out["makespan_rel_err"] = max(out["makespan_rel_err"], err)
    if not err <= replay_bench.TOLERANCE:
        out["failed"] += 1
        out["failures"].append(
            f"unit makespans differ from golden.json by {err:.3e}")


def golden_record(ctx: Dict[str, Any]) -> Dict[str, Any]:
    """Rep 0's unit makespans under the most conservative replay the
    campaign spec can express."""
    conservative = {"compiled": "never", "lmm_mode": "reference"}
    sims = {}
    for sdict in _scenarios(ctx, 0):
        payload = execute_scenario(dict(sdict, replay=conservative))
        sims[sdict["name"]] = payload["simulated_time"]
    return {"config": ctx["config"], "replay": conservative,
            "simulated_time": sims}


# ----------------------------------------------------------------------
# Traced run
# ----------------------------------------------------------------------
def trace(ctx: Dict[str, Any], recorder: SpanRecorder,
          golden: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    out = new_outcome()
    out.update(layers={}, absent={})
    try:
        _run_rep(ctx, _scenarios(ctx, 99, units=2), out)
        scenarios = _scenarios(ctx, 0)
        counters_before = ctx["client"].metrics()["dispatch"]["counters"]
        recorder.trace_id += 1
        with recorder.span("sweep"):
            payloads = _run_rep(ctx, scenarios, out, Pacer(), recorder)
        if out["failed"]:
            return out
        _check_golden(payloads, golden, out)
        walls = {leg: out["samples"][leg]["raw"][0] for leg in LEGS}
        layers = out["layers"]
        layers.update(_campaign_layers(ctx, scenarios, walls, recorder))
        layers.update(_queue_layers(ctx))
        layers.update(_artifact_layers(ctx))
        layers.update(_supervisor_layers(ctx, recorder))
        layers.update(_dispatch_layers(ctx, walls, counters_before,
                                       recorder))
    except Exception as exc:  # noqa: BLE001 - a failed op is a result
        out["failed"] += 1
        out["failures"].append(
            f"traced sweep raised {type(exc).__name__}: {exc}")
        return out
    finally:
        out["samples"] = {}     # one rep of each leg: no end-to-end rows
    # The replay part, layer by layer: one unit's trace, replayed
    # directly on the platform the scenarios name.
    replay_bench.profile_and_check(_unit_replay_context(ctx), recorder,
                                   None, out)
    return out


def _median_ms(samples: List[float]) -> float:
    return 1e3 * statistics.median(samples)


def _campaign_layers(ctx, scenarios, walls, recorder) -> Dict[str, float]:
    units = len(scenarios)
    seeds = [s["trace"]["seed"] for s in scenarios]
    grid = {"name": "sweep", "jobs": 1,
            "base": {k: v for k, v in scenarios[0].items() if k != "name"},
            "vary": {"trace.seed": seeds}}
    expand = [timed(lambda: CampaignSpec.from_dict(dict(grid)))[0]
              for _ in range(20)]
    parsed = [Scenario.from_dict(s) for s in scenarios]
    keys = [timed(lambda: scenario_cache_key(s))[0] for s in parsed]
    execute = 0.0
    for sdict in scenarios:
        execute += timed(recorder.wrap(
            "campaign.execute", lambda: execute_scenario(sdict)),
            sync=True)[0]
    out_dir, result = ctx["last_campaign"]
    rerun, again = timed(lambda: run_campaign(
        CampaignSpec.from_dict(_spec("sweep", scenarios)), out_dir,
        jobs=1, log=None))
    if again.metrics.cached_hits != units:
        raise AssertionError("cached rerun executed scenarios")
    return {
        "campaign.expand_ms": _median_ms(expand),
        "campaign.cache_key_ms": _median_ms(keys),
        "campaign.execute_s": execute,
        "campaign.fork_overhead_ms_per_unit":
            1e3 * (walls["campaign_wall_s"] - execute) / units,
        "campaign.cached_rerun_ms": 1e3 * rerun,
    }


def _queue_layers(ctx: Dict[str, Any], n: int = 40) -> Dict[str, float]:
    """JobQueue round-trips on a scratch database."""
    queue = JobQueue(os.path.join(ctx["workdir"], "scratch-queue.db"))
    try:
        submit = [timed(lambda: queue.submit("bench", "sweep", 1))[0]
                  for _ in range(n)]
        claim, jobs = [], []
        for _ in range(n):
            wall, job = timed(queue.claim_next)
            claim.append(wall)
            jobs.append(job)
        scenario = _scenario(ctx["config"], 0, 0)
        for seq, job in enumerate(jobs):
            queue.create_unit(job.id, seq, f"u{seq}", scenario)
        lease = []
        for _ in range(n):
            wall, grant = timed(lambda: queue.lease_unit("bench", 10.0))
            if grant is None:
                raise AssertionError("scratch queue granted no lease")
            lease.append(wall)
    finally:
        queue.close()
    return {"queue.submit_us": 1e6 * statistics.median(submit),
            "queue.claim_us": 1e6 * statistics.median(claim),
            "queue.lease_us": 1e6 * statistics.median(lease)}


def _unit_trace_dir(ctx: Dict[str, Any]) -> str:
    """One unit's trace, written where a scenario's worker writes it."""
    config = ctx["config"]
    trace_dir = os.path.join(ctx["workdir"], "unit-trace")
    if not os.path.isdir(trace_dir):
        write_synthetic_lu_trace(
            trace_dir, config["ranks"], config["iterations"],
            cls=config["cls"], inorm=config["inorm"],
            seed=ctx["seed"], jitter=workloads.JITTER)
    return trace_dir


def _artifact_layers(ctx: Dict[str, Any]) -> Dict[str, float]:
    trace_dir = _unit_trace_dir(ctx)
    store = ArtifactStore(os.path.join(ctx["workdir"], "scratch-store"))
    stage, (staged, hit) = timed(lambda: store.stage_trace_dir(trace_dir))
    if hit:
        raise AssertionError("scratch store already held the trace")
    pack, data = timed(lambda: pack_tree_tar(staged))
    unpack, _ = timed(lambda: unpack_tree_tar(
        data, os.path.join(ctx["workdir"], "scratch-unpacked")))
    mb = len(data) / 1e6
    return {"artifacts.stage_mb_per_s": mb / stage,
            "artifacts.tar_mb_per_s": 2 * mb / (pack + unpack)}


def _supervisor_layers(ctx, recorder) -> Dict[str, float]:
    """Where a local job's slot time went, from its row and event log."""
    supervisor = ctx["supervisor"]
    rows = {"wait": [], "stage": [], "start": [], "reap": [], "over": []}
    for job_id in ctx["last_service_jobs"]:
        job = supervisor.queue.get(job_id)
        events, _ = read_events(supervisor.events_path(job_id))
        state_at = {e["state"]: e["t"] for e in events
                    if e["event"] == "state"}
        scenario_at = [e["t"] for e in events if e["event"] == "scenario"]
        rows["wait"].append(job.started_at - job.submitted_at)
        rows["stage"].append(state_at["RUNNING"] - state_at["STAGING"])
        rows["start"].append(min(scenario_at) - state_at["RUNNING"])
        rows["reap"].append(state_at["DONE"] - max(scenario_at))
        rows["over"].append((job.finished_at - job.started_at)
                            - job.metrics["wall_seconds"])
        recorder.spans.append(["supervisor.job", job.started_at,
                               job.finished_at, -1, job_id])
    return {"supervisor.queue_wait_ms": _median_ms(rows["wait"]),
            "supervisor.stage_ms": _median_ms(rows["stage"]),
            "supervisor.start_ms": _median_ms(rows["start"]),
            "supervisor.reap_ms": _median_ms(rows["reap"]),
            "supervisor.overhead_ms_per_job": _median_ms(rows["over"])}


def _dispatch_layers(ctx, walls, counters_before,
                     recorder) -> Dict[str, float]:
    client = ctx["client"]
    job_id, units = ctx["last_workers_job"]
    busy = sum(u["duration"] for u in units)
    for unit in units:
        recorder.spans.append(["dispatch.unit", unit["started_at"],
                               unit["finished_at"], -1, job_id])
    counters = client.metrics()["dispatch"]["counters"]
    rtt = [timed(client.health)[0] for _ in range(20)]
    wall = walls["workers_wall_s"]
    layers = {
        "dispatch.overhead_ms_per_unit": 1e3 * (wall - busy) / len(units),
        "server.http_rtt_ms": _median_ms(rtt),
        "worker.idle_share": max(0.0, 1.0 - busy / wall),
    }
    for name in ("leases_granted", "leases_expired", "units_requeued"):
        layers[f"dispatch.{name}"] = (counters.get(name, 0)
                                      - counters_before.get(name, 0))
    return layers


def _unit_replay_context(ctx: Dict[str, Any]) -> Dict[str, Any]:
    config = ctx["config"]

    def build_platform():
        platform = bordereau(config["hosts"], ground_truth=False,
                             speed=config["calibrated_speed"])
        return platform, round_robin_deployment(platform, config["ranks"])

    return {"name": ctx["name"], "seed": ctx["seed"], "config": config,
            "trace_dir": _unit_trace_dir(ctx),
            "build_platform": build_platform, "replay_kwargs": {}}
