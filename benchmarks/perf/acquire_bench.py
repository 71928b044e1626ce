"""``lu-acquire-token-32``: the paper's whole pipeline on real LU.

``acquire(program, bordereau(), ranks, workdir=...)`` — instrumented
smpi run, tracer files, tau2simgrid, gather — then the calibrated
``TraceReplayer(..., record_timed_trace=True).replay(ti_dir)``, which
today forces the token driver.  The seed feeds the acquisition's
hardware-counter wobble (``papi_seed`` / ``papi_jitter``).
"""

from __future__ import annotations

import os
from dataclasses import replace
from typing import Any, Dict, Optional

from repro.apps import LuWorkload, lu_class
from repro.core.acquisition import acquire, build_deployment
from repro.core.gather import simulate_gather
from repro.extract.tau2ti import tau2simgrid
from repro.platforms import bordereau
from repro.smpi import MpiRuntime, round_robin_deployment
from repro.tracer import Tracer, VirtualCounterBank

from . import replay_bench, workloads
from .harness import SpanRecorder, new_outcome, run_reps, timed

__all__ = ["setup", "measure", "trace", "golden_record"]


def setup(name: str, seed: int, quick: bool, workdir: str) -> Dict[str, Any]:
    config = workloads.workload_config(name, quick)
    ranks = config["ranks"]
    # One SSOR sweep set with its in-loop norm, like a full run's tail.
    lu_config = replace(lu_class(config["cls"]),
                        itmax=config["iterations"],
                        inorm=config["iterations"])

    def calibrated():
        platform = bordereau(ground_truth=False,
                             speed=config["calibrated_speed"])
        return platform, round_robin_deployment(platform, ranks)

    ctx = {
        "name": name, "seed": seed, "quick": quick, "workdir": workdir,
        "config": dict(config, papi_seed=seed,
                       papi_jitter=workloads.JITTER),
        "program": LuWorkload(lu_config, ranks).program,
        "build_platform": calibrated,
        "replay_kwargs": {"record_timed_trace": True},
        "trace_dir": None, "n_acquired": 0,
    }
    replay_bench.fresh_platform(ctx)
    return ctx


def _acquire(ctx: Dict[str, Any]) -> int:
    """Application -> TI trace directory, into a fresh work directory;
    returns the number of actions extracted."""
    ctx["n_acquired"] += 1
    workdir = os.path.join(ctx["workdir"], f"acquire-{ctx['n_acquired']}")
    result = acquire(ctx["program"], bordereau(),
                     ctx["config"]["ranks"], workdir=workdir,
                     papi_jitter=workloads.JITTER, papi_seed=ctx["seed"])
    ctx["trace_dir"] = result.trace_dir
    return result.extraction.n_actions


def measure(ctx: Dict[str, Any], seconds: float,
            golden: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    share = workloads.WORKLOADS[ctx["name"]]["share"]
    out = new_outcome()
    acquired, results = [], []
    try:
        acquired.append(_acquire(ctx))          # untimed warm-up rep
        walls, values = run_reps(
            lambda: _acquire(ctx), seconds * share["acquire_wall_s"],
            ctx["quick"])
        out["samples"]["acquire_wall_s"] = walls
        acquired += values
        results.append(replay_bench.replay_times(ctx))  # untimed warm-up
        walls, values = run_reps(
            lambda: replay_bench.replay_times(ctx),
            seconds * share["replay_wall_s"], ctx["quick"],
            prepare=lambda: replay_bench.fresh_platform(ctx))
        out["samples"]["replay_wall_s"] = walls
        results += values
    except Exception as exc:  # noqa: BLE001 - a failed op is a result
        out["failed"] += 1
        out["failures"].append(
            f"pipeline raised {type(exc).__name__}: {exc}")
    out["attempted"] = len(acquired) + len(results) + out["failed"]
    counts = set(acquired)
    if len(counts) > 1:
        out["failed"] += 1
        out["failures"].append(
            f"acquisitions of one seed differ in action count: {counts}")
    if results:
        if results[0].n_timed != results[0].n_actions:
            out["failed"] += 1
            out["failures"].append("timed trace misses actions")
        replay_bench.check_results(ctx, results, golden, out)
        out["simulated_time"] = results[0].simulated_time
        out["n_actions"] = results[0].n_actions
    return out


def golden_record(ctx: Dict[str, Any]) -> Dict[str, Any]:
    _acquire(ctx)
    return replay_bench.golden_record(ctx)


def trace(ctx: Dict[str, Any], recorder: SpanRecorder,
          golden: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    out = new_outcome()
    out.update(attempted=1, layers={}, absent={})
    try:
        out["layers"] = _acquisition_layers(ctx, recorder)
    except Exception as exc:  # noqa: BLE001 - a failed op is a result
        out["failed"] += 1
        out["failures"].append(
            f"traced acquisition raised {type(exc).__name__}: {exc}")
        return out
    replay_bench.profile_and_check(ctx, recorder, golden, out)
    return out


def _acquisition_layers(ctx: Dict[str, Any],
                        recorder: SpanRecorder) -> Dict[str, float]:
    """The four acquisition steps as direct calls, one span each (the
    same calls ``acquire`` makes, in the same order)."""
    _acquire(ctx)                               # untimed warm-up rep
    ranks = ctx["config"]["ranks"]
    ground = bordereau()
    deployment = build_deployment(ground, ranks)
    workdir = os.path.join(ctx["workdir"], "acquire-traced")
    tau_dir = os.path.join(workdir, "tau")
    ti_dir = os.path.join(workdir, "ti")
    recorder.trace_id += 1
    with recorder.span("acquire"):
        bare = MpiRuntime(ground, deployment,
                          papi=VirtualCounterBank(ranks))
        smpi_s, _ = timed(recorder.wrap(
            "smpi.run", lambda: bare.run(ctx["program"])))
        tracer = Tracer(tau_dir)
        instrumented = MpiRuntime(
            ground, deployment, hooks=tracer,
            papi=VirtualCounterBank(ranks, jitter=workloads.JITTER,
                                    seed=ctx["seed"]))
        tracer_s, _ = timed(recorder.wrap(
            "tracer.run", lambda: instrumented.run(ctx["program"])))
        extract_s, report = timed(recorder.wrap(
            "extract.tau2ti", lambda: tau2simgrid(tau_dir, ranks, ti_dir)))
        node_bytes = [
            float(os.path.getsize(
                os.path.join(ti_dir, f"SG_process{rank}.trace")))
            for rank in range(ranks)]
        gather_s, _ = timed(recorder.wrap(
            "gather.simulate",
            lambda: simulate_gather(ground, deployment, node_bytes)))
    ctx["trace_dir"] = ti_dir
    return {
        "smpi.run_s": smpi_s,
        "tracer.run_s": tracer_s,
        "tracer.overhead_share": tracer_s / smpi_s - 1.0,
        "tracer.tau_bytes": tracer.archive.n_bytes,
        "extract.tau2ti_s": extract_s,
        "extract.actions_per_s": report.n_actions / extract_s,
        "gather.simulate_s": gather_s,
    }
