"""The three synthetic replay workloads, and the per-layer replay
profile every workload's traced run shares.

End to end (untraced) the timed operation is the default-configuration
path a user runs: ``TraceReplayer(platform, deployment).replay(dir)``,
trace directory in, makespan out — warm (``.tic`` sidecars present) and
cold (sidecars deleted before each rep).  The traced run times direct
calls into ``core.trace`` / ``core.compile`` and wraps the public
entry points of the kernel layers for one replay.
"""

from __future__ import annotations

import glob
import os
import time
from collections import namedtuple
from contextlib import contextmanager
from typing import Any, Dict, List, Optional

from repro.core.compile import TIC_SUFFIX, compile_source
from repro.core.replay import TraceReplayer
from repro.core.trace import discover_trace_paths, stream_trace_dir

from . import workloads
from .harness import SpanRecorder, new_outcome, run_reps, timed

__all__ = ["setup", "measure", "trace", "golden_record", "relative_error",
           "layer_profile", "profile_and_check", "delete_sidecars",
           "fresh_platform", "replay_once", "replay_times", "fresh_replay",
           "check_results"]

#: Agreement demanded between any two exact replays of one trace.
TOLERANCE = 1e-9

#: The replay paths ROADMAP item 2 must keep or delete, as replayer
#: keywords.  A keyword the replayer no longer accepts makes the metric
#: absent (with the reason recorded), never a failure.
PATH_LEDGER = {
    "replay.token_s": {"compiled": "never"},
    "replay.batched_s": {"batch_phases": True},
    "replay.sharded4_s": {"shards": 4},
    "replay.noincr_s": {"lmm_incremental": False},
}

#: Wrapped span -> the metrics that cannot be told without it.
UNWRAPPED = {
    "lmm.fill": ("lmm.fill_calls", "lmm.fill_s", "lmm.patch_fill_calls",
                 "lmm.patch_fill_s", "lmm.share", "replay.loop_self_s"),
    "lmm.patch": ("lmm.patch_calls", "lmm.patch_s", "lmm.patch_fill_calls",
                  "lmm.patch_fill_s", "lmm.share", "replay.loop_self_s"),
    "compile": ("compile.in_replay_s", "replay.prep_self_s"),
}

#: The per-layer times of one traced replay that partition its wall.
RECONCILE = ("replay.prep_self_s", "compile.in_replay_s",
             "replay.loop_self_s", "lmm.fill_s", "lmm.patch_s",
             "mailbox.post_s")

#: The most conservative configuration the replayer accepts: what
#: golden.json is generated with.
CONSERVATIVE = {"compiled": "never", "lmm_mode": "reference",
                "lmm_incremental": False}


def delete_sidecars(trace_dir: str) -> None:
    for path in glob.glob(os.path.join(trace_dir, "*" + TIC_SUFFIX)):
        os.unlink(path)


def relative_error(result, makespan: float, per_rank: List[float]) -> float:
    """Largest relative disagreement of a replay with a reference
    makespan and per-rank finish times."""
    if len(result.per_rank_time) != len(per_rank):
        return float("inf")
    worst = abs(result.simulated_time - makespan) / max(1.0, abs(makespan))
    for got, want in zip(result.per_rank_time, per_rank):
        worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    return worst


# ----------------------------------------------------------------------
# Set-up: generated inputs + platform (what ``setup_s`` times, with the
# imports above)
# ----------------------------------------------------------------------
def setup(name: str, seed: int, quick: bool, workdir: str) -> Dict[str, Any]:
    config = workloads.workload_config(name, quick)
    trace_dir = os.path.join(workdir, "trace")
    n_actions = workloads.generate_trace(config, trace_dir, seed)
    ctx = {"name": name, "seed": seed, "quick": quick, "workdir": workdir,
           "config": dict(config, seed=seed, jitter=workloads.JITTER,
                          n_actions=n_actions),
           "trace_dir": trace_dir, "replay_kwargs": {},
           "build_platform":
               lambda: workloads.platform_and_deployment(config)}
    fresh_platform(ctx)
    return ctx


def fresh_platform(ctx: Dict[str, Any]) -> None:
    """Rebuild the platform, untimed, before a replay.  A platform that
    already carried a replay keeps solver state in its constraints and
    the next replay's times come out different in the last bit, so every
    replay here runs on a platform of its own, as a user's script does."""
    ctx["platform"], ctx["deployment"] = ctx["build_platform"]()


def replay_once(ctx: Dict[str, Any], **kwargs):
    """The timed operation: replayer construction + replay, on the
    context's platform and trace directory."""
    options = dict(ctx["replay_kwargs"], **kwargs)
    return TraceReplayer(ctx["platform"], ctx["deployment"],
                         **options).replay(ctx["trace_dir"])


#: What a measured rep keeps of its ReplayResult.  Holding the results
#: themselves (timed traces, telemetry) would make the peak RSS grow
#: with the number of reps, i.e. with the speed of the host.
ReplayTimes = namedtuple(
    "ReplayTimes", "simulated_time per_rank_time n_actions n_timed")


def replay_times(ctx: Dict[str, Any]) -> ReplayTimes:
    """One measured rep: :func:`replay_once`, reduced to its times."""
    result = replay_once(ctx)
    return ReplayTimes(result.simulated_time, result.per_rank_time,
                       result.n_actions, len(result.timed_trace))


def fresh_replay(ctx: Dict[str, Any], **kwargs):
    """``(wall, result)`` of one timed replay on a fresh platform."""
    fresh_platform(ctx)
    return timed(lambda: replay_once(ctx, **kwargs))


# ----------------------------------------------------------------------
# End-to-end run
# ----------------------------------------------------------------------
def measure(ctx: Dict[str, Any], seconds: float,
            golden: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    share = workloads.WORKLOADS[ctx["name"]]["share"]
    out = new_outcome()
    results = []
    try:
        results.append(replay_times(ctx))       # untimed warm-up rep
        walls, values = run_reps(
            lambda: replay_times(ctx), seconds * share["replay_wall_s"],
            ctx["quick"], prepare=lambda: fresh_platform(ctx))
        out["samples"]["replay_wall_s"] = walls
        results += values

        def cold():
            delete_sidecars(ctx["trace_dir"])
            fresh_platform(ctx)

        if "replay_cold_wall_s" in share:
            walls, values = run_reps(
                lambda: replay_times(ctx),
                seconds * share["replay_cold_wall_s"], ctx["quick"],
                prepare=cold)
            out["samples"]["replay_cold_wall_s"] = walls
            results += values
    except Exception as exc:  # noqa: BLE001 - a failed op is a result
        out["failed"] += 1
        out["failures"].append(f"replay raised {type(exc).__name__}: {exc}")
    out["attempted"] = len(results) + out["failed"]
    if results:
        check_results(ctx, results, golden, out)
        out["simulated_time"] = results[0].simulated_time
        out["n_actions"] = results[0].n_actions
    return out


def check_results(ctx: Dict[str, Any], results: list,
                  golden: Optional[Dict[str, Any]],
                  out: Dict[str, Any]) -> None:
    """The correctness gate of a replay workload: every default replay
    bit-identical; at the golden seed, agreement with golden.json; on
    any other seed, the 64-rank twin under ``lmm_mode="reference"``
    against its default replay."""
    first = results[0]
    for other in results[1:]:
        if (other.simulated_time != first.simulated_time
                or other.per_rank_time != first.per_rank_time):
            out["failed"] += 1
            out["failures"].append("default replays are not bit-identical")
            break
    if golden is not None:
        err = relative_error(first, golden["makespan"], golden["per_rank"])
        what = "golden.json"
    else:
        err = twin_error(ctx, first)
        what = "reference-mode twin"
    out["attempted"] += 1
    out["makespan_rel_err"] = max(out["makespan_rel_err"], err)
    if not err <= TOLERANCE:
        out["failed"] += 1
        out["failures"].append(
            f"makespan/per-rank times differ from {what} by {err:.3e}")


def twin_error(ctx: Dict[str, Any], default_result) -> float:
    """Replay the workload's twin (at most 64 ranks, same generator and
    platform shape) under the reference solver and under the default
    configuration; the two must agree.  A workload that already fits is
    its own twin and reuses the measured default replay."""
    config = ctx["config"]
    if config["ranks"] <= 64:
        twin, default = ctx, default_result
    else:
        name = ctx["name"]
        twin_config = dict(workloads.workload_config(name), ranks=64)
        trace_dir = os.path.join(ctx["workdir"], "twin")
        workloads.generate_trace(twin_config, trace_dir, ctx["seed"])
        twin = dict(ctx, trace_dir=trace_dir, build_platform=lambda:
                    workloads.platform_and_deployment(twin_config))
        default = fresh_replay(twin)[1]
    reference = fresh_replay(twin, lmm_mode="reference")[1]
    return relative_error(default, reference.simulated_time,
                          reference.per_rank_time)


def golden_record(ctx: Dict[str, Any]) -> Dict[str, Any]:
    """What ``--regen-golden`` commits for this workload."""
    result = fresh_replay(ctx, **CONSERVATIVE)[1]
    return {"config": ctx["config"], "replay": CONSERVATIVE,
            "makespan": result.simulated_time,
            "per_rank": list(result.per_rank_time)}


# ----------------------------------------------------------------------
# Traced run
# ----------------------------------------------------------------------
def trace(ctx: Dict[str, Any], recorder: SpanRecorder,
          golden: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    out = new_outcome()
    out.update(layers={}, absent={})
    profile_and_check(ctx, recorder, golden, out)
    return out


def profile_and_check(ctx: Dict[str, Any], recorder: SpanRecorder,
                      golden: Optional[Dict[str, Any]],
                      out: Dict[str, Any]) -> None:
    """The replay part of any workload's traced run: the layer profile
    added to ``out``, and the correctness gate on its replays."""
    out["attempted"] += 1
    try:
        layers, absent, results = layer_profile(ctx, recorder)
    except Exception as exc:  # noqa: BLE001 - a failed op is a result
        out["failed"] += 1
        out["failures"].append(
            f"traced replay raised {type(exc).__name__}: {exc}")
        return
    out["layers"].update(layers)
    out["absent"].update(absent)
    out["attempted"] += len(results)
    check_results(ctx, results, golden, out)


@contextmanager
def _kernel_wrappers(recorder: SpanRecorder, missing: Dict[str, str]):
    """Module-level wrappers around the solver and compile entry points
    (the engine and the replayer bind them by name at import, so the
    name is patched where it is looked up), restored on exit."""
    import repro.core.replay as replay_mod
    import repro.simkernel.engine as engine_mod
    import repro.simkernel.lmm as lmm_mod

    patched = []
    for span, attr, modules in (
        ("lmm.fill", "fill_vectorized", (lmm_mod, engine_mod)),
        ("lmm.patch", "patch_solve", (lmm_mod, engine_mod)),
        ("compile", "compile_source", (replay_mod,)),
    ):
        original = getattr(modules[0], attr, None)
        if original is None:
            missing[span] = f"{modules[0].__name__}.{attr} no longer exists"
            continue
        wrapper = recorder.wrap(span, original)
        for module in modules:
            if getattr(module, attr, None) is original:
                setattr(module, attr, wrapper)
                patched.append((module, attr, original))
    try:
        yield
    finally:
        for module, attr, original in patched:
            setattr(module, attr, original)


def _traced_replay(ctx: Dict[str, Any], recorder: SpanRecorder,
                   missing: Dict[str, str]):
    """One replay with ``collect_metrics=True`` and a span at each
    layer boundary reachable from outside the program."""
    fresh_platform(ctx)
    with _kernel_wrappers(recorder, missing):
        options = dict(ctx["replay_kwargs"], collect_metrics=True)
        replayer = TraceReplayer(ctx["platform"], ctx["deployment"],
                                 **options)
        for owner, attr, span in (
            (replayer.engine, "run", "engine.run"),
            (replayer.comms, "isend", "mailbox.post"),
            (replayer.comms, "irecv", "mailbox.post"),
        ):
            setattr(owner, attr, recorder.wrap(span, getattr(owner, attr)))
        recorder.trace_id += 1

        def run():
            with recorder.span("replay"):
                return replayer.replay(ctx["trace_dir"])

        cpu_start = time.process_time()
        wall, result = timed(run)
        return wall, time.process_time() - cpu_start, result


def layer_profile(ctx: Dict[str, Any], recorder: SpanRecorder):
    """Per-layer metrics of replaying ``ctx['trace_dir']``: returns
    ``(metrics, absent, results)`` where ``absent`` maps a metric name
    to the reason it could not be measured and ``results`` are the
    default-configuration replays made on the way."""
    layers: Dict[str, float] = {}
    absent: Dict[str, str] = {}
    missing: Dict[str, str] = {}    # span -> why it could not be wrapped
    trace_dir = ctx["trace_dir"]
    compiled = not ctx["replay_kwargs"].get("record_timed_trace")

    # core.trace: bytes on disk and one full streaming parse.
    paths = discover_trace_paths(trace_dir)
    layers["trace.bytes"] = sum(os.path.getsize(p) for p in paths)

    def stream_all():
        return sum(1 for stream in stream_trace_dir(trace_dir)
                   for _action in stream)

    layers["trace.stream_s"], layers["trace.actions"] = timed(stream_all)

    # core.compile: parse+compile alone, with the sidecar write, and the
    # warm load (both cached forms digest the source files too).
    cold, (_programs, report) = timed(
        lambda: compile_source(trace_dir, cache=False))
    forced, _ = timed(lambda: compile_source(trace_dir, force=True))
    warm, _ = timed(lambda: compile_source(trace_dir))
    layers["compile.cold_s"] = cold
    layers["compile.tic_write_s"] = max(0.0, forced - cold)
    layers["compile.tic_load_s"] = warm
    layers["compile.tic_bytes"] = sum(
        os.path.getsize(p + TIC_SUFFIX) for p in paths
        if os.path.exists(p + TIC_SUFFIX))
    layers["compile.ops"] = report.n_ops

    # core.replay and below: plain, telemetry-only and fully traced
    # replays, interleaved twice.  The overhead shares compare minima:
    # the rep of each kind least disturbed by the host.
    results = [fresh_replay(ctx)[1]]            # untimed warm-up rep
    plain, metered, traced = [], [], []
    for _ in range(2):
        for walls, kwargs in ((plain, {}),
                              (metered, {"collect_metrics": True})):
            wall, result = fresh_replay(ctx, **kwargs)
            walls.append(wall)
            results.append(result)
        mark = len(recorder.spans)
        wall, cpu, result = _traced_replay(ctx, recorder, missing)
        traced.append(wall)
        results.append(result)
    plain_wall, metered_wall = min(plain), min(metered)
    traced_wall = wall      # the replay the spans below belong to
    # A patch's residual sub-solve calls the wrapped fill: those spans
    # are part of the patch, not fills the engine asked for.
    for span in recorder.spans[mark:]:
        if span[0] == "lmm.fill" and span[3] >= 0 \
                and recorder.spans[span[3]][0] == "lmm.patch":
            span[0] = "lmm.patch.fill"
    spans = recorder.summary(first=mark)

    def total(name: str) -> float:
        return spans.get(name, {}).get("total_s", 0.0)

    def calls(name: str) -> int:
        return spans.get(name, {}).get("calls", 0)

    metrics = result.metrics
    engine, comm = metrics["engine"], metrics["comm"]
    replay = metrics["replay"]
    engine_run = total("engine.run")
    n_actions = result.n_actions
    layers.update({
        "replay.traced_wall_s": traced_wall,
        "replay.cpu_s": cpu,
        "replay.engine_run_s": engine_run,
        "replay.prep_self_s": spans["replay"]["self_s"],
        "replay.loop_self_s": spans["engine.run"]["self_s"],
        "replay.us_per_action": 1e6 * plain_wall / n_actions,
        "replay.metrics_overhead_share": metered_wall / plain_wall - 1.0,
        "trace_overhead_share": min(traced) / plain_wall - 1.0,
        "compile.fused_share": (replay["computes_fused"] / n_actions
                                if compiled else 0.0),
        "compile.in_replay_s": total("compile"),
        "engine.events": engine["events_popped"],
        "engine.recomputes": engine["sharing_recomputes"],
        "engine.idle_advances": engine["idle_advances"],
        "engine.stale_skipped": engine["stale_heap_entries_skipped"],
        "engine.calendar_rebuilds": engine["calendar_rebuilds"],
        "engine.group_acts_mean": engine["component_activities_mean"],
        "engine.us_per_event": (1e6 * engine_run / engine["events_popped"]
                                if engine["events_popped"] else 0.0),
        # The array solver only: sharing groups below the engine's
        # vector threshold are solved inside the event loop.  A patch's
        # time includes its sub-fills, so fill + patch is all of it.
        "lmm.fill_calls": calls("lmm.fill"),
        "lmm.fill_s": total("lmm.fill"),
        "lmm.patch_calls": calls("lmm.patch"),
        "lmm.patch_s": total("lmm.patch"),
        "lmm.patch_fill_calls": calls("lmm.patch.fill"),
        "lmm.patch_fill_s": total("lmm.patch.fill"),
        "lmm.patch_accept_share": _share(
            engine["incremental_patches"],
            engine["incremental_patches"] + engine["patch_fallbacks"]),
        "lmm.levels_mean": _share(engine["maxmin_iterations"],
                                  engine["maxmin_calls"]),
        "lmm.share": _share(total("lmm.fill") + total("lmm.patch"),
                            engine_run),
        "mailbox.post_calls": calls("mailbox.post"),
        "mailbox.post_s": total("mailbox.post"),
        "mailbox.transfers": comm["transfers"],
        "mailbox.rendezvous_share": _share(comm["rendezvous_transfers"],
                                           comm["transfers"]),
        "mailbox.max_pending": max(comm["max_pending_sends"],
                                   comm["max_pending_recvs"]),
        "mailbox.route_cache_hit_rate": comm["route_cache_hit_rate"],
        "mailbox.factor_cache_hit_rate": comm["factor_cache_hit_rate"],
    })
    if missing:
        # An entry point that could not be wrapped: what it would have
        # timed is absent (not zero), and so is every self time it
        # would have been subtracted from.
        for span, reason in missing.items():
            for metric in UNWRAPPED[span]:
                layers.pop(metric, None)
                absent[metric] = reason
    else:
        # The layers' times must add back up to the wall of the replay
        # they were taken from: nothing counted twice, nothing lost.
        parts = sum(layers[name] for name in RECONCILE)
        if abs(parts - traced_wall) > 0.05 * traced_wall:
            raise AssertionError(
                f"layer times sum to {parts:.4f} s, the traced replay "
                f"took {traced_wall:.4f} s")

    for metric, kwargs in PATH_LEDGER.items():
        fresh_platform(ctx)
        try:
            wall, other = timed(lambda: TraceReplayer(
                ctx["platform"], ctx["deployment"],
                **kwargs).replay(trace_dir))
        except (TypeError, ValueError) as exc:
            absent[metric] = f"{type(exc).__name__}: {exc}"
            continue
        err = relative_error(other, result.simulated_time,
                             result.per_rank_time)
        if not err <= TOLERANCE:
            raise AssertionError(
                f"{metric} path disagrees with the default replay "
                f"by {err:.3e}")
        layers[metric] = wall
    return layers, absent, results


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0
