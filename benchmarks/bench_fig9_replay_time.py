"""Fig. 9 — time needed to replay a time-independent trace as the number
of processes grows (LU classes B and C).

Paper observations to reproduce:
* replay time is directly proportional to the number of actions in the
  trace (it grows with both class and process count),
* most of the cost is per-action bookkeeping (the paper blames context
  switches between simulated processes; here, generator scheduling).

The per-action replay rate is *measured* on really-replayed capped
traces; full-class replay times are that rate times Table 3's exact
action counts.  ``REPRO_PAPER_SCALE=1`` replays the full traces instead.
"""

import os
import subprocess
import sys
import tempfile

import pytest

from _harness import PAPER_SCALE, capped, emit_table, scale_note
from repro.apps import LuWorkload, lu_class
from repro.apps.lu_profile import lu_instance_profile
from repro.core.acquisition import acquire
from repro.core.replay import TraceReplayer
from repro.core.synth import write_synthetic_lu_trace
from repro.core.trace import read_trace_dir
from repro.platforms import bordereau
from repro.simkernel import Platform
from repro.smpi import round_robin_deployment

CLASSES = ["B", "C"]
PROCS = [8, 16, 32, 64]
CAP_ITERS = 2

# --- rank-scaling sweep (synthetic LU mix, 8 -> 1024 ranks) ---------------
#: Process counts for the synthetic rank-scaling sweep.
SWEEP_RANKS = [8, 64, 256, 1024]
#: SSOR iterations per rank in the synthetic traces (inorm=2 keeps the
#: allReduce in the mix even for short runs).
SWEEP_ITERS = 4
SWEEP_INORM = 2
#: The pure-Python reference solver is O(activities) per recompute; past
#: this rank count its sweep leg takes minutes, so it only runs at paper
#: scale.  The vectorized path runs the full sweep always.
REFERENCE_RANK_CAP = 256
#: Events/s measured at the seed commit (3bdd3bb) on these exact
#: synthetic traces and platform, for the table's "vs seed" column.
SEED_BASELINE_EVPS = {256: 3054.0, 1024: 336.0}


def replay_rate(cls: str, procs: int):
    """(actions/s, measured actions) on a capped, really-replayed trace."""
    itmax = lu_class(cls).itmax if PAPER_SCALE else CAP_ITERS
    config = capped(lu_class(cls), itmax)
    ground_truth = bordereau()
    with tempfile.TemporaryDirectory() as workdir:
        acq = acquire(LuWorkload(config, procs).program, ground_truth,
                      procs, workdir=workdir, measure_application=False)
        calibrated = bordereau(ground_truth=False, speed=4e8)
        replayer = TraceReplayer(
            calibrated, round_robin_deployment(calibrated, procs)
        )
        result = replayer.replay(acq.trace_dir)
    return result.n_actions / result.wall_seconds, result


def run_fig9():
    lines = [
        "Fig. 9 - trace replay time vs process count",
        scale_note(),
        "",
        f"{'inst.':>6} {'actions(M)':>11} {'measured rate':>15} "
        f"{'replay time':>12}",
    ]
    series = {}
    for cls in CLASSES:
        for procs in PROCS:
            rate, measured = replay_rate(cls, procs)
            profile = lu_instance_profile(cls, procs)
            if PAPER_SCALE:
                replay_time = measured.wall_seconds
            else:
                replay_time = profile.ti_actions / rate
            series[(cls, procs)] = (profile.ti_actions, replay_time)
            lines.append(
                f"{cls + '/' + str(procs):>6} "
                f"{profile.ti_actions / 1e6:>10.2f} "
                f"{rate:>11,.0f} a/s {replay_time:>11.1f}s"
            )
    emit_table("fig9_replay_time.txt", lines)
    return series


@pytest.mark.benchmark(group="fig9")
def test_fig9_replay_time(benchmark):
    series = benchmark.pedantic(run_fig9, rounds=1, iterations=1)
    for cls in CLASSES:
        times = [series[(cls, p)][1] for p in PROCS]
        actions = [series[(cls, p)][0] for p in PROCS]
        # Replay time grows with the action count (paper's direct link).
        assert times == sorted(times)
        assert actions == sorted(actions)
    for p in PROCS:
        assert series[("C", p)][1] > series[("B", p)][1]


@pytest.mark.benchmark(group="fig9")
def test_fig9_metrics_overhead(benchmark):
    """Replay-telemetry overhead budget (docs/observability.md): with
    ``collect_metrics=True`` the Fig. 9 replay must slow down by < 5%;
    with metrics disabled the instrumented kernel takes the exact same
    code path as before (one ``is not None`` test per site), so the
    disabled numbers are reported alongside for regression tracking.

    A few-percent budget is far below timing noise on a shared box, so
    the comparison is made robust three ways: CPU time
    (``time.process_time``) instead of wall time with garbage collection
    paused, the two configurations interleaved with min-of-N per side
    (the minimum is the run least disturbed by scheduling, cache
    eviction and allocator state), and the whole paired measurement
    repeated in a handful of fresh interpreter processes with the min
    taken across them too — code placement varies per process and can
    swing hot-loop timings by several percent, and the cross-process
    minimum removes that layout luck from both sides symmetrically."""
    config = capped(lu_class("B"), CAP_ITERS)
    ground_truth = bordereau()

    worker = r"""
import gc, sys, time
from repro.core.replay import TraceReplayer
from repro.core.trace import read_trace_dir
from repro.platforms import bordereau
from repro.smpi import round_robin_deployment

trace = read_trace_dir(sys.argv[1])
rounds = int(sys.argv[2])

def replay_once(collect_metrics):
    calibrated = bordereau(8, ground_truth=False, speed=4e8)
    replayer = TraceReplayer(
        calibrated, round_robin_deployment(calibrated, 8),
        collect_metrics=collect_metrics,
    )
    gc.collect()
    gc.disable()
    try:
        t0 = time.process_time()
        result = replayer.replay(trace)
        elapsed = time.process_time() - t0
    finally:
        gc.enable()
    assert result.n_actions == trace.n_actions()
    return elapsed

replay_once(False)   # warm both code paths before measuring
replay_once(True)
base = metered = float("inf")
for _ in range(rounds):
    base = min(base, replay_once(False))
    metered = min(metered, replay_once(True))
print(base, metered)
"""

    def measure(trace_dir):
        procs, rounds = (2, 4) if PAPER_SCALE else (6, 6)
        base = metered = float("inf")
        for _ in range(procs):
            out = subprocess.run(
                [sys.executable, "-c", worker, trace_dir, str(rounds)],
                capture_output=True, text=True, check=True,
                env=dict(os.environ),
            ).stdout.split()
            base = min(base, float(out[0]))
            metered = min(metered, float(out[1]))
        return base, metered

    with tempfile.TemporaryDirectory() as workdir:
        acq = acquire(LuWorkload(config, 8).program, ground_truth, 8,
                      workdir=workdir, measure_application=False)
        trace = read_trace_dir(acq.trace_dir)
        base, metered = benchmark.pedantic(
            measure, args=(acq.trace_dir,), rounds=1, iterations=1)
    overhead = metered / base - 1.0
    n_actions = trace.n_actions()
    emit_table("fig9_metrics_overhead.txt", [
        "Fig. 9 addendum - telemetry overhead on the replay hot path",
        scale_note(),
        "",
        f"{'config':>16} {'CPU time':>12} {'rate':>15}",
        f"{'metrics off':>16} {base:>11.3f}s "
        f"{n_actions / base:>11,.0f} a/s",
        f"{'metrics on':>16} {metered:>11.3f}s "
        f"{n_actions / metered:>11,.0f} a/s",
        "",
        f"overhead with metrics enabled: {100.0 * overhead:+.1f}% "
        f"(budget: < 5%)",
    ])
    assert overhead < 0.05


# ---------------------------------------------------------------------------
# Rank-scaling sweep: synthetic LU mix on a congested cluster
# ---------------------------------------------------------------------------

def congested_platform(n_ranks: int) -> Platform:
    """One cluster whose shared backbone saturates under the LU ghost-cell
    exchange, so every in-flight transfer lands in one coupled max-min
    system — the worst case for the solver and the configuration that
    separates the vectorized and reference paths."""
    platform = Platform()
    platform.add_cluster(
        "c", n_ranks, speed=1e9, link_bw=1.25e9, link_lat=1e-6,
        backbone_bw=1.25e10, backbone_lat=1e-6, backbone_sharing="shared",
    )
    return platform


def replay_synthetic(trace_dir: str, n_ranks: int, lmm_mode: str):
    platform = congested_platform(n_ranks)
    replayer = TraceReplayer(
        platform, round_robin_deployment(platform, n_ranks),
        lmm_mode=lmm_mode,
    )
    return replayer.replay(trace_dir)


def run_rank_scaling():
    lines = [
        "Fig. 9 addendum - replay throughput vs rank count "
        "(synthetic LU mix, congested backbone)",
        scale_note(),
        f"iterations/rank: {SWEEP_ITERS} (inorm={SWEEP_INORM}); "
        f"reference solver swept up to {REFERENCE_RANK_CAP} ranks"
        + ("" if PAPER_SCALE else " (full sweep at paper scale)"),
        "",
        f"{'ranks':>6} {'events':>9} {'auto ev/s':>11} {'ref ev/s':>10} "
        f"{'auto/ref':>9} {'vs seed':>8}",
    ]
    series = {}
    for n_ranks in SWEEP_RANKS:
        with tempfile.TemporaryDirectory() as workdir:
            n_actions = write_synthetic_lu_trace(
                workdir, n_ranks, SWEEP_ITERS, cls="B", inorm=SWEEP_INORM)
            auto = replay_synthetic(workdir, n_ranks, "auto")
            assert auto.n_actions == n_actions
            auto_evps = auto.n_actions / auto.wall_seconds
            ref_evps = None
            if n_ranks <= REFERENCE_RANK_CAP or PAPER_SCALE:
                ref = replay_synthetic(workdir, n_ranks, "reference")
                # Identical simulated time is the end-to-end check that
                # the vectorized solver changed nothing but the speed.
                assert abs(ref.simulated_time - auto.simulated_time) < 1e-9
                ref_evps = ref.n_actions / ref.wall_seconds
        seed = SEED_BASELINE_EVPS.get(n_ranks)
        series[n_ranks] = (auto_evps, ref_evps)
        lines.append(
            f"{n_ranks:>6} {n_actions:>9,} {auto_evps:>11,.0f} "
            + (f"{ref_evps:>10,.0f}" if ref_evps else f"{'-':>10}")
            + (f" {auto_evps / ref_evps:>8.1f}x" if ref_evps
               else f" {'-':>9}")
            + (f" {auto_evps / seed:>7.1f}x" if seed else f" {'-':>8}")
        )
    lines += [
        "",
        "seed baselines (commit 3bdd3bb, same traces/platform): "
        + ", ".join(f"{int(v):,} ev/s @ {k}" for k, v in
                    sorted(SEED_BASELINE_EVPS.items())),
    ]
    emit_table("fig9_rank_scaling.txt", lines)
    return series


@pytest.mark.benchmark(group="fig9")
def test_fig9_rank_scaling(benchmark):
    series = benchmark.pedantic(run_rank_scaling, rounds=1, iterations=1)
    # Acceptance bar: >= 3x over the scalar solver at 256+ ranks.  The
    # in-repo reference mode is already faster than the seed's solver
    # (lazy recomputes, single-constraint fast path), so beating it 3x
    # implies beating the recorded seed baseline by a wide margin.
    auto_evps, ref_evps = series[REFERENCE_RANK_CAP]
    assert ref_evps is not None
    assert auto_evps >= 3.0 * ref_evps
    assert auto_evps >= 3.0 * SEED_BASELINE_EVPS[REFERENCE_RANK_CAP]


_RSS_WORKER = r"""
import sys
from repro.core.replay import TraceReplayer
from repro.simkernel import Platform
from repro.smpi import round_robin_deployment

trace_dir, n_ranks, compiled = sys.argv[1], int(sys.argv[2]), sys.argv[3]
platform = Platform()
platform.add_cluster("c", n_ranks, speed=1e9, link_bw=1.25e9,
                     link_lat=1e-6, backbone_bw=1.25e10, backbone_lat=1e-6,
                     backbone_sharing="shared")
replayer = TraceReplayer(platform,
                         round_robin_deployment(platform, n_ranks),
                         compiled=compiled)
result = replayer.replay(trace_dir)
# VmHWM is this process's own peak: ru_maxrss would start from the RSS
# of the process that spawned it, the bench's pytest process.
with open("/proc/self/status") as status:
    peak = next(int(line.split()[1]) for line in status
                if line.startswith("VmHWM:"))
print(result.n_actions, peak)
"""

#: The feeds ``test_fig9_streaming_rss`` measures: whole programs (the
#: default) and windows of each rank file (``--no-compiled``).
RSS_FEEDS = ("auto", "never")
#: Largest long/short peak-RSS ratio a feed may show.
RSS_RATIO_MAX = 1.20


def _peak_rss_kib(trace_dir: str, n_ranks: int, compiled: str):
    out = subprocess.run(
        [sys.executable, "-c", _RSS_WORKER, trace_dir, str(n_ranks),
         compiled],
        capture_output=True, text=True, check=True, env=dict(os.environ),
    ).stdout.split()
    return int(out[0]), int(out[1])


@pytest.mark.benchmark(group="fig9")
def test_fig9_streaming_rss(benchmark):
    """Peak RSS of a 1024-rank replay must stay nearly flat w.r.t. the
    per-rank event count, under each form of the compiled feed: ingest
    state is bounded per rank (a window of text, or the rank's columns
    read through memoryviews), never a boxed copy of every action.
    Measured in fresh subprocesses via their ``VmHWM`` (Linux) on a
    short and a 7x-longer trace of the same shape."""
    n_ranks = SWEEP_RANKS[-1]
    iters_short, iters_long = 2, 14

    def measure():
        peaks = {}
        for iters in (iters_short, iters_long):
            with tempfile.TemporaryDirectory() as workdir:
                write_synthetic_lu_trace(
                    workdir, n_ranks, iters, cls="B", inorm=SWEEP_INORM)
                for compiled in RSS_FEEDS:
                    peaks[compiled, iters] = _peak_rss_kib(
                        workdir, n_ranks, compiled)
        return peaks

    peaks = benchmark.pedantic(measure, rounds=1, iterations=1)
    n_short = peaks[RSS_FEEDS[0], iters_short][0]
    n_long = peaks[RSS_FEEDS[0], iters_long][0]
    lines = [
        "Fig. 9 addendum - peak RSS vs per-rank event count "
        f"({n_ranks} ranks, {n_short:,} vs {n_long:,} events)",
        scale_note(),
        "",
        f"{'compiled':>8} {'short peak':>12} {'long peak':>12} "
        f"{'KiB/event':>10} {'ratio':>6}",
    ]
    ratios = {}
    for compiled in RSS_FEEDS:
        rss_short = peaks[compiled, iters_short][1]
        rss_long = peaks[compiled, iters_long][1]
        ratios[compiled] = rss_long / rss_short
        lines.append(
            f"{compiled:>8} {rss_short / 1024:>8,.1f} MiB "
            f"{rss_long / 1024:>8,.1f} MiB {rss_long / n_long:>10.2f} "
            f"{ratios[compiled]:>5.2f}x")
    lines += [
        "",
        f"ratio = long / short peak RSS for {n_long / n_short:.1f}x the "
        f"events; each feed must stay below {RSS_RATIO_MAX:.2f}x",
    ]
    emit_table("fig9_streaming_rss.txt", lines)
    assert n_long > 5 * n_short
    for compiled in RSS_FEEDS:
        assert peaks[compiled, iters_long][0] == n_long
    over = {c: round(r, 3) for c, r in ratios.items() if r >= RSS_RATIO_MAX}
    assert not over, f"peak RSS grows with the trace under {over}"
