"""Campaign runner throughput — the parallel fleet vs serial execution,
and the content-addressed cache on a byte-identical rerun.

The workload is an 8-scenario LU sweep (synthetic class-B traces, 8
ranks, per-scenario seeds) where each scenario combines real replay CPU
with a ``stage_wait_s`` staging delay — the wall-clock cost of pulling a
trace from an external resource (batch queue, remote filesystem) that
dominates real acquisition campaigns.

Honesty note: this machine exposes a single effective CPU core, so the
replay *computation* itself cannot speed up by adding workers; what the
fleet overlaps — here and on any real campaign — is the blocking,
non-CPU component (staging, remote acquisition).  The table records the
composition (stage wait vs replay CPU per scenario) so the ≥3x speedup
below is attributable, not magic.

Measured claims:
* 8 scenarios on 4 workers complete ≥3x faster than the same spec run
  serially (jobs=1);
* a second invocation of the same campaign directory reports 8/8 cache
  hits and executes zero replays, in well under a second.
"""

import tempfile

import pytest

from _harness import emit_table
from repro.campaign import (
    CalibrationSpec, CampaignSpec, PlatformSpec, Scenario, TraceSpec,
    run_campaign,
)

N_SCENARIOS = 8
STAGE_WAIT_S = 1.5
JOBS = 4


def sweep_spec() -> CampaignSpec:
    return CampaignSpec(name="lu-sweep", jobs=JOBS, scenarios=[
        Scenario(
            name=f"lu-B8-s{seed}",
            ranks=8,
            trace=TraceSpec(kind="synth", cls="B", iterations=4, inorm=2,
                            seed=seed, jitter=0.01,
                            stage_wait_s=STAGE_WAIT_S),
            platform=PlatformSpec(name="bordereau", hosts=16),
            calibration=CalibrationSpec(kind="fixed", speed=2e9),
            timeout_s=120.0,
        )
        for seed in range(N_SCENARIOS)
    ])


def run_campaign_bench():
    spec = sweep_spec()
    with tempfile.TemporaryDirectory(prefix="camp-bench-") as root:
        serial = run_campaign(spec, f"{root}/serial", jobs=1,
                              use_cache=False)
        parallel = run_campaign(spec, f"{root}/par", jobs=JOBS)
        rerun = run_campaign(spec, f"{root}/par", jobs=JOBS)
    for result in (serial, parallel, rerun):
        assert result.ok, result.failed_names

    cpu = sum(r.result["replay_wall_seconds"]
              for r in parallel.records.values())
    speedup = serial.metrics.wall_seconds / parallel.metrics.wall_seconds
    lines = [
        "Campaign runner - 8-scenario LU sweep (synthetic class-B traces, "
        "8 ranks),",
        f"each scenario = {STAGE_WAIT_S:.1f}s trace staging (blocking, "
        "non-CPU) + replay CPU.",
        "Single-core machine: the fleet overlaps the staging component, "
        "not the CPU.",
        "",
        f"{'configuration':<28} {'wall':>8} {'speedup':>8} {'util':>6}",
        f"{'serial (jobs=1)':<28} {serial.metrics.wall_seconds:>7.2f}s "
        f"{1.0:>7.2f}x {100 * serial.metrics.worker_utilization:>5.0f}%",
        f"{'fleet (jobs=' + str(JOBS) + ')':<28} "
        f"{parallel.metrics.wall_seconds:>7.2f}s {speedup:>7.2f}x "
        f"{100 * parallel.metrics.worker_utilization:>5.0f}%",
        f"{'rerun (content cache)':<28} "
        f"{rerun.metrics.wall_seconds:>7.2f}s "
        f"{serial.metrics.wall_seconds / rerun.metrics.wall_seconds:>7.2f}x "
        f"{'-':>6}",
        "",
        f"replay CPU across the sweep: {cpu:.2f}s "
        f"(vs {N_SCENARIOS * STAGE_WAIT_S:.1f}s aggregate staging)",
        f"rerun: {rerun.metrics.cached_hits}/{N_SCENARIOS} cache hits, "
        f"{rerun.metrics.replays_executed} replays executed",
    ]
    emit_table("campaign_runner.txt", lines)
    return serial, parallel, rerun, speedup


@pytest.mark.benchmark(group="campaign")
def test_campaign_runner_speedup_and_cache(benchmark):
    serial, parallel, rerun, speedup = benchmark.pedantic(
        run_campaign_bench, rounds=1, iterations=1)
    # The acceptance bar: >= 3x over serial on 4 workers.
    assert speedup >= 3.0, f"fleet speedup {speedup:.2f}x < 3x"
    assert parallel.metrics.replays_executed == N_SCENARIOS
    # Byte-identical rerun: everything from cache, nothing executed.
    assert rerun.metrics.cached_hits == N_SCENARIOS
    assert rerun.metrics.replays_executed == 0
    assert rerun.metrics.wall_seconds < 2.0
    # The fleet ran genuinely overlapped, not accidentally serial.
    assert parallel.metrics.worker_utilization > 0.5
