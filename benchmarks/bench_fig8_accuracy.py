"""Fig. 8 — simulated vs actual execution time of LU on bordereau,
classes B and C, 8-64 processes.

Paper observations to reproduce:
* the replay predicts the correct *trend* of the execution time as the
  process count grows (monotone decrease, class C above class B),
* the local relative error can be large (paper: up to 51.5 %) and is not
  constant across instances — because the trace is replayed with one
  calibrated average flop rate while the real rate varies per burst
  (§6.4's diagnosis).

"Actual" times come from the ground-truth platform (variable flop rate);
predictions replay the acquired trace on the calibrated constant-rate
platform with the fitted piece-wise-linear network model (§5's full
calibration procedure).

The sweep itself runs as a :mod:`repro.campaign`: the §5 calibration
happens once up front, is frozen into a ``fixed`` CalibrationSpec, and
every (class, process count, iteration cap) cell becomes one scenario of
a campaign executed by the worker fleet — the same path the
``repro-campaign`` CLI drives.
"""

import tempfile

import pytest

from _harness import EXEC_CAPS, PAPER_SCALE, emit_table, scale_note
from repro.apps import LuWorkload, lu_class
from repro.campaign import (
    CalibrationSpec, CampaignSpec, PlatformSpec, Scenario, TraceSpec,
    run_campaign,
)
from repro.core.calibration import calibrate_flop_rate, calibrate_network
from repro.platforms import bordereau
from repro.smpi import round_robin_deployment

CLASSES = ["B", "C"]
PROCS = [8, 16, 32, 64]


def calibrate():
    # The paper calibrates on "a small instrumented instance of the
    # target application" (§5).  Class W keeps burst sizes representative
    # of the measured classes — calibrating on class S's micro-bursts
    # would bias the average rate low and push every prediction up.
    ground_truth = bordereau()
    deployment = round_robin_deployment(ground_truth, 4)
    flops = calibrate_flop_rate(ground_truth, deployment,
                                LuWorkload("W", 4).program,
                                runs=5, jitter=0.002)
    network = calibrate_network(ground_truth, deployment[:2])
    return flops, network


def fig8_campaign(flops, network) -> CampaignSpec:
    """One scenario per (class, procs, iteration cap) cell."""
    calibration = CalibrationSpec(
        kind="fixed", speed=flops.rate,
        segments=tuple((s.lower, s.upper, s.lat_factor, s.bw_factor)
                       for s in network.model.segments),
    )
    caps = [0] if PAPER_SCALE else list(EXEC_CAPS)
    scenarios = [
        Scenario(
            name=f"fig8-{cls}{procs}-k{cap}",
            ranks=procs,
            trace=TraceSpec(kind="acquire", app="lu", cls=cls,
                            papi_jitter=0.002, itmax_cap=cap),
            platform=PlatformSpec(name="bordereau"),
            calibration=calibration,
            measure_actual=True,
            timeout_s=3600.0,
        )
        for cls in CLASSES for procs in PROCS for cap in caps
    ]
    return CampaignSpec(name="fig8", scenarios=scenarios, jobs=2)


def _extrapolate(points, itmax_full: int) -> float:
    """Linear extrapolation from the capped-iteration cells (LU
    iterations are stationary), or the single full-run cell."""
    if len(points) == 1:
        return next(iter(points.values()))
    k1, k2 = EXEC_CAPS
    t1, t2 = points[k1], points[k2]
    return t1 + (itmax_full - k1) * (t2 - t1) / (k2 - k1)


def run_fig8():
    flops, network = calibrate()
    spec = fig8_campaign(flops, network)
    with tempfile.TemporaryDirectory(prefix="fig8-campaign-") as out:
        campaign = run_campaign(spec, out)
    if not campaign.ok:
        raise RuntimeError(
            f"fig8 campaign scenarios failed: {campaign.failed_names}")
    lines = [
        "Fig. 8 - actual vs simulated (replayed) LU execution time on "
        "bordereau",
        scale_note(),
        f"(calibrated flop rate: {flops.rate:.4g} flop/s, "
        f"spread {100 * flops.spread:.2f}%)",
        f"(campaign of {campaign.metrics.scenarios_total} scenarios, "
        f"{campaign.metrics.jobs} workers, "
        f"{campaign.metrics.cached_hits} cache hits)",
        "",
        f"{'inst.':>6} {'actual':>10} {'simulated':>10} {'rel.err':>9}",
    ]
    caps = [0] if PAPER_SCALE else list(EXEC_CAPS)
    series = {}
    for cls in CLASSES:
        itmax = lu_class(cls).itmax
        for procs in PROCS:
            cells = {cap: campaign.records[f"fig8-{cls}{procs}-k{cap}"]
                     for cap in caps}
            act = _extrapolate(
                {c: r.result["actual_time"] for c, r in cells.items()},
                itmax)
            sim = _extrapolate(
                {c: r.result["simulated_time"] for c, r in cells.items()},
                itmax)
            err = (sim - act) / act
            series[(cls, procs)] = (act, sim, err)
            lines.append(f"{cls + '/' + str(procs):>6} {act:>9.1f}s "
                         f"{sim:>9.1f}s {100 * err:>+8.1f}%")
    emit_table("fig8_accuracy.txt", lines)
    return series


@pytest.mark.benchmark(group="fig8")
def test_fig8_accuracy(benchmark):
    series = benchmark.pedantic(run_fig8, rounds=1, iterations=1)
    for cls in CLASSES:
        times = [series[(cls, p)][0] for p in PROCS]
        sims = [series[(cls, p)][1] for p in PROCS]
        # Correct trend: both actual and simulated decrease with procs.
        assert times == sorted(times, reverse=True)
        assert sims == sorted(sims, reverse=True)
        # Errors bounded by the paper's envelope (|err| <= ~55%)...
        for p in PROCS:
            assert abs(series[(cls, p)][2]) < 0.55
    # ...and class C sits above class B at equal process counts.
    for p in PROCS:
        assert series[("C", p)][0] > series[("B", p)][0]
        assert series[("C", p)][1] > series[("B", p)][1]
