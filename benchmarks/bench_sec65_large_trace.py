"""§6.5 — acquiring a large trace: LU class D on 1024 processes, folded
(factor 8) onto 32 four-core bordereau nodes (128 cores, about a third of
the cluster).

Paper:
* acquisition (incl. extraction and gathering) took < 25 minutes,
* the TI trace is 32.5 GiB — 7.8x smaller than the 252.5 GiB TAU trace,
* gzip compresses the TI trace to 1.2 GiB (~27x).

Sizes are exact (analytic profiler); the acquisition-time estimate uses
the measured per-record extractor cost, a simulated 4-nomial gather of
the real per-node volumes, and the instrumented-execution estimate from a
capped simulated run of a folded class-D slice (REPRO_PAPER_SCALE=1 runs
the full folded instance instead — hours).
"""

import tempfile

import pytest

from _harness import PAPER_SCALE, capped, emit_table, scale_note
from repro.apps import LuWorkload, lu_class
from repro.apps.lu_profile import (
    lu_instance_profile, lu_rank_profile, rank_burst_mix, sample_rank_lines,
)
from repro.core.acquisition import AcquisitionMode, acquire, build_deployment
from repro.core.gather import simulate_gather
from repro.core.trace import estimate_gzip_ratio
from repro.platforms import bordereau
from repro.smpi import MpiRuntime
from repro.tracer import Tracer, VirtualCounterBank

N_RANKS = 1024
FOLDING = 8          # ranks per core
NODES = 32           # four-core nodes -> 128 cores, 8 ranks per core
PAPER_TI_GIB = 32.5
PAPER_TAU_GIB = 252.5
PAPER_GZ_GIB = 1.2


def folded_execution_estimate() -> float:
    """Instrumented execution time of the folded class-D run.

    At paper scale this is a full (very long) simulation.  By default it
    is analytic: the per-rank burst mix of one SSOR iteration (from the
    dry profiler) priced at the ground-truth efficiency model, times the
    folding factor (32 ranks share a node's 4 cores, with the sharing
    penalty), plus the per-record tracing overhead.  Communication is
    ignored — folded class D is overwhelmingly compute-bound, which is
    why the paper could afford the folded acquisition at all.
    """
    platform = bordereau(NODES, cores=4)
    config = lu_class("D")
    if PAPER_SCALE:
        mode = AcquisitionMode(folding=FOLDING * 4)  # 32 ranks per node
        deployment = build_deployment(platform, N_RANKS, mode)
        runtime = MpiRuntime(platform, deployment, hooks=Tracer(None),
                             papi=VirtualCounterBank(N_RANKS))
        return runtime.run(LuWorkload(config, N_RANKS).program).time

    host = platform.host_list()[0]
    bursts = rank_burst_mix(config, N_RANKS, N_RANKS // 2 + 3, itmax=1)
    per_iter = sum(
        flops / host.effective_rate_bound(kind, flops, FOLDING * 4)
        for kind, flops in bursts
    )
    profile = lu_rank_profile(config, N_RANKS, N_RANKS // 2 + 3)
    tracing = profile.tau_records * 1.5e-6  # Tracer default overhead
    # Each rank owns 1/FOLDING of a core: wall time = busy time x folding.
    return per_iter * config.itmax * FOLDING + tracing * FOLDING


def measured_extraction_cost() -> float:
    with tempfile.TemporaryDirectory() as workdir:
        result = acquire(LuWorkload("S", 4).program, bordereau(8), 4,
                         workdir=workdir, measure_application=False)
    return result.extraction.wall_seconds / result.tau_archive.n_records


def run_sec65():
    profile = lu_instance_profile("D", N_RANKS)
    ti_gib = profile.ti_bytes / 2 ** 30
    tau_gib = profile.tau_bytes / 2 ** 30

    # Compression, from a really-generated jittered sample of one rank.
    lines_sample = sample_rank_lines("D", N_RANKS, rank=N_RANKS // 2 + 3,
                                     max_iters=1)
    gz_ratio = estimate_gzip_ratio(lines_sample)
    gz_gib = ti_gib / gz_ratio

    # Acquisition time: execution + extraction (parallel over 128 cores,
    # but folded 8x like the application) + gathering over 32 nodes.
    execution = folded_execution_estimate()
    per_record = measured_extraction_cost()
    records_per_core = profile.tau_records / (NODES * 4)
    extraction = records_per_core * per_record * FOLDING ** 0  # cores busy 1x
    platform = bordereau(NODES, cores=4)
    node_bytes = [profile.ti_bytes / NODES] * NODES
    gather = simulate_gather(platform, platform.host_list(), node_bytes,
                             arity=4).time
    total_minutes = (execution + extraction + gather) / 60

    lines = [
        "Sec. 6.5 - acquiring LU class D / 1024 processes "
        f"(folding 8 on {NODES} four-core nodes)",
        scale_note(),
        "",
        f"TI trace size:        {ti_gib:8.2f} GiB   (paper {PAPER_TI_GIB})",
        f"TAU trace size:       {tau_gib:8.2f} GiB   (paper {PAPER_TAU_GIB})",
        f"TAU / TI ratio:       {tau_gib / ti_gib:8.2f}       (paper 7.8)",
        f"gzip ratio (sampled): {gz_ratio:8.1f}x",
        f"gzipped TI trace:     {gz_gib:8.2f} GiB   (paper {PAPER_GZ_GIB})",
        "",
        f"instrumented execution: {execution:10.1f} s",
        f"extraction (parallel):  {extraction:10.1f} s "
        f"({per_record * 1e6:.2f} us/record measured)",
        f"gathering (4-nomial):   {gather:10.1f} s",
        f"total acquisition:      {total_minutes:10.1f} min "
        f"(paper: < 25 min)",
    ]
    emit_table("sec65_large_trace.txt", lines)
    return {
        "ti_gib": ti_gib, "tau_gib": tau_gib, "gz_gib": gz_gib,
        "gz_ratio": gz_ratio, "minutes": total_minutes,
    }


@pytest.mark.benchmark(group="sec65")
def test_sec65_large_trace(benchmark):
    result = benchmark.pedantic(run_sec65, rounds=1, iterations=1)
    # Sizes in the paper's regime.
    assert abs(result["ti_gib"] - PAPER_TI_GIB) / PAPER_TI_GIB < 0.25
    assert abs(result["tau_gib"] - PAPER_TAU_GIB) / PAPER_TAU_GIB < 0.25
    # Compression lands in the tens-x regime (paper ~27x).
    assert 10 < result["gz_ratio"] < 60
    assert result["gz_gib"] < 3.0
