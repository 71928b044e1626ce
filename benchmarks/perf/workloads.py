"""The benchmark's workloads: names, reasons, sizes, and input generators.

The names are fixed — later issues cite them.  Every input is a pure
function of ``(workload, seed, quick)``: the seed feeds the generators
(never the program under test, which only ever sees generated files),
so the same seed gives byte-identical inputs in any process.

This module only builds the *synthetic* inputs and the two cluster
platforms; the acquisition and campaign workloads build theirs in
:mod:`.acquire_bench` and :mod:`.service_bench` from the ``config``
recorded here.
"""

from __future__ import annotations

import os
from typing import Any, Dict

import numpy as np

from repro.core.synth import write_synthetic_lu_trace
from repro.core.synth_ai import write_synthetic_moe_trace
from repro.simkernel import Platform
from repro.smpi import round_robin_deployment

__all__ = [
    "DEFAULT_SEED", "JITTER", "WORKLOADS", "LAYERS", "workload_config",
    "cluster_platform", "write_chain_trace", "generate_trace",
    "platform_and_deployment",
]

#: The seed ``golden.json`` was generated at.
DEFAULT_SEED = 1
#: Per-burst compute wobble of every generator (the <1 % hardware-counter
#: noise acquired traces carry, paper section 6.2).
JITTER = 0.01

# One entry per workload.  ``config`` is the full-size input, ``quick``
# overrides it for the harness self-test and the 64-rank correctness
# twin (same generators and platform shape, fewer ranks).  ``share`` is
# how the run's --seconds budget is split between the timed phases; a
# replay workload without a ``replay_cold_wall_s`` share has no cold
# phase (ingest is negligible there, so cold reps would only repeat the
# warm number with the file system's noise added).
WORKLOADS: Dict[str, Dict[str, Any]] = {
    "lu2d-fatpipe-1024": {
        "kind": "replay",
        "why": ("LU class B 2-D pencil at 1024 ranks, decoupled cluster: "
                "ingest is negligible, simkernel.engine + simkernel.lmm "
                "(multi-level fills, patch_solve) do the work; a solver or "
                "event-loop change shows here."),
        "config": {"generator": "lu", "ranks": 1024, "iterations": 1,
                   "cls": "B", "inorm": 1, "compute_split": 1,
                   "backbone_sharing": "fatpipe"},
        "quick": {"ranks": 64},
        "share": {"replay_wall_s": 1.0},
    },
    "chain1d-records-1024": {
        "kind": "replay",
        "why": ("1-D chain with 512 compute records per sweep: core.trace, "
                "core.compile, .tic I/O and fusion dominate, the solver "
                "sees 1-2 level fills; an ingest change shows here, a "
                "solver change should not."),
        "config": {"generator": "chain", "ranks": 1024, "iterations": 1,
                   "records": 512, "backbone_sharing": "fatpipe"},
        "quick": {"ranks": 64, "records": 64},
        "share": {"replay_wall_s": 0.4, "replay_cold_wall_s": 0.6},
    },
    "moe-congested-64": {
        "kind": "replay",
        "why": ("MoE layer on one shared backbone: 384 actions become ~8k "
                "transfers (half rendezvous) and ~16k small fills, so "
                "mailbox, collectives and per-event cost carry it; the "
                "guard against LU-only gains."),
        "config": {"generator": "moe", "ranks": 64, "steps": 1, "layers": 1,
                   "backbone_sharing": "shared"},
        "quick": {"ranks": 16},
        "share": {"replay_wall_s": 1.0},
    },
    "lu-acquire-token-32": {
        "kind": "acquire",
        "why": ("The paper's pipeline on real LU class A at 32 ranks: smpi "
                "run, tracer, tau2simgrid, gather, then a timed-trace "
                "replay that forces the token driver (core.replay's _do_* "
                "interpreter)."),
        "config": {"app": "lu", "cls": "A", "ranks": 32, "iterations": 1,
                   "platform": "bordereau", "calibrated_speed": 4e8},
        "quick": {"cls": "S", "ranks": 8},
        "share": {"acquire_wall_s": 0.6, "replay_wall_s": 0.4},
    },
    "campaign-service-8u": {
        "kind": "service",
        "why": ("Eight distinct 64-rank LU scenarios via run_campaign, a "
                "local Supervisor, and HTTP server + one worker: forks, "
                "queue, staging, leases and reap ticks carry the time, "
                "replay is a small fixed part."),
        "config": {"units": 8, "ranks": 64, "iterations": 2, "cls": "B",
                   "inorm": 2, "platform": "bordereau", "hosts": 64,
                   "calibrated_speed": 4e8, "supervisor_jobs": 4,
                   "min_sweeps": 3, "tick_s": 0.02, "poll_s": 0.05,
                   "lease_s": 10.0},
        "quick": {"units": 2, "ranks": 16, "iterations": 1,
                  "supervisor_jobs": 2, "min_sweeps": 2},
        "share": {},
    },
}


# Workload kind -> the per-layer metric families (the part of a metric
# name before its first dot) its traced run measures.  A family missing
# here is a layer the workload does not exercise; a listed family's
# metric that a traced run does not emit needs a recorded reason.
_REPLAY_LAYERS = ("trace", "compile", "replay", "engine", "lmm", "mailbox",
                  "trace_overhead_share", "makespan_rel_err", "failed_share")
LAYERS: Dict[str, tuple] = {
    "replay": _REPLAY_LAYERS,
    "acquire": _REPLAY_LAYERS + ("smpi", "tracer", "extract", "gather"),
    "service": _REPLAY_LAYERS + ("campaign", "queue", "artifacts",
                                 "supervisor", "dispatch", "server",
                                 "worker"),
}


def workload_config(name: str, quick: bool = False) -> Dict[str, Any]:
    """The generator arguments of a workload (``quick``: its small twin)."""
    entry = WORKLOADS[name]
    config = dict(entry["config"])
    if quick:
        config.update(entry["quick"])
    return config


def cluster_platform(n_hosts: int, backbone_sharing: str) -> Platform:
    """One cluster, 1.25e9 B/s host links, 1e-6 s latencies, 1.25e10 B/s
    backbone.  ``fatpipe``: flows between distinct host pairs share no
    constraint (the decoupled platform); ``shared``: every flow crosses
    one saturating backbone (the congested platform)."""
    platform = Platform()
    platform.add_cluster(
        "c", n_hosts, speed=1e9, link_bw=1.25e9, link_lat=1e-6,
        backbone_bw=1.25e10, backbone_lat=1e-6,
        backbone_sharing=backbone_sharing,
    )
    return platform


def platform_and_deployment(config: Dict[str, Any]):
    platform = cluster_platform(config["ranks"], config["backbone_sharing"])
    return platform, round_robin_deployment(platform, config["ranks"])


def write_chain_trace(directory: str, n_ranks: int, iterations: int,
                      records: int, seed: int, jitter: float = JITTER) -> int:
    """A 1-D open-chain ghost-cell exchange in the LU action mix: per
    iteration post Irecv for each neighbour, pack + blocking send each
    64 KiB face, wait, ``records`` compute records (the shape
    function-level instrumentation produces), one allReduce.  Each
    record's volume wobbles by ``jitter`` from ``default_rng(seed +
    7919 * rank)`` (the convention of ``repro.core.synth``).  Returns
    the action count."""
    face = 65536
    n_actions = 0
    os.makedirs(directory, exist_ok=True)
    for rank in range(n_ranks):
        rng = np.random.default_rng(seed + 7919 * rank)
        neighbours = [p for p in (rank - 1, rank + 1) if 0 <= p < n_ranks]
        rows = [f"p{rank} comm_size {n_ranks}"]
        for _ in range(iterations):
            rows.extend(f"p{rank} Irecv p{peer} {face}"
                        for peer in neighbours)
            for peer in neighbours:
                rows.append(f"p{rank} compute 10000")
                rows.append(f"p{rank} send p{peer} {face}")
            rows.extend(f"p{rank} wait" for _ in neighbours)
            volumes = (1e6 / records) * (
                1.0 + jitter * rng.uniform(-1.0, 1.0, records))
            rows.extend(f"p{rank} compute {v!r}" for v in volumes.tolist())
            rows.append(f"p{rank} allReduce 40 10")
        with open(os.path.join(directory, f"SG_process{rank}.trace"),
                  "w", encoding="ascii") as handle:
            handle.write("\n".join(rows) + "\n")
        n_actions += len(rows)
    return n_actions


def generate_trace(config: Dict[str, Any], directory: str, seed: int) -> int:
    """Write the synthetic trace set of a replay workload."""
    generator = config["generator"]
    if generator == "lu":
        return write_synthetic_lu_trace(
            directory, config["ranks"], config["iterations"],
            cls=config["cls"], inorm=config["inorm"],
            compute_split=config["compute_split"], seed=seed, jitter=JITTER)
    if generator == "moe":
        return write_synthetic_moe_trace(
            directory, config["ranks"], config["steps"],
            layers=config["layers"], seed=seed, jitter=JITTER)
    if generator == "chain":
        return write_chain_trace(
            directory, config["ranks"], config["iterations"],
            config["records"], seed)
    raise ValueError(f"unknown generator {generator!r}")
