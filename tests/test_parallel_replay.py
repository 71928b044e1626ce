"""Cross-driver equivalence for the parallel replay paths.

Phase batching (one dependency graph per synchronizing collective) and
sharded replay (contiguous rank bands in forked workers) are exactness
features, not approximations: both must reproduce the sequential
compiled driver to 1e-9 — makespan, per-rank times, and the replay
metrics counters — across lmm modes.  Fault plans force the sequential
path, and the fault reports must stay byte-identical.
"""

import os
import tempfile

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.replay import TraceReplayer
from repro.core.synth import write_synthetic_lu_trace
from repro.core.trace import trace_file_name
from repro.simkernel import Platform
from repro.simkernel.pwl import IDENTITY_MODEL
from repro.smpi import round_robin_deployment

EAGER = 1e3
RENDEZVOUS = 1e6


def fatpipe_platform(n_hosts, speed=1e9):
    """A decoupled cluster: per-host links plus a fatpipe backbone, so
    flows between distinct host pairs share no constraint (what the
    sharded driver requires)."""
    platform = Platform("t")
    platform.add_cluster("c", n_hosts, speed=speed, link_bw=1.25e8,
                         link_lat=1e-6, backbone_bw=1.25e10,
                         backbone_lat=1e-6,
                         backbone_sharing="fatpipe")
    return platform


def shared_platform(n_hosts, speed=1e9):
    """The default shared-backbone cluster (not shardable; fine for
    batching, which has no platform restrictions)."""
    platform = Platform("t")
    platform.add_cluster("c", n_hosts, speed=speed, link_bw=1.25e8,
                         link_lat=1e-5, backbone_bw=1.25e9,
                         backbone_lat=1e-5)
    return platform


def make_replayer(platform, n_ranks, vector_threshold=None, **kw):
    kw.setdefault("comm_model", IDENTITY_MODEL)
    kw.setdefault("collect_metrics", True)
    replayer = TraceReplayer(platform,
                             round_robin_deployment(platform, n_ranks), **kw)
    if vector_threshold is not None:
        replayer.engine.vector_threshold = vector_threshold
    return replayer


#: The solver configurations: both modes, and the array filling on
#: every multi-constraint group.
solvers = st.sampled_from(
    [{}, {"lmm_mode": "reference"}, {"vector_threshold": 1}])


def lu_dir(directory, n_ranks, iterations, inorm):
    write_synthetic_lu_trace(directory, n_ranks, iterations, inorm=inorm)
    return directory


def write_dir(directory, lines):
    for rank, rank_lines in lines.items():
        path = os.path.join(directory, trace_file_name(rank))
        with open(path, "w", encoding="ascii") as handle:
            handle.write("\n".join(rank_lines) + "\n")
    return directory


def assert_equivalent(a, b, tol=1e-9):
    assert abs(a.simulated_time - b.simulated_time) <= \
        tol * max(1.0, abs(a.simulated_time))
    for ra, rb in zip(a.per_rank_time, b.per_rank_time):
        assert abs(ra - rb) <= tol * max(1.0, abs(ra))
    assert a.n_ranks == b.n_ranks
    assert a.n_actions == b.n_actions


def assert_counters_match(a, b, tol=1e-9):
    """Replay-level telemetry both paths must reproduce: action counts
    and volumes exactly, per-rank category times to 1e-9.  (Engine and
    comm counters legitimately differ — batching bypasses the mailbox.)"""
    ra, rb = a.metrics["replay"], b.metrics["replay"]
    assert ra["actions_by_type"] == rb["actions_by_type"]
    for name, volume in ra["volumes_by_type"].items():
        assert volume == pytest.approx(rb["volumes_by_type"][name],
                                       rel=tol, abs=tol)
    assert len(a.metrics["per_rank"]) == len(b.metrics["per_rank"])
    for rank_a, rank_b in zip(a.metrics["per_rank"], b.metrics["per_rank"]):
        assert rank_a["actions"] == rank_b["actions"]
        for cat, seconds in rank_a["time"].items():
            assert seconds == pytest.approx(rank_b["time"][cat],
                                            rel=tol, abs=tol)


# ----------------------------------------------------------------------
# Phase batching
# ----------------------------------------------------------------------
volumes = st.floats(min_value=1e3, max_value=5e7,
                    allow_nan=False, allow_infinity=False)


@st.composite
def collective_heavy_programs(draw):
    """Shared-phase programs mixing ring p2p (eager and rendezvous),
    imbalanced compute, and the synchronizing collectives the batcher
    intercepts (allReduce/barrier) — plus bcast/reduce phases that stay
    on the generator path alongside batched ones."""
    n_ranks = draw(st.integers(2, 5))
    lines = {r: [f"p{r} comm_size {n_ranks}"] for r in range(n_ranks)}
    n_phases = draw(st.integers(2, 6))
    for _ in range(n_phases):
        kind = draw(st.sampled_from(
            ["compute", "ring", "allReduce", "barrier", "bcast", "reduce"]))
        if kind == "compute":
            for r in range(n_ranks):
                for _ in range(draw(st.integers(0, 2))):
                    lines[r].append(f"p{r} compute {draw(volumes)!r}")
        elif kind == "ring":
            size = draw(st.sampled_from([EAGER, RENDEZVOUS]))
            for r in range(n_ranks):
                lines[r] += [
                    f"p{r} Irecv p{(r - 1) % n_ranks} {size:.0f}",
                    f"p{r} send p{(r + 1) % n_ranks} {size:.0f}",
                    f"p{r} wait",
                ]
        elif kind == "allReduce":
            vcomm, vcomp = draw(volumes), draw(volumes)
            for r in range(n_ranks):
                lines[r].append(f"p{r} allReduce {vcomm!r} {vcomp!r}")
        elif kind == "barrier":
            for r in range(n_ranks):
                lines[r].append(f"p{r} barrier")
        elif kind == "bcast":
            size = draw(volumes)
            for r in range(n_ranks):
                lines[r].append(f"p{r} bcast {size!r}")
        else:
            vcomm, vcomp = draw(volumes), draw(volumes)
            for r in range(n_ranks):
                lines[r].append(f"p{r} reduce {vcomm!r} {vcomp!r}")
    # At least one synchronizing collective so the batcher has work.
    for r in range(n_ranks):
        lines[r].append(f"p{r} barrier")
    return n_ranks, lines


@settings(max_examples=25, deadline=None)
@given(program=collective_heavy_programs(), solver=solvers)
def test_batched_matches_sequential_compiled(program, solver):
    n_ranks, lines = program
    with tempfile.TemporaryDirectory() as directory:
        write_dir(directory, lines)
        results = {}
        for batch in (False, True):
            platform = shared_platform(n_ranks)
            replayer = make_replayer(platform, n_ranks, compiled="auto",
                                     batch_phases=batch, **solver)
            results[batch] = replayer.replay(directory)
        assert_equivalent(results[False], results[True])
        assert_counters_match(results[False], results[True])
        n_sync = sum(1 for line in lines[0]
                     if " allReduce " in line or line.endswith(" barrier"))
        assert results[False].metrics["replay"]["phase_advances"] == 0
        assert results[True].metrics["replay"]["phase_advances"] == n_sync


def test_batching_ineligible_host_models_falls_back_silently(tmp_path):
    # An efficiency model on any replay host makes the batched graph
    # inexact, so the gate quietly keeps the generator path.
    lu_dir(str(tmp_path), 4, 2, 1)
    platform = shared_platform(4)
    for host in platform.host_list():
        host.efficiency_model = lambda kind, amount: 1.0
    replayer = make_replayer(platform, 4, compiled="auto",
                             batch_phases=True)
    reference = make_replayer(shared_platform(4), 4, compiled="auto")
    batched = replayer.replay(str(tmp_path))
    assert batched.metrics["replay"]["phase_advances"] == 0
    assert_equivalent(reference.replay(str(tmp_path)), batched)


# ----------------------------------------------------------------------
# Sharded replay
# ----------------------------------------------------------------------
@settings(max_examples=8, deadline=None)
@given(n_ranks=st.sampled_from([4, 8, 16]),
       iterations=st.integers(1, 3),
       inorm=st.integers(1, 2),
       shards=st.integers(2, 3),
       solver=solvers)
def test_sharded_matches_sequential_compiled(n_ranks, iterations, inorm,
                                             shards, solver):
    assume(iterations >= inorm)  # at least one allReduce window
    with tempfile.TemporaryDirectory() as directory:
        lu_dir(directory, n_ranks, iterations, inorm)
        sequential = make_replayer(fatpipe_platform(n_ranks), n_ranks,
                                   compiled="auto", **solver)
        sharded = make_replayer(fatpipe_platform(n_ranks), n_ranks,
                                compiled="auto", shards=shards, **solver)
        a = sequential.replay(directory)
        b = sharded.replay(directory)
        assert_equivalent(a, b)
        assert b.metrics["replay"]["shard_merges"] == iterations // inorm
        assert b.metrics["replay"]["phase_advances"] == iterations // inorm
        assert a.metrics["replay"]["shard_merges"] == 0


def test_sharded_composes_with_phase_batching(tmp_path):
    lu_dir(str(tmp_path), 16, 4, 2)
    sequential = make_replayer(fatpipe_platform(16), 16, compiled="auto")
    both = make_replayer(fatpipe_platform(16), 16, compiled="auto",
                         shards=4, batch_phases=True)
    assert_equivalent(sequential.replay(str(tmp_path)),
                      both.replay(str(tmp_path)))


def test_sharded_explicit_halo_and_metrics_merge(tmp_path):
    lu_dir(str(tmp_path), 16, 2, 1)
    sequential = make_replayer(fatpipe_platform(16), 16, compiled="auto")
    sharded = make_replayer(fatpipe_platform(16), 16, compiled="auto",
                            shards=2, shard_halo=16)
    a = sequential.replay(str(tmp_path))
    b = sharded.replay(str(tmp_path))
    assert_equivalent(a, b)
    # Merged worker counters are aggregates over overlapping sim sets,
    # flagged as such; per-rank cells are not deduplicatable.
    assert b.metrics["engine"]["aggregated_over_shards"] == 2
    assert b.metrics["per_rank"] == []
    assert b.metrics["replay"]["n_actions"] == a.metrics["replay"]["n_actions"]
    # Sharing-topology counters are per-engine events and sum over the
    # shard engines (each full-halo worker builds the point-to-point
    # groups itself; the collectives' merges stay with the coordinator).
    merges = a.metrics["engine"]["group_merges"]
    assert 0 < merges < b.metrics["engine"]["group_merges"] <= 2 * merges
    assert b.metrics["engine"]["vector_attaches"] == 0   # 16 ranks: scalar


# ----------------------------------------------------------------------
# Fault plans pin the sequential path
# ----------------------------------------------------------------------
def test_fault_plan_forces_sequential_path_with_identical_report(
        tmp_path, monkeypatch):
    from repro.core import shard
    from repro.faults import FaultPlan, HostCrash

    lu_dir(str(tmp_path), 8, 4, 2)
    plan = FaultPlan(events=(HostCrash("c-3", 0.01),))
    reports = {}
    results = {}
    for shards in (0, 4):
        replayer = make_replayer(fatpipe_platform(8), 8, compiled="auto",
                                 fault_plan=plan, shards=shards)
        if shards:
            # Pin the dispatch: a fault plan must never reach the
            # sharded driver (workers cannot replicate cross-band
            # failure provenance byte-for-byte).
            monkeypatch.setattr(
                shard, "replay_sharded",
                lambda *a, **kw: pytest.fail(
                    "fault plan reached replay_sharded"))
        results[shards] = replayer.replay(str(tmp_path))
        reports[shards] = results[shards].fault_report.to_json()
    assert reports[0] == reports[4]
    assert_equivalent(results[0], results[4])


# ----------------------------------------------------------------------
# Option and platform gates
# ----------------------------------------------------------------------
def test_sharding_option_conflicts_raise():
    platform = fatpipe_platform(4)
    deployment = round_robin_deployment(platform, 4)
    with pytest.raises(ValueError, match="record_timed_trace"):
        TraceReplayer(platform, deployment, shards=2,
                      record_timed_trace=True)
    with pytest.raises(ValueError, match="compiled"):
        TraceReplayer(platform, deployment, shards=2, compiled="never")
    with pytest.raises(ValueError, match="binomial"):
        TraceReplayer(platform, deployment, shards=2,
                      collective_algorithm="flat")
    with pytest.raises(ValueError):
        TraceReplayer(platform, deployment, shards=-1)
    with pytest.raises(ValueError):
        TraceReplayer(platform, deployment, shard_halo=-1)


def test_sharding_refuses_shared_backbone(tmp_path):
    lu_dir(str(tmp_path), 4, 2, 1)
    replayer = make_replayer(shared_platform(4), 4, compiled="auto",
                             shards=2)
    with pytest.raises(ValueError, match="decoupled platform"):
        replayer.replay(str(tmp_path))


def test_sharding_refuses_traces_without_windows(tmp_path):
    lines = {r: [f"p{r} comm_size 4", f"p{r} compute 1e6"]
             for r in range(4)}
    write_dir(str(tmp_path), lines)
    replayer = make_replayer(fatpipe_platform(4), 4, compiled="auto",
                             shards=2)
    with pytest.raises(ValueError, match="synchronizing collective"):
        replayer.replay(str(tmp_path))


def test_sharding_refuses_standalone_bcast(tmp_path):
    lines = {r: [f"p{r} comm_size 4", f"p{r} bcast 1e5", f"p{r} barrier"]
             for r in range(4)}
    write_dir(str(tmp_path), lines)
    replayer = make_replayer(fatpipe_platform(4), 4, compiled="auto",
                             shards=2)
    with pytest.raises(ValueError, match="bcast/reduce"):
        replayer.replay(str(tmp_path))


def test_single_shard_degrades_to_sequential(tmp_path):
    lu_dir(str(tmp_path), 4, 2, 1)
    a = make_replayer(fatpipe_platform(4), 4, compiled="auto")
    b = make_replayer(fatpipe_platform(4), 4, compiled="auto", shards=1)
    assert_equivalent(a.replay(str(tmp_path)), b.replay(str(tmp_path)))
