"""Property-based equivalence: compiled feed == streamed feed.

Hypothesis generates random-but-valid synthetic trace programs (shared
phase structure across ranks, so collectives line up and the ring
exchanges cannot deadlock) and asserts the compiled feed reproduces
the streamed feed's timings to 1e-9 — including under fault plans, where
the two feeds must emit byte-identical fault reports — and that the
replay is homogeneous in capacity (a metamorphic property of max-min).
"""

import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.replay import TraceReplayer
from repro.core.trace import trace_file_name
from repro.simkernel import Platform
from repro.simkernel.pwl import IDENTITY_MODEL
from repro.smpi import round_robin_deployment

RENDEZVOUS = 1e6


def make_platform(n_hosts, speed=1e9, scale=1.0, latency=1e-5):
    platform = Platform("t")
    platform.add_cluster("c", n_hosts, speed=speed * scale,
                         link_bw=1.25e8 * scale, link_lat=latency,
                         backbone_bw=1.25e9 * scale, backbone_lat=latency)
    return platform


def make_replayer(platform, n_ranks, vector_threshold=None, **kw):
    kw.setdefault("comm_model", IDENTITY_MODEL)
    replayer = TraceReplayer(platform,
                             round_robin_deployment(platform, n_ranks), **kw)
    if vector_threshold is not None:
        replayer.engine.vector_threshold = vector_threshold
    return replayer


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


#: The solver configurations: both modes, and the array filling on
#: every multi-constraint group.
solvers = st.sampled_from(
    [{}, {"lmm_mode": "reference"}, {"vector_threshold": 1}])

volumes = st.floats(min_value=1e3, max_value=5e7,
                    allow_nan=False, allow_infinity=False)


@st.composite
def trace_programs(draw):
    """A random valid TI trace: every rank executes the same sequence of
    phases, so collective tags line up and p2p forms safe rings."""
    n_ranks = draw(st.integers(2, 4))
    lines = {r: [f"p{r} comm_size {n_ranks}"] for r in range(n_ranks)}
    n_phases = draw(st.integers(1, 6))
    for _ in range(n_phases):
        kind = draw(st.sampled_from(
            ["compute", "ring", "bcast", "allReduce", "reduce", "barrier"]))
        if kind == "compute":
            # Independent run lengths per rank: exercises compute fusion
            # (runs of >= 2) and rank imbalance.
            for r in range(n_ranks):
                for _ in range(draw(st.integers(0, 3))):
                    lines[r].append(f"p{r} compute {draw(volumes)!r}")
        elif kind == "ring":
            size = draw(volumes)
            for r in range(n_ranks):
                lines[r] += [
                    f"p{r} Irecv p{(r - 1) % n_ranks} {size!r}",
                    f"p{r} compute {draw(volumes)!r}",
                    f"p{r} send p{(r + 1) % n_ranks} {size!r}",
                    f"p{r} wait",
                ]
        elif kind == "barrier":
            for r in range(n_ranks):
                lines[r].append(f"p{r} barrier")
        elif kind == "bcast":
            size = draw(volumes)
            for r in range(n_ranks):
                lines[r].append(f"p{r} bcast {size!r}")
        else:  # allReduce / reduce: <bytes> <flops>
            size, comp = draw(volumes), draw(volumes)
            for r in range(n_ranks):
                lines[r].append(f"p{r} {kind} {size!r} {comp!r}")
    return n_ranks, lines


@settings(max_examples=25, deadline=None)
@given(program=trace_programs(), solver=solvers)
def test_compiled_replay_matches_token_replay(program, solver):
    n_ranks, lines = program
    with tempfile.TemporaryDirectory() as directory:
        write_dir(directory, lines)
        results = {}
        for mode in ("never", "auto"):
            platform = make_platform(n_ranks)
            replayer = make_replayer(platform, n_ranks, compiled=mode,
                                     **solver)
            results[mode] = replayer.replay(directory)
        assert_equivalent(results["never"], results["auto"])


@st.composite
def ring_programs(draw):
    n_ranks = draw(st.integers(2, 4))
    iterations = draw(st.integers(2, 8))
    lines = {}
    for r in range(n_ranks):
        rank_lines = [f"p{r} comm_size {n_ranks}"]
        for _ in range(iterations):
            rank_lines += [
                f"p{r} Irecv p{(r - 1) % n_ranks} {RENDEZVOUS:.0f}",
                f"p{r} compute {draw(volumes)!r}",
                f"p{r} send p{(r + 1) % n_ranks} {RENDEZVOUS:.0f}",
                f"p{r} wait",
            ]
        lines[r] = rank_lines
    return n_ranks, lines


@settings(max_examples=15, deadline=None)
@given(program=ring_programs(),
       victim=st.integers(0, 3),
       crash_at=st.floats(min_value=1e-3, max_value=0.5,
                          allow_nan=False, allow_infinity=False))
def test_fault_reports_identical_across_drivers(program, victim, crash_at):
    from repro.faults import FaultPlan, HostCrash

    n_ranks, lines = program
    plan = FaultPlan(events=(HostCrash(f"c-{victim % n_ranks}", crash_at),))
    with tempfile.TemporaryDirectory() as directory:
        write_dir(directory, lines)
        reports = {}
        results = {}
        for mode in ("never", "auto"):
            platform = make_platform(n_ranks)
            replayer = make_replayer(platform, n_ranks, fault_plan=plan,
                                     compiled=mode)
            results[mode] = replayer.replay(directory)
            reports[mode] = results[mode].fault_report.to_json()
        assert reports["never"] == reports["auto"]
        assert_equivalent(results["never"], results["auto"])


@settings(max_examples=25, deadline=None)
@given(program=trace_programs(), j=st.sampled_from([-3, 1, 5]),
       solver=solvers)
def test_capacity_scaling_scales_times_by_its_inverse(program, j, solver):
    """Max-min rates are homogeneous in capacity: with every host speed
    and link bandwidth multiplied by k = 2**j, one rank per host and
    zero link latency, every finish time is divided by exactly k."""
    n_ranks, lines = program
    k = 2.0 ** j
    with tempfile.TemporaryDirectory() as directory:
        write_dir(directory, lines)
        base, scaled = (
            make_replayer(make_platform(n_ranks, scale=scale, latency=0.0),
                          n_ranks, **solver).replay(directory)
            for scale in (1.0, k))
    assert scaled.simulated_time * k == pytest.approx(base.simulated_time,
                                                      rel=1e-9)
    assert [t * k for t in scaled.per_rank_time] == \
        pytest.approx(base.per_rank_time, rel=1e-9)
