"""Tests for the timed-trace analysis tools (profiles, wait states)."""

import pytest

from repro.analysis import build_profile, diagnose_wait_states
from repro.core.actions import (
    AllGather, AllToAll, CommSize, Compute, Irecv, Recv, Send, Wait,
)
from repro.core.replay import TraceReplayer
from repro.core.trace import InMemoryTrace
from repro.simkernel import Platform
from repro.simkernel.pwl import IDENTITY_MODEL
from repro.smpi import round_robin_deployment


def make_replayer(n_ranks, speed=1e9):
    platform = Platform("t")
    platform.add_cluster("c", n_ranks, speed=speed, link_bw=1.25e8,
                         link_lat=1e-5, backbone_bw=1.25e9, backbone_lat=1e-5)
    return TraceReplayer(platform, round_robin_deployment(platform, n_ranks),
                         comm_model=IDENTITY_MODEL, record_timed_trace=True)


def trace_of(actions):
    trace = InMemoryTrace()
    for action in actions:
        trace.emit(action)
    return trace


# ---------------------------------------------------------------------------
# Profiles
# ---------------------------------------------------------------------------

def test_profile_from_synthetic_records():
    profile = build_profile([
        (0, "compute", 0.0, 2.0),
        (0, "send", 2.0, 2.5),
        (1, "recv", 0.0, 2.5),
        (1, "compute", 2.5, 3.0),
    ])
    assert profile.n_ranks == 2
    assert profile.makespan == pytest.approx(3.0)
    p0, p1 = profile.ranks
    assert p0.compute_time == pytest.approx(2.0)
    assert p0.comm_time == pytest.approx(0.5)
    assert p1.by_kind["recv"] == pytest.approx(2.5)
    totals = profile.total_by_kind()
    assert totals["compute"] == pytest.approx(2.5)
    # efficiency: 2.5 busy / (3.0 x 2 ranks)
    assert profile.parallel_efficiency == pytest.approx(2.5 / 6.0)
    assert 0 <= profile.load_imbalance <= 1


def test_profile_rejects_negative_duration():
    with pytest.raises(ValueError):
        build_profile([(0, "compute", 1.0, 0.5)])


def test_profile_of_real_replay():
    trace = trace_of([
        Compute(0, 1e9), Send(0, 1, 1e6),
        Recv(1, 0, 1e6), Compute(1, 5e8),
    ])
    replayer = make_replayer(2)
    result = replayer.replay(trace)
    profile = build_profile(result.timed_trace)
    assert profile.makespan == pytest.approx(result.simulated_time)
    # Rank 0 computed 1s; rank 1's recv blocked ~1s waiting for it.
    assert profile.ranks[0].compute_time == pytest.approx(1.0, rel=0.01)
    assert profile.ranks[1].by_kind["recv"] == pytest.approx(1.0, rel=0.05)
    text = profile.report()
    assert "parallel efficiency" in text
    assert "compute" in text


def test_profile_counts_ai_collectives_as_communication():
    # Every rank spends its time in compute, allToAll and allGather; the
    # latter two are communication in the telemetry's categories, so
    # they must be in comm_time too.
    actions = []
    for rank in range(4):
        actions += [CommSize(rank, 4), Compute(rank, 1e8 * (rank + 1)),
                    AllToAll(rank, 1e6), AllGather(rank, 5e5)]
    result = make_replayer(4).replay(trace_of(actions))
    profile = build_profile(result.timed_trace)
    for rank_profile in profile.ranks:
        kinds = rank_profile.by_kind
        assert kinds["allToAll"] > 0 and kinds["allGather"] > 0
        assert rank_profile.comm_time == pytest.approx(
            kinds["allToAll"] + kinds["allGather"])


# ---------------------------------------------------------------------------
# Wait states
# ---------------------------------------------------------------------------

def test_late_sender_detected():
    """Rank 1 posts its receive immediately; rank 0 computes 1 s before
    sending: a textbook late-sender of ~1 s charged to rank 1."""
    trace = trace_of([
        Compute(0, 1e9), Send(0, 1, 1e6),
        Recv(1, 0, 1e6),
    ])
    replayer = make_replayer(2)
    result = replayer.replay(trace)
    report = diagnose_wait_states(trace, result.timed_trace)
    assert report.n_pairs == 1
    assert report.late_sender.get(1, 0.0) == pytest.approx(1.0, rel=0.05)
    assert report.total_late_receiver == pytest.approx(0.0, abs=1e-6)
    assert "late-sender" in report.report()


def test_late_receiver_detected():
    """Rank 0 sends a rendezvous-size message immediately; rank 1 computes
    first: the sender blocks on the late receiver."""
    trace = trace_of([
        Send(0, 1, 10e6),            # > eager threshold: synchronous
        Compute(1, 1e9), Recv(1, 0, 10e6),
    ])
    replayer = make_replayer(2)
    result = replayer.replay(trace)
    report = diagnose_wait_states(trace, result.timed_trace)
    assert report.late_receiver.get(0, 0.0) == pytest.approx(1.0, rel=0.05)
    assert report.total_late_sender == pytest.approx(0.0, abs=1e-6)


def test_irecv_wait_attribution():
    """An Irecv that overlaps compute hides the sender's lateness; only
    the residual blocking inside the wait counts."""
    trace = trace_of([
        Compute(0, 2e9), Send(0, 1, 1e6),        # sender busy 2 s
        Irecv(1, 0, 1e6), Compute(1, 1e9), Wait(1),  # receiver hides 1 s
    ])
    replayer = make_replayer(2)
    result = replayer.replay(trace)
    report = diagnose_wait_states(trace, result.timed_trace)
    # The wait starts at ~1 s, the send at ~2 s: ~1 s late-sender remains.
    assert report.late_sender.get(1, 0.0) == pytest.approx(1.0, rel=0.1)


def test_balanced_exchange_has_no_wait_states():
    trace = trace_of([
        Compute(0, 1e9), Send(0, 1, 1000),
        Compute(1, 1e9), Recv(1, 0, 1000),
    ])
    replayer = make_replayer(2)
    result = replayer.replay(trace)
    report = diagnose_wait_states(trace, result.timed_trace)
    assert report.total_late_sender < 0.01
    assert report.total_late_receiver < 0.01


def test_mismatched_inputs_rejected():
    trace = trace_of([Compute(0, 1e9)])
    with pytest.raises(ValueError):
        diagnose_wait_states(trace, [])  # no timed records
    with pytest.raises(ValueError):
        diagnose_wait_states(trace, [(0, "send", 0.0, 1.0)])  # wrong kind


# ---------------------------------------------------------------------------
# Paje export
# ---------------------------------------------------------------------------

def test_paje_export_structure(tmp_path):
    from repro.analysis import export_paje
    trace = trace_of([
        Compute(0, 1e9), Send(0, 1, 1e6),
        Recv(1, 0, 1e6), Compute(1, 5e8),
    ])
    replayer = make_replayer(2)
    result = replayer.replay(trace)
    path = str(tmp_path / "out.paje")
    n_events = export_paje(result.timed_trace, path, trace_name="test")
    text = open(path).read()
    # Definition header, both containers, every kind with a state value.
    assert "%EventDef PajeDefineContainerType" in text
    assert 'C_p0 CT_Rank C_prog "p0"' in text
    assert 'C_p1 CT_Rank C_prog "p1"' in text
    assert 'V_compute ST_Action "compute"' in text
    # Push/pop pairs balance.
    pushes = [l for l in text.splitlines() if l.startswith("5 ")]
    pops = [l for l in text.splitlines() if l.startswith("6 ")]
    assert len(pushes) == len(pops) == n_events // 2
    # Per-container, state times never go backwards.
    for rank in (0, 1):
        times = [float(l.split()[1]) for l in text.splitlines()
                 if l.startswith(("5 ", "6 ")) and f"C_p{rank}" in l]
        assert times == sorted(times)


def test_paje_export_skips_zero_duration(tmp_path):
    from repro.analysis import export_paje
    path = str(tmp_path / "z.paje")
    n_events = export_paje([(0, "comm_size", 1.0, 1.0)], path)
    assert n_events == 0


# ---------------------------------------------------------------------------
# Trace statistics
# ---------------------------------------------------------------------------

def test_trace_stats_aggregates():
    from repro.analysis import compute_trace_stats
    from repro.core.actions import AllReduce, Bcast, CommSize, Isend

    trace = trace_of([
        CommSize(0, 2), Compute(0, 2e6), Send(0, 1, 512),
        Isend(0, 1, 100000), Bcast(0, 1024), AllReduce(0, 40, 10),
        CommSize(1, 2), Compute(1, 1e6), Recv(1, 0, 512), Irecv(1, 0, 100000),
        Wait(1), Bcast(1, 1024), AllReduce(1, 40, 10),
    ])
    stats = compute_trace_stats(trace)
    assert stats.n_ranks == 2
    assert stats.total_flops == pytest.approx(3e6)
    assert stats.p2p_messages == 2
    assert stats.p2p_bytes == pytest.approx(100512)
    assert stats.collective_bytes == pytest.approx(1024 * 2 + 40 * 2)
    assert stats.collective_flops == pytest.approx(20)
    assert stats.traffic[(0, 1)] == pytest.approx(100512)
    # One eager-small, one rendezvous-class message.
    assert stats.size_histogram["< 1 KiB (eager, single frame)"] == 1
    assert stats.size_histogram[">= 64 KiB (rendezvous)"] == 1
    assert stats.heaviest_pairs()[0] == (0, 1, pytest.approx(100512))
    text = stats.report()
    assert "message sizes" in text
    assert "p0 -> p1" in text


def test_trace_stats_books_the_ai_collectives():
    from repro.analysis import compute_trace_stats
    from repro.core.actions import (
        AllGather, AllToAll, AllToAllv, Barrier, CommSize, ReduceScatter,
    )

    stats = compute_trace_stats(trace_of([
        CommSize(0, 2), AllToAll(0, 4096), AllToAllv(0, 300, (100, 200)),
        AllGather(0, 2048), ReduceScatter(0, 8192, 50), Barrier(0),
    ]))
    assert stats.collective_bytes == 4096 + 300 + 2048 + 8192
    assert stats.collective_flops == 50
    assert stats.total_flops == 0 and stats.p2p_bytes == 0


def test_trace_stats_pure_compute():
    from repro.analysis import compute_trace_stats
    stats = compute_trace_stats(trace_of([Compute(0, 5e9)]))
    assert stats.compute_comm_ratio == float("inf")
    assert stats.mean_message_bytes == 0.0
    assert "imbalance" in stats.report()
