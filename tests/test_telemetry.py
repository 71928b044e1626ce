"""Tests for the replay observability subsystem (telemetry + deadlock
diagnostics)."""

import json

import pytest

from repro.core.actions import (
    Compute, Irecv, Isend, Recv, Send, Wait,
)
from repro.core.replay import TraceReplayer
from repro.core.synth import write_synthetic_lu_trace
from repro.core.trace import InMemoryTrace
from repro.simkernel import DeadlockError, Platform, Telemetry
from repro.simkernel.pwl import IDENTITY_MODEL
from repro.smpi import round_robin_deployment


def make_replayer(n_ranks, **kw):
    platform = Platform("t")
    platform.add_cluster("c", n_ranks, speed=1e9, link_bw=1.25e8,
                         link_lat=1e-5, backbone_bw=1.25e9, backbone_lat=1e-5)
    kw.setdefault("comm_model", IDENTITY_MODEL)
    return TraceReplayer(platform, round_robin_deployment(platform, n_ranks),
                         **kw)


def trace_of(actions):
    trace = InMemoryTrace()
    for action in actions:
        trace.emit(action)
    return trace


def ring_trace():
    return trace_of([
        Compute(0, 1e6), Send(0, 1, 1e6), Recv(0, 3, 1e6),
        Recv(1, 0, 1e6), Compute(1, 1e6), Send(1, 2, 1e6),
        Recv(2, 1, 1e6), Compute(2, 1e6), Send(2, 3, 1e6),
        Recv(3, 2, 1e6), Compute(3, 1e6), Send(3, 0, 1e6),
    ])


# ---------------------------------------------------------------------------
# Metrics collection
# ---------------------------------------------------------------------------
def test_metrics_disabled_by_default():
    replayer = make_replayer(4)
    assert replayer.telemetry is None
    result = replayer.replay(ring_trace())
    assert result.metrics is None


@pytest.mark.parametrize("source", ["ring", "lu"])
def test_kernel_counters_do_not_depend_on_collect_metrics(source,
                                                          tmp_path):
    """The engine and comm layer count every replay: a replay without
    ``collect_metrics`` leaves on them exactly the counters a metered
    replay of the same trace reports."""
    if source == "ring":
        trace, n_ranks = ring_trace, 4
    else:
        write_synthetic_lu_trace(str(tmp_path), 8, iterations=2, cls="S",
                                 inorm=1, seed=3, jitter=0.01)
        trace, n_ranks = (lambda: str(tmp_path)), 8
    plain = make_replayer(n_ranks)
    plain.replay(trace())
    metered = make_replayer(n_ranks, collect_metrics=True).replay(trace())
    assert plain.engine.metrics.as_dict() == metered.metrics["engine"]
    assert plain.comms.metrics.as_dict() == metered.metrics["comm"]


def test_metrics_off_results_identical_to_seed():
    """Enabling telemetry must not change a single simulated number."""
    base = make_replayer(4).replay(ring_trace())
    metered = make_replayer(4, collect_metrics=True).replay(ring_trace())
    assert metered.simulated_time == base.simulated_time
    assert metered.per_rank_time == base.per_rank_time
    assert metered.n_actions == base.n_actions


def test_metrics_document_sections_and_invariants():
    result = make_replayer(4, collect_metrics=True).replay(ring_trace())
    metrics = result.metrics
    assert set(metrics) == {"engine", "comm", "replay", "per_rank",
                            "faults"}
    # No fault plan was injected: every fault counter must stay zero.
    assert set(metrics["faults"].values()) == {0}
    # Counter totals equal ReplayResult.n_actions, at every granularity.
    replay = metrics["replay"]
    assert replay["n_actions"] == result.n_actions == 12
    assert sum(replay["actions_by_type"].values()) == result.n_actions
    assert sum(r["n_actions"] for r in metrics["per_rank"]) == result.n_actions
    assert replay["actions_by_type"] == {"compute": 4, "send": 4, "recv": 4}
    assert replay["volumes_by_type"]["compute"] == pytest.approx(4e6)
    assert replay["volumes_by_type"]["send"] == pytest.approx(4e6)
    # Time attribution is non-negative and consistent with the clock.
    times = replay["time_by_category"]
    assert times["compute"] > 0 and times["comm"] > 0
    for entry in metrics["per_rank"]:
        for value in entry["time"].values():
            assert 0.0 <= value <= result.simulated_time + 1e-12
    # The document is JSON-serialisable as-is (the CLI dumps it verbatim).
    json.dumps(metrics)


def test_engine_metrics_counters():
    result = make_replayer(4, collect_metrics=True).replay(ring_trace())
    engine = result.metrics["engine"]
    assert engine["events_popped"] > 0
    assert engine["sharing_recomputes"] > 0
    assert engine["component_activities_max"] >= 1
    assert engine["component_activities_mean"] >= 1.0
    assert engine["stale_heap_entries_skipped"] >= 0


def test_comm_metrics_eager_vs_rendezvous():
    small, big = 1000.0, 1e6  # around the 64 KiB default threshold
    trace = trace_of([
        Send(0, 1, small), Send(0, 1, big),
        Recv(1, 0, small), Recv(1, 0, big),
    ])
    result = make_replayer(2, collect_metrics=True).replay(trace)
    comm = result.metrics["comm"]
    assert comm["transfers"] == 2
    assert comm["eager_transfers"] == 1
    assert comm["rendezvous_transfers"] == 1
    assert comm["bytes"] == pytest.approx(small + big)
    assert 0.0 <= comm["route_cache_hit_rate"] <= 1.0
    assert comm["route_cache_hits"] + comm["route_cache_misses"] >= 2


def test_comm_metrics_match_queue_depth():
    trace = trace_of([
        Isend(0, 1, 100), Isend(0, 1, 100), Isend(0, 1, 100),
        Recv(1, 0, 100), Recv(1, 0, 100), Recv(1, 0, 100),
    ])
    result = make_replayer(2, collect_metrics=True).replay(trace)
    # Depending on interleaving at least one side queues up.
    comm = result.metrics["comm"]
    assert max(comm["max_pending_sends"], comm["max_pending_recvs"]) >= 1


def test_replay_metrics_wait_attribution():
    trace = trace_of([
        Irecv(0, 1, 8e6), Wait(0),
        Compute(1, 1e9), Send(1, 0, 8e6),
    ])
    result = make_replayer(2, collect_metrics=True).replay(trace)
    per_rank = result.metrics["per_rank"]
    # Rank 0 spends its run blocked in wait (the transfer starts only
    # after rank 1's compute).
    assert per_rank[0]["time"]["wait"] > 0.5
    assert per_rank[1]["time"]["compute"] == pytest.approx(1.0, rel=0.01)


def test_replay_metrics_reset_between_replays():
    replayer = make_replayer(4, collect_metrics=True)
    first = replayer.replay(ring_trace())
    second = replayer.replay(ring_trace())
    assert first.metrics["replay"]["n_actions"] == 12
    # Per-replay counters restart; they never accumulate across calls.
    assert second.metrics["replay"]["n_actions"] == 12
    assert sum(r["n_actions"] for r in second.metrics["per_rank"]) == 12
    # The route and factor caches outlive a replay: the second one moves
    # as many messages and finds every route and factor cached.
    comm = second.metrics["comm"]
    assert comm["transfers"] == first.metrics["comm"]["transfers"] == 4
    assert comm["route_cache_misses"] == comm["factor_cache_misses"] == 0


def test_telemetry_container_as_dict_shape():
    telemetry = Telemetry()
    document = telemetry.as_dict()
    assert set(document) == {"engine", "comm", "replay", "per_rank",
                             "faults"}
    assert document["per_rank"] == []
    json.dumps(document)


# ---------------------------------------------------------------------------
# Deadlock diagnostics
# ---------------------------------------------------------------------------
def test_deadlock_report_names_blocked_actions():
    trace = trace_of([Recv(0, 1, 100), Recv(1, 0, 100)])
    with pytest.raises(DeadlockError) as err:
        make_replayer(2).replay(trace)
    exc = err.value
    assert exc.blocked == ["p0", "p1"]
    message = str(exc)
    assert "p0: blocked in 'p0 recv p1 100'" in message
    assert "p1: blocked in 'p1 recv p0 100'" in message
    assert "recv posted, no matching send" in message
    assert exc.details["ranks"][0]["action"] == "p0 recv p1 100"
    assert exc.details["unmatched"]["recvs"] == {
        "p1->p0 tag=any": 1, "p0->p1 tag=any": 1,
    }


def test_deadlock_report_truncated_trace():
    """A trace truncated mid-exchange (rank 1 lost its send) must name the
    pending operation of every blocked rank."""
    trace = trace_of([
        Compute(0, 1e6), Irecv(0, 1, 4e6), Wait(0),
        Compute(1, 1e6),  # the matching 'send' was truncated away
    ])
    with pytest.raises(DeadlockError) as err:
        make_replayer(2).replay(trace)
    exc = err.value
    assert exc.blocked == ["p0"]
    assert "p0: blocked in 'p0 wait'" in str(exc)
    assert exc.details["ranks"][0]["action"] == "p0 wait"
    assert exc.details["unmatched"]["recvs"] == {"p1->p0 tag=any": 1}
    assert exc.details["unmatched"]["sends"] == {}


def test_deadlock_report_lists_pending_irecvs():
    trace = trace_of([
        Irecv(0, 1, 100), Irecv(0, 1, 100), Recv(0, 1, 50),
    ])
    with pytest.raises(DeadlockError) as err:
        make_replayer(2).replay(trace)
    exc = err.value
    assert "pending Irecv from: p1 tag=any, p1 tag=any" in str(exc)
    assert exc.details["ranks"][0]["pending_irecvs"] == [
        "p1 tag=any", "p1 tag=any",
    ]


def test_unmatched_counts_by_key():
    replayer = make_replayer(3)
    comms = replayer.comms
    comms.isend(0, 1, 10.0, tag=7)
    comms.irecv(2, src=1, tag=3)
    assert comms.unmatched_counts() == {"sends": 1, "recvs": 1}
    keyed = comms.unmatched_counts(by_key=True)
    assert keyed["sends"] == {(0, 1, 7): 1}
    assert keyed["recvs"] == {(1, 2, 3): 1}


def test_metrics_report_pretty_printer():
    from repro.analysis import format_metrics_report

    result = make_replayer(4, collect_metrics=True).replay(ring_trace())
    report = format_metrics_report(result.metrics)
    assert "=== replay ===" in report
    assert "=== comm ===" in report
    assert "=== engine ===" in report
    assert "=== per rank ===" in report
    assert "compute" in report
    assert format_metrics_report(None).startswith("no metrics collected")


def test_cli_replay_metrics_flag(tmp_path, capsys):
    from repro.cli import main_acquire, main_replay

    workdir = str(tmp_path / "acq")
    main_acquire([
        "--app", "ring", "--ranks", "4", "--platform", "bordereau",
        "--hosts", "4", "--workdir", workdir, "--skip-application-run",
    ])
    capsys.readouterr()
    from repro.platforms import bordereau
    from repro.simkernel import dump_platform
    platform_xml = str(tmp_path / "p.xml")
    dump_platform(bordereau(4, ground_truth=False, speed=4e8), platform_xml)

    import os
    ti_dir = os.path.join(workdir, "ti")
    # To stdout.
    rc = main_replay([ti_dir, "--platform-xml", platform_xml,
                      "--ranks", "4", "--metrics"])
    assert rc == 0
    out = capsys.readouterr().out
    start = out.index("{")
    document = json.loads(out[start:])
    assert set(document) == {"engine", "comm", "replay", "per_rank",
                             "faults"}
    assert document["replay"]["n_actions"] == 48  # 4 ranks x 12 actions
    # To a file.
    json_path = str(tmp_path / "metrics.json")
    rc = main_replay([ti_dir, "--platform-xml", platform_xml,
                      "--ranks", "4", "--metrics", json_path])
    assert rc == 0
    capsys.readouterr()
    with open(json_path) as handle:
        document = json.load(handle)
    assert document["replay"]["n_ranks"] == 4
