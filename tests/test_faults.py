"""Fault injection: plans, kernel semantics, failure-aware replay modes,
and the chaos harness.

The headline contracts exercised here:

* a fault plan is a frozen, JSON-round-trippable document that fails
  loudly on any malformed input;
* a host crash mid-replay kills exactly the resident ranks and the
  report attributes every blocked survivor to the rank death that
  started the chain (transitive provenance);
* the same plan + seed produces *byte-identical* fault reports on
  every replay path (tests/test_differential.py) and when faults hit
  the array solver's absorbed rows or a group it just demoted (here);
* both failure-aware replay modes terminate — no fault plan can hang
  the replayer.
"""

import math

import pytest

from repro.core.actions import Compute, Irecv, Recv, Send, Wait
from repro.core.trace import InMemoryTrace
from repro.faults import (
    CheckpointModel, FaultPlan, HostCrash, LinkDegrade, LinkDown,
    load_fault_plan, random_fault_plan, simulate_checkpoint_restart,
)
from repro.simkernel import Platform

from .lattice import RENDEZVOUS, SOLVERS, make_replayer, shared_platform


def ring_trace(n_ranks, iterations):
    """Irecv/compute/send/wait ring: rendezvous messages, so a dead rank
    blocks both its upstream sender and its downstream receiver."""
    trace = InMemoryTrace()
    for rank in range(n_ranks):
        for _ in range(iterations):
            trace.emit(Irecv(rank, (rank - 1) % n_ranks, RENDEZVOUS))
            trace.emit(Compute(rank, 1e6))
            trace.emit(Send(rank, (rank + 1) % n_ranks, RENDEZVOUS))
            trace.emit(Wait(rank))
    return trace


# ---------------------------------------------------------------------------
# Fault plans
# ---------------------------------------------------------------------------

def test_plan_json_roundtrip(tmp_path):
    plan = FaultPlan(
        events=(HostCrash("c-1", 2.5),
                LinkDown("c-0.up", 1.0, t_up=3.0),
                LinkDegrade("c.bb", 0.5, factor=0.25)),
        checkpoint=CheckpointModel(interval=1.0, cost=0.1, restart=0.2),
        seed=7,
    )
    assert FaultPlan.loads(plan.to_json()) == plan
    path = str(tmp_path / "plan.json")
    plan.dump(path)
    assert load_fault_plan(path) == plan


def test_plan_events_sorted_deterministically():
    plan = FaultPlan(events=(HostCrash("b", 2.0), HostCrash("a", 1.0),
                             HostCrash("c", 1.0)))
    ordered = plan.sorted_events()
    assert [e.host for e in ordered] == ["a", "c", "b"]  # time, then position


@pytest.mark.parametrize("doc", [
    '{"events": [{"kind": "meteor_strike", "t": 1.0}]}',
    '{"events": [{"kind": "host_crash"}]}',
    '{"events": [{"kind": "host_crash", "host": "h", "t": -1}]}',
    '{"events": [{"kind": "host_crash", "host": "h", "t": "NaN"}]}',
    '{"events": [{"kind": "link_down", "link": "l", "t": 5, "t_up": 4}]}',
    '{"events": [{"kind": "link_degrade", "link": "l", "t": 1, "factor": 0}]}',
    '{"events": [{"kind": "host_crash", "host": "h", "t": 1, "x": 2}]}',
    '{"surprise": true}',
    '{"checkpoint": {"interval": 0}}',
    '{"seed": "abc"}',
    '[1, 2]',
    'not json at all',
])
def test_plan_rejects_bad_documents(doc):
    with pytest.raises(ValueError):
        FaultPlan.loads(doc)


def test_plan_validates_resource_names():
    platform = shared_platform(2)
    FaultPlan(events=(HostCrash("c-0", 1.0),)).validate(platform)
    with pytest.raises(ValueError, match="unknown host"):
        FaultPlan(events=(HostCrash("nope", 1.0),)).validate(platform)
    with pytest.raises(ValueError, match="unknown link"):
        FaultPlan(events=(LinkDown("nope", 1.0),)).validate(platform)


def test_replayer_rejects_bad_fault_configuration():
    platform = shared_platform(2)
    with pytest.raises(ValueError, match="unknown fault mode"):
        make_replayer(platform, 2, fault_mode="retry-forever")
    # checkpoint-restart needs a checkpoint model ...
    plan = FaultPlan(events=(HostCrash("c-0", 1.0),))
    with pytest.raises(ValueError, match="checkpoint"):
        make_replayer(platform, 2, fault_plan=plan,
                      fault_mode="checkpoint-restart")
    # ... and cannot absorb link outages analytically.
    plan = FaultPlan(events=(LinkDown("c-0.up", 1.0),),
                     checkpoint=CheckpointModel(interval=1.0))
    with pytest.raises(ValueError, match="link_down"):
        make_replayer(platform, 2, fault_plan=plan,
                      fault_mode="checkpoint-restart")


# ---------------------------------------------------------------------------
# Abort mode: kill semantics + transitive provenance
# ---------------------------------------------------------------------------

def test_ring_rank3_crash_names_root_cause_and_casualties():
    """8-rank ring, rank 3's host dies mid-replay: the report must name
    rank 3 as the root cause and the blocked peers as its casualties."""
    n = 8
    platform = shared_platform(n)
    fault_free = make_replayer(platform, n).replay(ring_trace(n, 6))

    plan = FaultPlan(events=(
        HostCrash("c-3", 0.5 * fault_free.simulated_time),))
    platform = shared_platform(n)
    result = make_replayer(platform, n, fault_plan=plan).replay(
        ring_trace(n, 6))
    report = result.fault_report
    assert report is not None and report.mode == "abort"
    assert report.failed_ranks == [3]
    assert report.failures[0].host == "c-3"
    assert "host_crash" in report.failures[0].cause
    # The upstream sender (2) and downstream receiver (4) cannot outlive
    # rank 3 by a full ring turn; both must be reported blocked.
    assert {2, 4} <= set(report.casualty_ranks)
    assert 3 not in report.casualty_ranks
    for casualty in report.casualties:
        assert casualty["root_cause_rank"] == 3
        assert "host_crash" in casualty["root_cause"]
    # Per-rank lost progress covers every rank with a terminal state.
    assert set(report.lost_progress) == set(range(n))
    assert report.lost_progress[3]["state"] == "failed"
    states = {info["state"] for info in report.lost_progress.values()}
    assert states <= {"failed", "blocked", "finished"}
    # The run terminated (did not hang) at quiescence.
    assert result.simulated_time <= fault_free.simulated_time


@pytest.mark.parametrize("compiled", ["auto", "never"])
def test_lost_progress_does_not_count_the_action_in_flight(compiled):
    """p0's host dies inside p0's first compute: it completed nothing."""
    trace = InMemoryTrace()
    for rank, flops in ((0, 1e9), (0, 1e9), (1, 1e8)):
        trace.emit(Compute(rank, flops))
    plan = FaultPlan(events=(HostCrash("c-0", 0.5),))
    result = make_replayer(shared_platform(2), 2, fault_plan=plan,
                           compiled=compiled).replay(trace)
    progress = result.fault_report.lost_progress
    assert progress[0]["state"] == "failed"
    assert progress[0]["actions_completed"] == 0
    assert progress[1] == {"actions_completed": 1, "time": 0.1,
                           "state": "finished"}
    assert result.n_actions == 1


def test_a_crash_fails_an_eager_payload_still_in_flight():
    """p0's eager send to p1 is still on the wire when p0's host dies:
    the flow fails and its queue entry is purged, so the receive p1
    posts later matches nothing and p1 ends as a casualty."""
    trace = InMemoryTrace()
    trace.emit(Send(0, 1, 6e4))
    trace.emit(Compute(0, 1e9))
    trace.emit(Compute(1, 1e7))
    trace.emit(Recv(1, 0, 6e4))
    plan = FaultPlan(events=(HostCrash("c-0", 1e-4),))
    replayer = make_replayer(shared_platform(2), 2, fault_plan=plan,
                             collect_metrics=True)
    result = replayer.replay(trace)
    report = result.fault_report
    assert report.failed_ranks == [0] and report.casualty_ranks == [1]
    faults = result.metrics["faults"]
    # p0's compute burst and its flow; the flow's queue entry.
    assert faults["activities_failed"] == 2
    assert faults["queue_entries_purged"] == 1
    assert replayer.comms.unmatched_counts() == {"sends": 0, "recvs": 1}


def test_link_down_fails_transfers_with_typed_provenance():
    n = 2
    platform = shared_platform(n)
    fault_free = make_replayer(platform, n).replay(ring_trace(n, 4))
    # 0.45 x makespan lands strictly inside a rendezvous transfer (each
    # ring turn is compute-then-transfer), never on an event boundary
    # where "in-flight" would be a floating-point coin toss.
    plan = FaultPlan(events=(
        LinkDown("c-1.down", 0.45 * fault_free.simulated_time),))
    platform = shared_platform(n)
    result = make_replayer(platform, n, fault_plan=plan).replay(
        ring_trace(n, 4))
    report = result.fault_report
    assert report.failures, "a dead link must fail the flows crossing it"
    assert any("link_down" in f.cause for f in report.failures)


def test_link_degrade_slows_the_replay_and_matches_across_solvers():
    n = 4
    trace = ring_trace(n, 3)
    baseline = make_replayer(shared_platform(n), n).replay(trace)
    plan = FaultPlan(events=(LinkDegrade("c.bb", 0.0, factor=0.1),))
    times = {}
    for mode in ("reference", "vectorized"):
        result = make_replayer(shared_platform(n), n, fault_plan=plan,
                               **SOLVERS[mode]).replay(trace)
        assert not result.fault_report.failures
        times[mode] = result.simulated_time
    assert times["reference"] > baseline.simulated_time
    assert times["reference"] == pytest.approx(times["vectorized"], rel=1e-9)


def test_empty_plan_reports_clean_run():
    n = 2
    platform = shared_platform(n)
    result = make_replayer(platform, n, fault_plan=FaultPlan()).replay(
        ring_trace(n, 2))
    report = result.fault_report
    assert report is not None
    assert not report.failures and not report.casualties
    assert all(info["state"] == "finished"
               for info in report.lost_progress.values())


def test_fault_free_replay_is_bit_identical_without_a_plan():
    n = 4
    trace = ring_trace(n, 3)
    a = make_replayer(shared_platform(n), n).replay(trace)
    b = make_replayer(shared_platform(n), n).replay(trace)
    assert a.simulated_time == b.simulated_time
    assert a.per_rank_time == b.per_rank_time
    assert a.fault_report is None


# ---------------------------------------------------------------------------
# Checkpoint/restart model
# ---------------------------------------------------------------------------

def test_checkpoint_model_no_crashes():
    model = CheckpointModel(interval=3.0, cost=0.5, restart=1.0)
    outcome = simulate_checkpoint_restart(10.0, [10.0] * 4, [], model)
    assert outcome.makespan == pytest.approx(11.5)  # 3 checkpoints x 0.5
    assert outcome.n_checkpoints == 3
    assert outcome.n_restarts == 0
    assert outcome.total_rework == 0.0


def test_checkpoint_model_one_crash_accounting():
    model = CheckpointModel(interval=3.0, cost=0.5, restart=1.0)
    outcome = simulate_checkpoint_restart(10.0, [10.0], [5.0], model)
    # Crash at wall t=5: progress 4.5, restored to the t=3 checkpoint.
    assert outcome.n_restarts == 1
    assert outcome.total_rework == pytest.approx(1.5)
    assert outcome.n_checkpoints == 3
    assert outcome.makespan == pytest.approx(14.0)
    assert outcome.crashes[0]["restored_to"] == pytest.approx(3.0)


def test_checkpoint_model_crash_during_write_discards_it():
    model = CheckpointModel(interval=3.0, cost=0.5, restart=1.0)
    # The first write spans wall [3.0, 3.5); a crash inside it loses
    # everything back to t=0.
    outcome = simulate_checkpoint_restart(10.0, [10.0], [3.2], model)
    assert outcome.crashes[0]["restored_to"] == 0.0
    assert outcome.total_rework == pytest.approx(3.0)


def test_checkpoint_model_tiny_interval_terminates():
    model = CheckpointModel(interval=1e-7, cost=1e-7)
    outcome = simulate_checkpoint_restart(1.0, [1.0], [0.5], model)
    assert math.isfinite(outcome.makespan)
    assert outcome.makespan > 1.0


def test_checkpoint_makespan_monotone_in_crash_count():
    model = CheckpointModel(interval=2.0, cost=0.1, restart=0.5)
    crashes = [3.0, 7.0, 11.0]
    spans = [simulate_checkpoint_restart(20.0, [20.0], crashes[:k],
                                         model).makespan
             for k in range(len(crashes) + 1)]
    assert spans == sorted(spans)
    assert spans[0] < spans[-1]


# ---------------------------------------------------------------------------
# 32-rank acceptance: both modes terminate
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def lu32(tmp_path_factory):
    from repro.core.synth import write_synthetic_lu_trace
    directory = str(tmp_path_factory.mktemp("lu32"))
    write_synthetic_lu_trace(directory, 32, 2, cls="A")
    return directory


def test_lu32_host_crash_both_modes_terminate(lu32):
    n = 32
    fault_free = make_replayer(shared_platform(n), n).replay(lu32)
    t_crash = 0.5 * fault_free.simulated_time

    abort = make_replayer(
        shared_platform(n), n,
        fault_plan=FaultPlan(events=(HostCrash("c-3", t_crash),)),
    ).replay(lu32)
    assert abort.fault_report.failed_ranks == [3]
    assert abort.simulated_time <= fault_free.simulated_time

    plan = FaultPlan(events=(HostCrash("c-3", t_crash),),
                     checkpoint=CheckpointModel(
                         interval=max(t_crash / 4, 1e-6),
                         cost=t_crash / 100, restart=t_crash / 50))
    cr = make_replayer(shared_platform(n), n, fault_plan=plan,
                       fault_mode="checkpoint-restart").replay(lu32)
    report = cr.fault_report
    assert report.mode == "checkpoint-restart"
    assert report.checkpoint["n_restarts"] == 1
    # Rework + checkpointing + restart downtime: strictly slower than
    # the fault-free run.
    assert cr.simulated_time > fault_free.simulated_time
    assert cr.simulated_time == pytest.approx(report.makespan)


def test_reports_byte_identical_when_faults_hit_absorbed_rows(monkeypatch):
    """Faults against array-backed groups that never demote (vector
    threshold 2, so a demotion cut of 0; host links only: a flow a->b
    crosses a.up and b.down).

    * 0->1 and 2->1 share c-1.down: an array-backed group from t=0;
      4->5 runs alone, scalar.  At ~20 ms 2->5 bridges the two and the
      array side absorbs 4->5.  The c-4.up outage at 40 ms then fails a
      row that entered the arrays by absorption.
    * c-8.down is degraded at 10 ms, before any flow used it (no column
      yet: it is born degraded when 0->8 arrives); c-7.down at 80 ms,
      under 0->7, on the column that flow created long after the
      attach.

    Every solver configuration reports the same bytes."""
    from repro.core.actions import Isend, Recv

    monkeypatch.setattr("repro.simkernel.engine._PATCH_MIN_LEVELS", 0)
    n = 9
    trace = InMemoryTrace()
    for action in (
        Send(0, 1, 4e6), Send(0, 7, 4e6), Send(0, 8, 2e6),
        Irecv(1, 0, 4e6), Irecv(1, 2, 4e6), Wait(1), Wait(1),
        Isend(2, 1, 4e6), Compute(2, 2e7), Send(2, 5, 4e6),
        Send(4, 5, 2e7),
        Irecv(5, 4, 2e7), Irecv(5, 2, 4e6), Wait(5), Wait(5),
        Recv(7, 0, 4e6), Recv(8, 0, 2e6),
        Compute(3, 1e6), Compute(6, 1e6),
    ):
        trace.emit(action)
    plan = FaultPlan(events=(
        LinkDegrade("c-8.down", 0.010, factor=0.5),
        LinkDown("c-4.up", 0.040),
        LinkDegrade("c-7.down", 0.080, factor=0.25),
    ))

    def replay(**kw):
        platform = Platform("t")
        platform.add_cluster("c", n, speed=1e9, link_bw=1.25e8,
                             link_lat=1e-5, backbone_bw=1.25e9,
                             backbone_lat=1e-5, backbone_sharing="fatpipe")
        return make_replayer(platform, n, fault_plan=plan, **kw).replay(
            trace)

    probe = replay(collect_metrics=True, vector_threshold=2)
    assert probe.metrics["engine"]["group_merges"] == 1
    assert probe.metrics["engine"]["vector_attaches"] == 1
    assert probe.metrics["faults"]["requests_failed"] > 0
    assert probe.fault_report.failed_ranks == [4, 5]   # both ends of 4->5
    # 0->7 (from ~64 ms) crawls at a quarter speed from 80 ms on, then
    # 0->8 at half speed: ~176 ms instead of ~112.
    assert probe.simulated_time == pytest.approx(0.176, rel=0.01)
    baseline = probe.fault_report.to_json()
    for mode, solver in dict(SOLVERS, auto={"vector_threshold": 2}).items():
        for incremental in (True, False):
            result = replay(lmm_incremental=incremental, **solver)
            assert result.fault_report.to_json() == baseline, (
                mode, incremental)


def test_reports_byte_identical_when_faults_hit_a_demoted_group():
    """Ranks 1-12 send 1..12 MB to rank 0 at once: twelve flows share
    c-0.down, and at vector threshold 12 their group attaches at once.
    They drain in size order; at ~600 ms two are left, under the
    demotion cut of 3, and the group goes back to scalar state.  Right
    after, c-0.down is degraded (set_capacity on the demoted group) and
    c-12.up goes down (fail_activity on one of its two flows).  Every
    solver configuration reports the same bytes."""
    n = 14
    trace = InMemoryTrace()
    for rank in range(1, 13):
        trace.emit(Irecv(0, rank, 1e6 * rank))
    for rank in range(1, 13):
        trace.emit(Wait(0))
        trace.emit(Send(rank, 0, 1e6 * rank))
    plan = FaultPlan(events=(
        LinkDegrade("c-0.down", 0.605, factor=0.5),
        LinkDown("c-12.up", 0.607),
    ))

    def replay(**kw):
        platform = Platform("t")
        platform.add_cluster("c", n, speed=1e9, link_bw=1.25e8,
                             link_lat=1e-5, backbone_bw=1.25e9,
                             backbone_lat=1e-5, backbone_sharing="fatpipe")
        return make_replayer(platform, n, fault_plan=plan, **kw).replay(
            trace)

    probe = replay(collect_metrics=True, vector_threshold=12)
    engine = probe.metrics["engine"]
    assert engine["vector_attaches"] == 1
    assert engine["vector_demotions"] == 1
    assert probe.metrics["faults"]["requests_failed"] > 0
    assert probe.fault_report.failed_ranks == [0, 12]
    baseline = probe.fault_report.to_json()
    for mode, solver in dict(SOLVERS, auto={"vector_threshold": 12}).items():
        for incremental in (True, False):
            result = replay(lmm_incremental=incremental, **solver)
            assert result.fault_report.to_json() == baseline, (
                mode, incremental)


# ---------------------------------------------------------------------------
# Chaos harness
# ---------------------------------------------------------------------------

def test_random_fault_plan_is_deterministic_per_seed():
    platform = shared_platform(4)
    a = random_fault_plan(platform, seed=11, horizon=10.0, n_events=5)
    b = random_fault_plan(platform, seed=11, horizon=10.0, n_events=5)
    assert a == b
    a.validate(platform)  # only real resource names are drawn
    c = random_fault_plan(platform, seed=12, horizon=10.0, n_events=5)
    assert a != c


def test_chaos_replay_never_hangs_and_raises_only_typed_errors():
    """Seeded sweep of random plans over a real replay: every case must
    terminate with a result (and a report), never hang, never leak an
    untyped error."""
    n = 4
    trace = ring_trace(n, 4)
    horizon = make_replayer(shared_platform(n), n).replay(
        trace).simulated_time
    for seed in range(8):
        platform = shared_platform(n)
        plan = random_fault_plan(platform, seed=seed, horizon=horizon,
                                 n_events=4)
        replayer = make_replayer(platform, n, fault_plan=plan)
        try:
            result = replayer.replay(trace)
        except ValueError:
            continue  # typed rejection is acceptable; hangs/crashes are not
        report = result.fault_report
        assert report is not None
        assert len(report.events_applied) <= 2 * len(plan.events)
        for failure in report.failures:
            assert 0 <= failure.rank < n


def test_corrupt_trace_dir_is_seeded_and_described(tmp_path):
    from repro.faults.chaos import corrupt_trace_dir
    src = tmp_path / "src"
    src.mkdir()
    (src / "SG_process0.trace").write_text("p0 compute 10\n")
    (src / "SG_process1.trace").write_text("p1 compute 10\n")
    first = corrupt_trace_dir(str(src), str(tmp_path / "a"), seed=3)
    second = corrupt_trace_dir(str(src), str(tmp_path / "b"), seed=3)
    assert first == second  # deterministic per seed
    assert len(first) == 1 and ":" in first[0]


# ---------------------------------------------------------------------------
# Campaign integration
# ---------------------------------------------------------------------------

def test_campaign_fault_scenario_and_cache_key(tmp_path):
    from repro.campaign import FaultSpec, Scenario, execute_scenario
    from repro.campaign.cache import scenario_cache_key

    plan = {"events": [{
        "kind": "host_crash",
        "host": "bordereau-0.bordeaux.grid5000.fr", "t": 1e9,
    }]}
    scenario = Scenario.from_dict({
        "name": "faulty", "ranks": 4,
        "trace": {"kind": "synth", "cls": "S", "iterations": 2},
        "platform": {"kind": "named", "name": "bordereau", "hosts": 4},
        "faults": {"mode": "abort", "plan_json": plan},
    })
    scenario = Scenario.from_dict(scenario.to_dict())  # round-trips
    assert scenario.faults.mode == "abort"
    clean = Scenario.from_dict(
        {**scenario.to_dict(), "faults": None})
    assert scenario_cache_key(scenario) != scenario_cache_key(clean)

    payload = execute_scenario(scenario.to_dict())
    # Crash scheduled far past the makespan: applied-but-harmless run
    # still carries a (clean) fault report in the payload.
    assert payload["fault_report"] is not None
    assert payload["fault_report"]["failures"] == []
    clean_payload = execute_scenario(clean.to_dict())
    assert clean_payload["fault_report"] is None
    assert payload["simulated_time"] == pytest.approx(
        clean_payload["simulated_time"])


def test_fault_spec_rejects_bad_input():
    from repro.campaign import FaultSpec
    with pytest.raises(ValueError, match="unknown fault mode"):
        FaultSpec(mode="hope", plan_json="{}")
    with pytest.raises(ValueError, match="exactly one"):
        FaultSpec()
    with pytest.raises(ValueError, match="exactly one"):
        FaultSpec(plan_path="a.json", plan_json="{}")
    with pytest.raises(ValueError):
        FaultSpec(plan_json='{"events": [{"kind": "nope"}]}')
