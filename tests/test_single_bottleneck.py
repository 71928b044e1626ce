"""Single-bottleneck sharing groups on one virtual clock.

An array-backed group whose rows all cross one column that holds the
smallest share (and whose bounds all lie above it) skips the filling and
keeps one clock for all its rows (``Engine._solve_group``).  Each case
below leaves that form in a different way, or changes the clock's rate
under it, and must give the scalar reference engine's completion times
to 1e-12.
"""

import pytest

from repro.core.actions import Compute, Irecv, Send, Wait
from repro.core.trace import InMemoryTrace
from repro.faults import FaultPlan, HostCrash, LinkDegrade, LinkDown
from repro.simkernel import Constraint, Engine, EngineMetrics, Platform

from .lattice import make_replayer
from .test_incremental import _scripted_run

RTOL = 1e-12
#: Link 0 is the backbone every flow crosses; the rest are private.
CAPS = [1e8] + [1e9] * 6


def _assert_same_ends(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if isinstance(w, str) or isinstance(g, str):
            assert g == w
        else:
            assert g == pytest.approx(w, rel=RTOL, abs=0.0)


def _against_reference(script, caps=CAPS, faults=(), **kw):
    """Run ``script`` with every group of two or more array-backed and
    with the reference engine; returns the array-backed run's metrics
    once their completion times agree."""
    oracle, _, _ = _scripted_run(script, len(caps), caps=list(caps),
                                 lmm_mode="reference", faults=faults)
    assert None not in oracle
    metrics = EngineMetrics()
    got, _, _ = _scripted_run(script, len(caps), caps=list(caps),
                              metrics=metrics, faults=faults, **kw)
    _assert_same_ends(got, oracle)
    doc = metrics.as_dict()
    assert doc["single_bottleneck_rerates"] > 0
    return doc


def test_scalar_group_merged_into_a_clock_group():
    """Flows 0-2 run on the backbone's clock; flow 3 runs alone (scalar)
    on links 4+5, its progress kept as of its own start.  The bridge at
    0.3 merges it in: the clock group first goes back to the general
    form, so flow 3 keeps the 3e7 B it already moved."""
    caps = [1e8, 1e9, 1e9, 1e9, 1e8, 1e8]
    script = [(0.0, (0, 1), 4e7, None), (0.0, (0, 2), 6e7, None),
              (0.0, (0, 3), 8e7, None), (0.0, (4, 5), 5e7, None),
              (0.3, (0, 4), 3e7, None)]
    doc = _against_reference(script, caps=caps)
    assert doc["group_merges"] == 1


def test_late_joiner_is_tagged_at_the_clock_advanced_to_now():
    script = [(0.0, (0, 1), 4e7, None), (0.0, (0, 2), 6e7, None),
              (0.25, (0, 3), 3e7, None), (0.5, (0, 4), 1e7, None),
              (0.5, (0, 5), 1e7, None)]
    _against_reference(script)


@pytest.mark.parametrize("script, faults", [
    # A flow bounded below the backbone's share joins at 0.3.
    ([(0.0, (0, 1), 4e7, None), (0.0, (0, 2), 6e7, None),
      (0.0, (0, 3), 8e7, None), (0.3, (0, 4), 2e7, 1e7)], []),
    # A private link drops below the backbone's share at 0.3.
    ([(0.0, (0, 1), 4e7, None), (0.0, (0, 2), 6e7, None),
      (0.0, (0, 3), 8e7, None)], [(0.3, "cap", 2, 1e7)]),
], ids=["bounded-joiner", "private-link-degraded"])
def test_a_failed_test_hands_clock_progress_back(script, faults):
    """The re-rate that finds no single bottleneck any more puts the
    rows back in per-row form, each with the progress the clock served
    it, before the filling runs."""
    doc = _against_reference(script, faults=faults)
    assert doc["vectorized_recomputes"] > doc["single_bottleneck_rerates"]


def test_bottleneck_capacity_to_zero_and_back():
    """The backbone stalls at 0.2 (every row's share is 0, nothing is
    armed) and comes back at 0.5 at half its capacity, then whole."""
    script = [(0.0, (0, 1), 4e7, None), (0.0, (0, 2), 6e7, None),
              (0.1, (0, 3), 3e7, None)]
    faults = [(0.2, "cap", 0, 0.0), (0.5, "cap", 0, 5e7),
              (0.6, "cap", 0, 1e8)]
    _against_reference(script, faults=faults)


def test_failed_clock_rows_leave_the_rest_on_time():
    """fail_activity on the earliest-tagged row (the armed one) and on
    another, between events."""
    script = [(0.0, (0, 1), 2e7, None), (0.0, (0, 2), 6e7, None),
              (0.0, (0, 3), 8e7, None), (0.0, (0, 4), 9e7, None)]
    faults = [(0.25, "fail", 0), (0.35, "fail", 2)]
    _against_reference(script, faults=faults)


def test_demotion_below_the_cut_hands_back_clock_progress():
    """Threshold 8 puts the cut at 2: eight flows attach on the clock,
    and the re-rate that finds one left demotes the group — its row
    must carry the progress the clock served it since its last
    settle."""
    script = [(0.0, (0, 1 + k % 6), 1e7 * (k + 1), None) for k in range(8)]
    doc = _against_reference(script, vector_threshold=8)
    assert doc["vector_demotions"] == 1


def test_equal_flows_started_together_finish_in_join_order():
    """A short flow joins first and leaves, so swap-removal moves the
    last row into slot 0; the six equal flows then share one finish tag
    and must finish (and wake their processes) in join order."""
    def run(**kw):
        engine = Engine(**kw)
        links = [Constraint(c, f"l{i}") for i, c in enumerate(CAPS)]
        order, ends = [], []

        def flow(k, size):
            yield engine.comm_activity([links[0], links[1 + k % 6]],
                                       size=size, latency=0.0)
            order.append(k)
            ends.append(engine.now)

        engine.add_process("short", flow(0, 1e6))
        for k in range(1, 7):
            engine.add_process(f"f{k}", flow(k, 3e7))
        engine.run()
        return order, ends

    order, ends = run(vector_threshold=2)
    want_order, want_ends = run(lmm_mode="reference")
    assert want_order == list(range(7))
    assert order == want_order
    _assert_same_ends(ends, want_ends)


# ---------------------------------------------------------------------------
# Replays on a congested cluster (the backbone is every flow's bottleneck)
# ---------------------------------------------------------------------------
RANKS = 8


def _congested(n_hosts):
    platform = Platform("t")
    platform.add_cluster("c", n_hosts, speed=1e9, link_bw=1.25e9,
                         link_lat=1e-6, backbone_bw=1.25e9,
                         backbone_lat=1e-6)
    return platform


def shifted_exchange(n_ranks):
    """Each rank posts a receive from every peer, then sends to its
    peers in shifted order (blocking, rendezvous, 1-2 units of 1e8 B):
    at every step each rank has one flow on the backbone, so the
    backbone group runs on its clock for most of the replay, re-rated
    whenever one of its flows ends."""
    def size(src, dst):
        return 1e8 * (1.0 + ((3 * src + dst) % 5) / 4)

    trace = InMemoryTrace()
    for rank in range(n_ranks):
        peers = [(rank + k) % n_ranks for k in range(1, n_ranks)]
        for peer in peers:
            trace.emit(Irecv(rank, peer, size(peer, rank)))
        trace.emit(Compute(rank, 1e6))
        for peer in peers:
            trace.emit(Send(rank, peer, size(rank, peer)))
        for _ in peers:
            trace.emit(Wait(rank))
    return trace


def _fault_replays(plan, metric, probe=None):
    """Replay the exchange under ``plan(t)`` (``t``: the fault-free
    makespan) with every group of two or more array-backed and with the
    reference engine; once their times agree, return both fault
    reports.  ``metric`` must have been counted.  ``probe`` is
    ``(fraction, fn)``: ``fn(replayer)`` runs at ``fraction * t`` in both
    replays."""
    t = make_replayer(_congested(RANKS), RANKS).replay(
        shifted_exchange(RANKS)).simulated_time
    runs = []
    for kw in ({"vector_threshold": 2}, {"lmm_mode": "reference"}):
        replayer = make_replayer(_congested(RANKS), RANKS,
                                 fault_plan=plan(t), collect_metrics=True,
                                 **kw)
        if probe is not None:
            fraction, fn = probe

            def prober(engine=replayer.engine, replayer=replayer):
                yield engine.timer(fraction * t)
                fn(replayer)

            replayer.engine.add_process("probe", prober(), daemon=True)
        runs.append(replayer.replay(shifted_exchange(RANKS)))
    got, want = runs
    assert got.simulated_time == pytest.approx(want.simulated_time,
                                               rel=RTOL, abs=0.0)
    _assert_same_ends(got.per_rank_time, want.per_rank_time)
    assert got.metrics["engine"]["single_bottleneck_rerates"] > 0
    assert got.metrics["faults"][metric] > 0
    assert got.fault_report.to_dict() == want.fault_report.to_dict()
    return got.fault_report


def test_link_degrade_of_the_backbone_and_back():
    _fault_replays(lambda t: FaultPlan(events=(
        LinkDegrade("c.bb", 0.3 * t, factor=0.01),
        LinkDegrade("c.bb", 0.5 * t, factor=1.0))), "link_degrades")


def test_host_crash_with_clock_rows_in_flight():
    """The crashed host's ranks die with their flows on the backbone's
    clock; the flows fail with them, the peers blocked on them are
    casualties."""
    report = _fault_replays(lambda t: FaultPlan(events=(
        HostCrash("c-3", 0.5 * t),)), "processes_killed")
    assert report.failed_ranks == [3] and report.casualties


def test_a_crashed_hosts_flows_leave_the_network():
    """Just after ``c-3`` crashes, no link carries a flow from or to
    rank 3 (the only rank on it): the survivors stop sharing the
    backbone with dead transfers."""
    seen = []

    def probe(replayer):
        endpoints = {
            int(end)
            for link in replayer.platform.iter_links()
            for act in link.constraint.users
            for end in act.name.split("/")[0].split("->")}
        seen.append(endpoints)
        assert 3 not in endpoints

    report = _fault_replays(lambda t: FaultPlan(events=(
        HostCrash("c-3", 0.5 * t),)), "activities_failed",
        probe=(0.5 + 1e-9, probe))
    assert report.failed_ranks == [3]
    # Both replays probed, with survivors' flows still on the links.
    assert len(seen) == 2 and all(seen)


def test_link_down_fails_clock_rows():
    """A host link going down fails the flows crossing it: rows taken
    out of the backbone group between two of its events."""
    report = _fault_replays(lambda t: FaultPlan(events=(
        LinkDown("c-3.up", 0.5 * t),)), "requests_failed")
    assert 3 in report.failed_ranks


def test_single_bottleneck_rerates_are_reported():
    from repro.analysis import format_metrics_report

    result = make_replayer(_congested(RANKS), RANKS, collect_metrics=True,
                           vector_threshold=2).replay(
        shifted_exchange(RANKS))
    engine = result.metrics["engine"]
    n = engine["single_bottleneck_rerates"]
    assert 0 < n <= engine["vectorized_recomputes"]
    assert (f"{n} of them single-bottleneck"
            in format_metrics_report(result.metrics))
