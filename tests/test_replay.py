"""Unit/integration tests for the trace replay tool."""

import os

import pytest

from repro.core.actions import (
    AllReduce, Barrier, Bcast, CommSize, Compute, Irecv, Isend, Recv,
    Send, Wait, format_action,
)
from repro.core.replay import TraceReplayer
from repro.core.trace import InMemoryTrace
from repro.simkernel import DeadlockError, Platform
from repro.simkernel.pwl import IDENTITY_MODEL
from repro.smpi import round_robin_deployment


def make_replayer(n_ranks, speed=1e9, **kw):
    platform = Platform("t")
    platform.add_cluster("c", n_ranks, speed=speed, link_bw=1.25e8,
                         link_lat=1e-5, backbone_bw=1.25e9, backbone_lat=1e-5)
    kw.setdefault("comm_model", IDENTITY_MODEL)
    return TraceReplayer(platform, round_robin_deployment(platform, n_ranks),
                         **kw)


def trace_of(actions):
    trace = InMemoryTrace()
    for action in actions:
        trace.emit(action)
    return trace


def fig1_trace():
    """The exact time-independent trace of the paper's Fig. 1 (one loop
    turn): a 4-process ring, 1 Mflop and 1 MB per process."""
    return trace_of([
        Compute(0, 1e6), Send(0, 1, 1e6), Recv(0, 3, 1e6),
        Recv(1, 0, 1e6), Compute(1, 1e6), Send(1, 2, 1e6),
        Recv(2, 1, 1e6), Compute(2, 1e6), Send(2, 3, 1e6),
        Recv(3, 2, 1e6), Compute(3, 1e6), Send(3, 0, 1e6),
    ])


def test_fig1_ring_replay_time():
    replayer = make_replayer(4)
    result = replayer.replay(fig1_trace())
    # Critical path: 4 x (1 Mflop at 1 Gflop/s + 1 MB over 125 MB/s route).
    compute = 1e6 / 1e9
    transfer = 3e-5 + 1e6 / 1.25e8
    assert result.simulated_time == pytest.approx(4 * (compute + transfer),
                                                  rel=0.01)
    assert result.n_actions == 12
    assert result.n_ranks == 4


def test_replay_compute_scales_with_platform_speed():
    trace = trace_of([Compute(0, 2e9)])
    slow = make_replayer(1, speed=1e9).replay(trace)
    fast = make_replayer(1, speed=4e9).replay(trace)
    assert slow.simulated_time == pytest.approx(2.0)
    assert fast.simulated_time == pytest.approx(0.5)


def test_replay_isend_is_detached():
    """An Isend never blocks the sender, even with no wait."""
    trace = trace_of([
        Isend(0, 1, 1e6), Compute(0, 1e9),
        Recv(1, 0, 1e6),
    ])
    result = make_replayer(2).replay(trace)
    # Rank 0's critical path is its compute (1s), overlapped with the send.
    assert result.per_rank_time[0] == pytest.approx(1.0, rel=0.01)


def test_replay_irecv_wait_overlap():
    trace = trace_of([
        Irecv(0, 1, 8e6), Compute(0, 1e9), Wait(0),
        Compute(1, 1e9), Send(1, 0, 8e6),
    ])
    result = make_replayer(2).replay(trace)
    # Receive overlaps rank 0's compute; total ~ max(compute, compute+xfer).
    expected = 1.0 + 8e6 / 1.25e8
    assert result.simulated_time == pytest.approx(expected, rel=0.05)


def test_replay_wait_without_irecv_rejected():
    trace = trace_of([Wait(0)])
    with pytest.raises(ValueError):
        make_replayer(1).replay(trace)


def test_replay_collective_requires_comm_size():
    trace = trace_of([Bcast(0, 100), Bcast(1, 100)])
    with pytest.raises(ValueError) as err:
        make_replayer(2).replay(trace)
    assert "comm_size" in str(err.value)


def collective_trace(n, body):
    actions = []
    for rank in range(n):
        actions.append(CommSize(rank, n))
        actions.extend(body(rank))
    return trace_of(actions)


def test_replay_bcast_binomial():
    trace = collective_trace(8, lambda r: [Bcast(r, 1e6)])
    result = make_replayer(8).replay(trace)
    transfer = 3e-5 + 1e6 / 1.25e8
    # Binomial tree: 3 rounds for 8 ranks; the root's link serialises some
    # sends, so allow the range [3, 7] transfers on the critical path.
    assert result.simulated_time >= 3 * transfer * 0.9
    assert result.simulated_time <= 7 * transfer * 1.1


def test_replay_reduce_and_allreduce():
    trace = collective_trace(4, lambda r: [AllReduce(r, 1000, 500)])
    result = make_replayer(4).replay(trace)
    assert result.simulated_time > 0
    trace = collective_trace(4, lambda r: [
        Compute(r, 1e6), AllReduce(r, 1000, 0), Compute(r, 1e6),
    ])
    result2 = make_replayer(4).replay(trace)
    assert result2.simulated_time > result.simulated_time


def test_replay_barrier_synchronises():
    trace = collective_trace(
        4, lambda r: ([Compute(r, 1e9)] if r == 0 else []) + [Barrier(r)]
    )
    result = make_replayer(4).replay(trace)
    assert result.simulated_time >= 1.0
    for t in result.per_rank_time:
        assert t >= 1.0


def test_replay_flat_vs_binomial_collectives():
    """The flat tree costs more rounds at the root for large rank counts —
    this is the ablation of the §2 'monolithic collective' simplification."""
    def body(r):
        return [Bcast(r, 1e6)]

    binom = make_replayer(16).replay(collective_trace(16, body))
    flat = make_replayer(16, collective_algorithm="flat").replay(
        collective_trace(16, body)
    )
    # Root pushes 15 copies through its own uplink in the flat tree.
    assert flat.simulated_time > binom.simulated_time


def write_ranks(directory, lines_of):
    """A trace directory from ``{rank: [action text without the id]}``."""
    directory.mkdir()
    for rank, lines in lines_of.items():
        (directory / f"SG_process{rank}.trace").write_text(
            "".join(f"p{rank} {line}\n" for line in lines))
    return str(directory)


FEEDS = ["auto", "never"]


@pytest.mark.parametrize("compiled", FEEDS)
@pytest.mark.parametrize("algorithm", ["binomial", "flat"])
def test_trace_receive_never_takes_a_collectives_message(tmp_path, algorithm,
                                                         compiled):
    """A trace Irecv posts ANY_TAG; pending across a bcast, it must leave
    the bcast's message to the bcast (MPI runs collectives in a context
    of their own).  It used to take it and deadlock at t=3.8e-05."""
    def replay(name, p1, p0_gap):
        return make_replayer(
            2, collective_algorithm=algorithm, compiled=compiled,
        ).replay(write_ranks(tmp_path / name, {
            0: ["comm_size 2", "bcast 1000"] + p0_gap + ["send p1 5e6"],
            1: ["comm_size 2"] + p1,
        })).simulated_time

    early = ["Irecv p0 5e6", "bcast 1000", "wait"]
    late = ["bcast 1000", "Irecv p0 5e6", "wait"]
    # Pre-posted, the rendezvous starts as p0 sends, 3e-5 s (the bcast's
    # latency) before the reordered trace's receive is posted.
    assert replay("early", early, []) == pytest.approx(0.040038, rel=1e-12)
    assert replay("late", late, []) == pytest.approx(0.040068, rel=1e-12)
    # Once p0 sends late enough, where the receive is posted is moot.
    gap = ["compute 1e7"]
    assert replay("early-gap", early, gap) == replay("late-gap", late, gap)


@pytest.mark.parametrize("action", ["reduce 1000 1e7", "allReduce 1000 1e7"])
def test_two_rank_trees_charge_the_operator_alike(tmp_path, action):
    """At two ranks the flat and binomial trees are the same messages, and
    both charge the operator as ``reduce_op`` — on a ground-truth platform,
    whose efficiency model tells ``reduce_op`` from ``compute``."""
    from repro.platforms import bordereau

    directory = write_ranks(tmp_path / "ti", {
        rank: ["comm_size 2", action] for rank in range(2)})
    times = []
    for algorithm in ("binomial", "flat"):
        platform = bordereau(2, ground_truth=True)
        times.append(TraceReplayer(
            platform, round_robin_deployment(platform, 2),
            collective_algorithm=algorithm,
        ).replay(directory).simulated_time)
    assert times[0] == times[1]


@pytest.mark.parametrize("compiled", FEEDS)
def test_alltoallv_split_count_must_match_comm_size(tmp_path, compiled):
    directory = write_ranks(tmp_path / "ti", {
        0: ["comm_size 2", "allToAllv 100 50 50 0"],
        1: ["comm_size 2", "allToAllv 100 50 50"],
    })
    with pytest.raises(ValueError, match=r"^p0: allToAllv carries 3 split "
                       r"sizes for a 2-process communicator$"):
        make_replayer(2, compiled=compiled).replay(directory)


def test_replay_from_directory_and_merged_file(tmp_path):
    trace = fig1_trace()
    # Directory layout.
    tdir = tmp_path / "traces"
    tdir.mkdir()
    for rank in trace.ranks():
        with open(tdir / f"SG_process{rank}.trace", "w") as handle:
            for line in trace.lines_of(rank):
                handle.write(line + "\n")
    from_dir = make_replayer(4).replay(str(tdir))
    # Merged layout.
    merged = tmp_path / "merged.trace"
    with open(merged, "w") as handle:
        for rank in trace.ranks():
            for line in trace.lines_of(rank):
                handle.write(line + "\n")
    from_file = make_replayer(4).replay(str(merged))
    in_memory = make_replayer(4).replay(trace)
    assert from_dir.simulated_time == pytest.approx(in_memory.simulated_time)
    assert from_file.simulated_time == pytest.approx(in_memory.simulated_time)


def test_replay_unknown_action_from_file(tmp_path):
    path = tmp_path / "SG_process0.trace"
    path.write_text("p0 warp 99\n")
    with pytest.raises(ValueError) as err:
        make_replayer(1).replay(str(tmp_path))
    assert "warp" in str(err.value)


def test_replay_deadlocked_trace_detected():
    trace = trace_of([Recv(0, 1, 100), Recv(1, 0, 100)])
    with pytest.raises(DeadlockError):
        make_replayer(2).replay(trace)


def test_replay_timed_trace_output():
    replayer = make_replayer(4, record_timed_trace=True)
    result = replayer.replay(fig1_trace())
    assert len(result.timed_trace) == 12
    for rank, name, start, end in result.timed_trace:
        assert 0 <= start <= end <= result.simulated_time
    p0 = [entry for entry in result.timed_trace if entry[0] == 0]
    assert [entry[1] for entry in p0] == ["compute", "send", "recv"]


def test_replay_too_many_trace_ranks_rejected():
    trace = fig1_trace()
    with pytest.raises(ValueError):
        make_replayer(2).replay(trace)


def test_replay_timed_trace_does_not_accumulate_across_replays():
    """Regression: a second replay() on the same instance used to return
    the first run's tuples prepended to its own."""
    replayer = make_replayer(4, record_timed_trace=True)
    first = replayer.replay(fig1_trace())
    assert len(first.timed_trace) == 12
    second = replayer.replay(fig1_trace())
    assert len(second.timed_trace) == 12
    # And the first result's list is not mutated by the second run.
    assert len(first.timed_trace) == 12


def test_replay_gzipped_merged_trace(tmp_path):
    """Regression: a merged trace.gz hit plain open() and failed, even
    though gzipped per-rank traces were accepted."""
    import gzip

    trace = fig1_trace()
    merged = tmp_path / "merged.trace.gz"
    with gzip.open(merged, "wt", encoding="ascii") as handle:
        for rank in trace.ranks():
            for line in trace.lines_of(rank):
                handle.write(line + "\n")
    from_gz = make_replayer(4).replay(str(merged))
    in_memory = make_replayer(4).replay(trace)
    assert from_gz.simulated_time == pytest.approx(in_memory.simulated_time)
    assert from_gz.n_actions == 12


# ---------------------------------------------------------------------------
# A platform outlives the engines that run on it
# ---------------------------------------------------------------------------

def _chain_trace(n_ranks):
    """1-D open-chain ghost-cell exchange (the LU action mix): rendezvous
    faces pipeline down the chain, so link groups keep merging."""
    face = 1e5
    actions = []
    for rank in range(n_ranks):
        peers = [p for p in (rank - 1, rank + 1) if 0 <= p < n_ranks]
        actions.append(CommSize(rank, n_ranks))
        actions += [Irecv(rank, p, face) for p in peers]
        for p in peers:
            actions += [Compute(rank, 1e4 * (1 + rank % 3)),
                        Send(rank, p, face)]
        actions += [Wait(rank) for _ in peers]
        actions += [Compute(rank, 1e6), AllReduce(rank, 40, 10)]
    return trace_of(actions)


def _fatpipe_platform(n_hosts):
    platform = Platform("t")
    platform.add_cluster("c", n_hosts, speed=1e9, link_bw=1.25e9,
                         link_lat=1e-6, backbone_bw=1.25e10,
                         backbone_lat=1e-6, backbone_sharing="fatpipe")
    return platform


def test_replay_is_a_pure_function_of_its_inputs_on_a_reused_platform():
    """Sharing groups are engine state parked on the platform's
    constraints; a second replayer on the same platform must not
    inherit the first one's merged, array-backed groups (it used to,
    and came out different in the last bit)."""
    n = 96
    trace = _chain_trace(n)

    def replay_on(platform, vector_threshold=4, **kw):
        replayer = TraceReplayer(platform,
                                 round_robin_deployment(platform, n),
                                 collect_metrics=True, **kw)
        if vector_threshold is not None:   # 4: array-backed at 96 ranks
            replayer.engine.vector_threshold = vector_threshold
        return replayer.replay(trace)

    platform = _fatpipe_platform(n)
    first = replay_on(platform)
    assert first.metrics["engine"]["vector_attaches"] > 0
    second = replay_on(platform)
    assert second.simulated_time == first.simulated_time
    assert second.per_rank_time == first.per_rank_time
    # Same work, too: no inherited (pre-merged) groups to re-rate.
    assert second.metrics["engine"] == first.metrics["engine"]
    assert first.metrics["engine"]["group_merges"] > 0
    assert replay_on(_fatpipe_platform(n)).per_rank_time \
        == first.per_rank_time
    # ... and a reference-mode engine after an auto one sees no arrays.
    oracle = replay_on(platform, vector_threshold=None,
                       lmm_mode="reference")
    assert oracle.simulated_time == pytest.approx(first.simulated_time,
                                                  rel=1e-9)
    assert oracle.per_rank_time == pytest.approx(first.per_rank_time,
                                                 rel=1e-9)
    assert not any(link.constraint.group is not None
                   and link.constraint.group.vectorized
                   for link in platform.iter_links())


def test_chain_merges_never_reattach_an_array_backed_group(monkeypatch):
    """256-rank chain: the pipeline wave merges about one link group per
    rank into the big array-backed one.  Each merge used to devectorize
    it and the next re-rate to rebuild it (55 attaches for 254 merges
    here, ~one per rank at 1024); now the group absorbs in place, and an
    array-backed group hands its state back only when absorbed by
    another or demoted once it shrank below the cut.  So every attach is
    accounted for by an array-backed group that still exists, one that
    was absorbed, or a demotion — and attaches stay a handful."""
    from repro.simkernel.engine import Engine

    absorbed = []
    merge = Engine._merge_groups

    def counting_merge(self, a, b):
        if a.vectorized and b.vectorized:
            absorbed.append(b)
        return merge(self, a, b)

    monkeypatch.setattr(Engine, "_merge_groups", counting_merge)
    n = 256
    platform = _fatpipe_platform(n)
    result = TraceReplayer(platform, round_robin_deployment(platform, n),
                           collect_metrics=True).replay(_chain_trace(n))
    engine = result.metrics["engine"]
    groups = {id(link.constraint.group): link.constraint.group
              for link in platform.iter_links()
              if link.constraint.group is not None}
    alive = sum(g.vectorized for g in groups.values())
    demotions = engine["vector_demotions"]
    assert demotions >= 1
    assert engine["group_merges"] >= n // 2
    assert engine["vector_attaches"] == alive + len(absorbed) + demotions
    assert engine["vector_attaches"] <= 4      # not one per merge
    from repro.analysis import format_metrics_report
    assert (f"{engine['group_merges']:,} merges, "
            f"{engine['vector_attaches']:,} array-backed attaches, "
            f"{demotions:,} demotions"
            ) in format_metrics_report(result.metrics)


def test_lu2d_twin_solves_each_group_once_per_instant(tmp_path):
    """The 64-rank twin of the benchmark's lu2d-fatpipe-1024 workload
    (LU class B, one iteration, 1 % jitter at seed 1, on its fatpipe
    cluster).  Same-instant batching and the drained rule re-rate each
    touched sharing group once per simulated instant: 507 recomputes
    before them, 201 after.  The makespan is the pre-batching one."""
    from repro.core.synth import write_synthetic_lu_trace

    n = 64
    write_synthetic_lu_trace(str(tmp_path), n, 1, cls="B", inorm=1,
                             compute_split=1, seed=1, jitter=0.01)
    platform = _fatpipe_platform(n)
    result = TraceReplayer(platform, round_robin_deployment(platform, n),
                           collect_metrics=True).replay(str(tmp_path))
    assert result.simulated_time == pytest.approx(0.03235358599319476,
                                                  rel=1e-9)
    assert result.metrics["engine"]["sharing_recomputes"] <= 250
    assert result.metrics["engine"]["same_instant_events"] > 0
