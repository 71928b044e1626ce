"""Integration tests for the simulated-MPI runtime and the collective
schedules it shares with the replayer."""

from collections import deque

import pytest

from repro.simkernel import ANY_SOURCE, Platform
from repro.simkernel.pwl import IDENTITY_MODEL
from repro.smpi import MpiRuntime, round_robin_deployment
from repro.smpi.collectives import (
    BARRIER_TOKEN_BYTES, ISEND, RECV, REDUCE, SEND, WAIT, bcast_plan,
    reduce_plan, schedule, subtree_size,
)


def make_runtime(n_ranks, ranks_per_host=1, speed=1e9, **kw):
    platform = Platform("t")
    n_hosts = (n_ranks + ranks_per_host - 1) // ranks_per_host
    platform.add_cluster(
        "c", n_hosts, speed=speed, link_bw=1.25e8, link_lat=1e-5,
        backbone_bw=1.25e9, backbone_lat=1e-5,
    )
    deployment = round_robin_deployment(platform, n_ranks,
                                        ranks_per_host=ranks_per_host)
    kw.setdefault("comm_model", IDENTITY_MODEL)
    return MpiRuntime(platform, deployment, **kw)


# ---------------------------------------------------------------------------
# Binomial tree plans
# ---------------------------------------------------------------------------

def test_bcast_plan_is_a_spanning_tree():
    for size in (1, 2, 3, 5, 8, 16, 17, 64):
        reached = {0}
        edges = []
        for rank in range(size):
            parent, children = bcast_plan(rank, size, root=0)
            if rank == 0:
                assert parent is None
            else:
                assert parent is not None
            edges.extend((rank, c) for c in children)
        for src, dst in edges:
            assert dst not in reached or True
            reached.add(dst)
        assert reached == set(range(size))
        assert len(edges) == size - 1  # tree property


def test_bcast_plan_parent_child_symmetry():
    size = 13
    for rank in range(size):
        parent, _ = bcast_plan(rank, size)
        if parent is not None:
            _, children = bcast_plan(parent, size)
            assert rank in children


def test_bcast_plan_nonzero_root():
    size, root = 8, 3
    for rank in range(size):
        parent, children = bcast_plan(rank, size, root=root)
        if rank == root:
            assert parent is None
        else:
            assert parent is not None


def test_reduce_plan_mirrors_bcast():
    size = 16
    for rank in range(size):
        parent, children = bcast_plan(rank, size)
        recv_from, send_to = reduce_plan(rank, size)
        assert send_to == parent
        assert sorted(recv_from) == sorted(children)


def test_plan_validation():
    with pytest.raises(ValueError):
        bcast_plan(0, 0)
    with pytest.raises(ValueError):
        bcast_plan(5, 4)
    with pytest.raises(ValueError):
        bcast_plan(0, 4, root=9)


def test_bcast_plan_any_root_spanning_tree():
    """The paper roots everything at 0 (§3); the general-root branches
    must still produce a spanning tree: every rank reached exactly once,
    parent/child links consistent both ways, for non-power-of-two sizes."""
    for size in (3, 5, 6, 7, 12, 13, 16):
        for root in (0, 1, 2, size - 1):
            parents = {}
            for rank in range(size):
                parent, children = bcast_plan(rank, size, root=root)
                assert (parent is None) == (rank == root)
                for child in children:
                    # Reached exactly once: no rank has two parents.
                    assert child not in parents
                    parents[child] = rank
                    got_parent, _ = bcast_plan(child, size, root=root)
                    assert got_parent == rank
                if parent is not None:
                    _, siblings = bcast_plan(parent, size, root=root)
                    assert rank in siblings
            assert set(parents) == set(range(size)) - {root}
            # Tree is connected: walking up from any rank ends at the root.
            for rank in range(size):
                hops, seen = rank, set()
                while hops != root:
                    assert hops not in seen
                    seen.add(hops)
                    hops = parents[hops]


def test_reduce_plan_mirrors_bcast_any_root():
    for size in (5, 6, 12, 13):
        for root in (0, 3, size - 1):
            for rank in range(size):
                parent, children = bcast_plan(rank, size, root=root)
                recv_from, send_to = reduce_plan(rank, size, root=root)
                assert send_to == parent
                # Exact mirror: receive in the reverse of sending order.
                assert recv_from == list(reversed(children))


# ---------------------------------------------------------------------------
# Collective schedules
# ---------------------------------------------------------------------------

COLLECTIVES = ["bcast", "reduce", "allReduce", "barrier", "allToAll",
               "allToAllv", "allGather", "reduceScatter"]
#: The collectives MpiProcess runs, at any root.
RUNTIME_COLLECTIVES = {"bcast", "reduce", "allReduce", "barrier"}


def play_schedules(rows_of):
    """Play every rank's rows with synchronous sends (a send completes
    only once received, the strictest protocol) and per-pair FIFO
    matching; ``ANY_SOURCE`` takes the oldest send from anyone.

    Returns ``{(src, dst): [nbytes, ...]}`` of the matched messages in
    order.  Fails if a rank is left blocked, a send is left unreceived,
    or a ``WAIT`` names another destination than its queued send.
    """
    size = len(rows_of)
    pc = [0] * size
    inbox = [[] for _ in range(size)]      # unmatched [src, nbytes, done]
    queued = [deque() for _ in range(size)]  # a rank's ISENDs, oldest first
    blocked_send = [None] * size
    got = {}
    progress = True
    while progress:
        progress = False
        for rank, rows in enumerate(rows_of):
            while pc[rank] < len(rows):
                kind, peer, nbytes, _ = rows[pc[rank]]
                if kind == ISEND:
                    entry = [rank, nbytes, False]
                    inbox[peer].append(entry)
                    queued[rank].append((peer, entry))
                elif kind == SEND:
                    if blocked_send[rank] is None:
                        blocked_send[rank] = [rank, nbytes, False]
                        inbox[peer].append(blocked_send[rank])
                        progress = True
                    if not blocked_send[rank][2]:
                        break
                    blocked_send[rank] = None
                elif kind == WAIT:
                    dst, entry = queued[rank][0]
                    assert dst == peer
                    if not entry[2]:
                        break
                    queued[rank].popleft()
                else:
                    assert kind in (RECV, REDUCE)
                    entry = next((e for e in inbox[rank]
                                  if peer in (ANY_SOURCE, e[0])), None)
                    if entry is None:
                        break
                    inbox[rank].remove(entry)
                    entry[2] = True
                    got.setdefault((entry[0], rank), []).append(entry[1])
                pc[rank] += 1
                progress = True
    assert pc == [len(rows) for rows in rows_of], "schedule deadlocks"
    assert not any(inbox), "a send is never received"
    return got


def expected_bytes(name, algorithm, size, vol, splits, root):
    """Closed form of the bytes one collective moves."""
    n = size - 1
    # Bytes-per-vol of a gather up (or scatter down) the tree: a binomial
    # child link carries its whole subtree.
    up = n if algorithm == "flat" else sum(
        subtree_size(r, size, root) for r in range(size) if r != root)
    return {
        "bcast": n * vol, "reduce": n * vol, "allReduce": 2 * n * vol,
        "barrier": 2 * n * BARRIER_TOKEN_BYTES,
        "allToAll": size * n * vol,
        "allToAllv": sum(splits[s][d] for s in range(size)
                         for d in range(size) if s != d),
        "allGather": up * vol + n * size * vol,
        "reduceScatter": n * vol + up * vol / size,
    }[name]


@pytest.mark.parametrize("algorithm", ["binomial", "flat"])
@pytest.mark.parametrize("name", COLLECTIVES)
def test_schedules_pair_every_send_with_a_receive(name, algorithm):
    vol, flops = 1000.0, 7.0
    for size in range(1, 18):
        splits = [[float((7 * s + 3 * d) % 5 * 10) for d in range(size)]
                  for s in range(size)]
        roots = range(size) if name in RUNTIME_COLLECTIVES else [0]
        for root in roots:
            rows_of = [schedule(name, rank, size, vol, flops, splits[rank],
                                algorithm, root) for rank in range(size)]
            got = play_schedules(rows_of)
            assert all(src != dst for src, dst in got)
            total = sum(sum(sizes) for sizes in got.values())
            assert total == pytest.approx(expected_bytes(
                name, algorithm, size, vol, splits, root), rel=1e-12)
            reduce_rows = [row for rows in rows_of for row in rows
                           if row[0] == REDUCE]
            if name in ("reduce", "allReduce", "reduceScatter"):
                # One operator application per non-root contribution.
                assert len(reduce_rows) == size - 1
                assert all(row[3] == flops for row in reduce_rows)
            elif name != "barrier":
                assert reduce_rows == []
            if name == "allGather":
                # The root takes in every other rank's vol, nothing more.
                assert sum(sum(sizes) for (_, dst), sizes in got.items()
                           if dst == root) == (size - 1) * vol
            if name == "allToAllv":
                assert got == {(s, d): [splits[s][d]] for s in range(size)
                               for d in range(size) if s != d}


def test_flat_root_receives_from_any_source_once_per_sender():
    size = 6
    rows_of = [schedule("reduce", rank, size, 100.0, 1.0, None, "flat")
               for rank in range(size)]
    assert rows_of[0] == [(REDUCE, ANY_SOURCE, 0.0, 1.0)] * (size - 1)
    got = play_schedules(rows_of)
    assert got == {(src, 0): [100.0] for src in range(1, size)}


def test_schedule_validates_alltoallv_split_count():
    with pytest.raises(ValueError, match=r"^p1: allToAllv carries 2 split "
                       r"sizes for a 3-process communicator$"):
        schedule("allToAllv", 1, 3, 0.0, 0.0, [1, 2])


# ---------------------------------------------------------------------------
# Runtime behaviour
# ---------------------------------------------------------------------------

def test_ring_program_runs_and_times_make_sense():
    """The paper's Fig. 1 pattern: compute 1 Mflop, send 1 MB around a ring,
    four iterations."""
    n = 4

    def ring(mpi):
        for _ in range(4):
            if mpi.rank == 0:
                yield from mpi.compute(1e6)
                yield from mpi.send((mpi.rank + 1) % n, 1e6)
                yield from mpi.recv(src=(mpi.rank - 1) % n)
            else:
                yield from mpi.recv(src=(mpi.rank - 1) % n)
                yield from mpi.compute(1e6)
                yield from mpi.send((mpi.rank + 1) % n, 1e6)

    runtime = make_runtime(n)
    result = runtime.run(ring)
    # Lower bound: 4 rounds x (compute 1e-3 s + transfer 1e6/1.25e8 s) x n.
    per_hop = 1e-3 + 1e6 / 1.25e8
    assert result.time >= 4 * n * per_hop * 0.9
    assert result.n_transfers == 4 * n
    assert result.bytes_transferred == pytest.approx(16e6)


def test_compute_scales_with_host_speed():
    def prog(mpi):
        yield from mpi.compute(2e9)

    slow = make_runtime(1, speed=1e9).run(prog)
    fast = make_runtime(1, speed=2e9).run(prog)
    assert slow.time == pytest.approx(2.0)
    assert fast.time == pytest.approx(1.0)


def test_folding_shares_cpu_linearly():
    """Table 2's key mechanism: x ranks folded on one CPU run ~x times
    slower on the compute-bound part."""
    def prog(mpi):
        yield from mpi.compute(1e9)

    regular = make_runtime(4, ranks_per_host=1).run(prog)
    folded = make_runtime(4, ranks_per_host=4).run(prog)
    assert folded.time / regular.time == pytest.approx(4.0, rel=0.01)


def test_sendrecv_pingpong_time():
    size = 1e6

    def prog(mpi):
        if mpi.rank == 0:
            yield from mpi.send(1, size)
            yield from mpi.recv(src=1)
        else:
            yield from mpi.recv(src=0)
            yield from mpi.send(0, size)

    result = make_runtime(2).run(prog)
    one_way = 3e-5 + size / 1.25e8  # 3 links of latency + bw-limited
    assert result.time == pytest.approx(2 * one_way, rel=1e-3)


def test_bcast_reaches_all_ranks():
    payloads = {}

    def prog(mpi):
        data = "hello" if mpi.rank == 0 else None
        got = yield from mpi.bcast(1024, root=0, data=data)
        payloads[mpi.rank] = got

    result = make_runtime(8).run(prog)
    assert payloads == {r: "hello" for r in range(8)}
    assert result.time > 0


def test_bcast_nonzero_root_nonpow2():
    payloads = {}

    def prog(mpi):
        data = "payload" if mpi.rank == 4 else None
        got = yield from mpi.bcast(1024, root=4, data=data)
        payloads[mpi.rank] = got

    make_runtime(6).run(prog)
    assert payloads == {r: "payload" for r in range(6)}


def test_bcast_completion_mirrors_reduce():
    """Regression for the children-wait bug: a bcast parent must block
    until its child sends complete, so on a uniform platform the bcast
    makespan equals the mirrored reduce tree's (same edges, reversed).
    When parents retired early the bcast finished a full transfer too
    soon."""
    def bcast_prog(mpi):
        yield from mpi.bcast(1e6, root=0, data="x")

    def reduce_prog(mpi):
        yield from mpi.reduce(1e6, flops=0.0, root=0, data=1)

    for size in (7, 8):
        t_bcast = make_runtime(size).run(bcast_prog).time
        t_reduce = make_runtime(size).run(reduce_prog).time
        assert t_bcast == pytest.approx(t_reduce, rel=1e-9)
        assert t_bcast > 0


def test_reduce_collects_at_root():
    totals = {}

    def prog(mpi):
        got = yield from mpi.reduce(8, flops=1.0, root=0, data=mpi.rank + 1,
                                    op=lambda a, b: a + b)
        totals[mpi.rank] = got

    make_runtime(8).run(prog)
    assert totals[0] == sum(range(1, 9))
    assert all(totals[r] is None for r in range(1, 8))


def test_allreduce_gives_everyone_the_result():
    totals = {}

    def prog(mpi):
        got = yield from mpi.allreduce(8, data=mpi.rank, op=lambda a, b: a + b)
        totals[mpi.rank] = got

    make_runtime(5).run(prog)
    assert totals == {r: sum(range(5)) for r in range(5)}


def test_barrier_synchronises():
    after = {}

    def prog(mpi):
        # Rank 0 is slow before the barrier; everyone leaves after it.
        if mpi.rank == 0:
            yield from mpi.compute(1e9)  # 1 s
        yield from mpi.barrier()
        after[mpi.rank] = mpi.wtime()

    make_runtime(4).run(prog)
    assert all(t >= 1.0 for t in after.values())


def test_isend_irecv_wait():
    order = []

    def prog(mpi):
        if mpi.rank == 0:
            req = mpi.isend(1, 1e5, tag=3, data="x")
            yield from mpi.compute(1e6)  # overlap
            yield from mpi.wait(req)
            order.append("send done")
        else:
            req = mpi.irecv(src=0, tag=3)
            yield from mpi.compute(1e6)
            done = yield from mpi.wait(req)
            order.append(f"got {done.data}")

    make_runtime(2).run(prog)
    assert "got x" in order


def test_irecv_posted_before_bcast_leaves_the_bcast_its_message():
    """A wildcard-tag irecv pending across a bcast must not take the
    bcast's message: collectives run in a context of their own."""
    got = {}

    def prog(mpi):
        if mpi.rank == 1:
            req = mpi.irecv(src=0)
            got["bcast"] = yield from mpi.bcast(1000, data=None)
            yield from mpi.wait(req)
            got["p2p"] = req.data
        else:
            yield from mpi.bcast(1000, data="collective")
            yield from mpi.send(1, 5e6, data="point-to-point")

    make_runtime(2).run(prog)
    assert got == {"bcast": "collective", "p2p": "point-to-point"}


def test_comm_size_traced_call():
    seen = {}

    def prog(mpi):
        seen[mpi.rank] = (yield from mpi.comm_size())

    make_runtime(3).run(prog)
    assert seen == {0: 3, 1: 3, 2: 3}


def test_scattering_adds_wan_latency():
    """The Scattering mode costs WAN latency on cross-site messages."""
    def build(scattered):
        platform = Platform("t")
        platform.add_cluster("a", 2, speed=1e9, link_bw=1.25e8, link_lat=1e-5,
                             backbone_bw=1.25e9, backbone_lat=1e-5)
        platform.add_cluster("b", 2, speed=1e9, link_bw=1.25e8, link_lat=1e-5,
                             backbone_bw=1.25e9, backbone_lat=1e-5)
        platform.connect("a", "b", bandwidth=1.25e9, latency=5e-3)
        if scattered:
            hosts = [platform.host("a-0"), platform.host("b-0")]
        else:
            hosts = [platform.host("a-0"), platform.host("a-1")]
        from repro.simkernel.pwl import IDENTITY_MODEL
        return MpiRuntime(platform, hosts, comm_model=IDENTITY_MODEL)

    def prog(mpi):
        if mpi.rank == 0:
            yield from mpi.send(1, 1000)
        else:
            yield from mpi.recv(src=0)

    local = build(False).run(prog)
    remote = build(True).run(prog)
    assert remote.time > local.time + 4e-3  # the 5 ms WAN latency dominates


def test_fatpipe_backbone_does_not_throttle_concurrent_flows():
    """A non-blocking fabric (backbone_sharing='fatpipe') is a per-flow
    cap, never a shared resource: four concurrent pair flows through a
    backbone no wider than one NIC must each still run at full NIC rate,
    while the same backbone under 'shared' sharing splits it four ways."""
    def pairwise_time(sharing):
        platform = Platform("t")
        platform.add_cluster(
            "c", 8, speed=1e9, link_bw=1.25e8, link_lat=1e-5,
            backbone_bw=1.25e8, backbone_lat=1e-5,
            backbone_sharing=sharing,
        )
        runtime = MpiRuntime(platform, round_robin_deployment(platform, 8),
                             comm_model=IDENTITY_MODEL)

        def prog(mpi):
            if mpi.rank % 2 == 0:
                yield from mpi.send(mpi.rank + 1, 1.25e8)
            else:
                yield from mpi.recv(src=mpi.rank - 1)

        return runtime.run(prog).time

    t_fat = pairwise_time("fatpipe")
    t_shared = pairwise_time("shared")
    assert t_fat == pytest.approx(1.0, rel=1e-3)      # NIC-limited: 1 s
    assert t_shared == pytest.approx(4.0, rel=1e-3)   # backbone split 4 ways


def test_deployment_helper_validation():
    platform = Platform("t")
    platform.add_cluster("c", 2, speed=1e9, link_bw=1e8, link_lat=1e-5,
                         backbone_bw=1e9, backbone_lat=1e-5)
    with pytest.raises(ValueError):
        round_robin_deployment(platform, 8, ranks_per_host=1)  # too few hosts
    with pytest.raises(ValueError):
        round_robin_deployment(platform, 2, ranks_per_host=0)
    deployment = round_robin_deployment(platform, 4, ranks_per_host=2)
    assert deployment[0] is deployment[1]
    assert deployment[2] is deployment[3]


def test_folded_compute_pays_efficiency_losses():
    """Efficiency must bind under folding too: with eff=0.5, four folded
    ranks on one core take 4x the single-rank time at half rate — i.e.
    8x the nominal single-task time (the Table 2 mechanism)."""
    platform = Platform("t")
    platform.add_cluster(
        "c", 4, speed=1e9, link_bw=1.25e8, link_lat=1e-5,
        backbone_bw=1.25e9, backbone_lat=1e-5,
        efficiency_model=lambda kind, flops: 0.5,
    )

    def prog(mpi):
        yield from mpi.compute(1e9)

    regular = MpiRuntime(
        platform, round_robin_deployment(platform, 4, ranks_per_host=1),
        comm_model=IDENTITY_MODEL,
    ).run(prog)
    folded = MpiRuntime(
        platform, round_robin_deployment(platform, 4, ranks_per_host=4),
        comm_model=IDENTITY_MODEL,
    ).run(prog)
    assert regular.time == pytest.approx(2.0)   # 1e9 at 5e8 effective
    assert folded.time == pytest.approx(8.0)    # shared 4 ways, still 0.5
