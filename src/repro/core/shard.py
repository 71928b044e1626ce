"""Sharded parallel replay: contiguous rank bands in worker processes.

The sequential replayer is single-core by construction — one engine, one
event heap.  For traces whose communication is *local* (each rank talks
to peers within a bounded rank distance) and whose only global coupling
is the synchronizing collectives, the simulation decomposes: between two
collectives, a rank's timing depends only on ranks within the message
reach of that window.  This driver exploits exactly that structure:

* ranks are partitioned into ``--shards`` contiguous **bands**; each band
  is replayed by a forked worker process that also simulates a **halo**
  of neighbouring ranks on each side (``--shard-halo``, default: the
  maximum peer distance found in the trace);
* point-to-point traffic whose peer lies inside the worker's simulated
  set runs through the normal mailbox; traffic crossing the set's edge
  is *fabricated* (sends get an immediately-posted matching receive,
  receives complete instantly) — only halo ranks ever do this, and their
  results are never authoritative;
* at every synchronizing collective (a **window** boundary) the workers
  stop, ship their per-rank entry times to the coordinator, which
  (a) cross-validates every halo rank's entry time against the band
  owner's authoritative value to 1e-9 — the halo-sufficiency check —
  (b) replays the collective's batched dependency graph
  (:mod:`repro.core.batch`) on a throwaway engine over *cloned*
  constraints, and (c) returns each rank's exit time plus its
  *link-quiet* time (when the last collective flow it sourced drained);
  workers release their parked ranks at those exact instants;
* after the last window the workers run their tails out and the
  coordinator merges: per-rank finish times come from band owners only.

Exactness: within a window the band simulation is exact as long as the
halo absorbs the influence radius of the fabricated edge — which the
window validation *checks* rather than assumes (divergence > 1e-9 fails
the replay with advice to widen ``--shard-halo``).  The collective
itself is exact because the coordinator replays the same protocol graph
the in-process driver uses, from authoritative entry times, on an
otherwise-empty network — which is also why sharding requires a
*decoupled* platform (single cluster, fatpipe backbone, no cabinets, no
WAN, one rank per host): cross-band flows must share no constraint, or
the independent worker engines would miss each other's bandwidth
contention.  Residual in-flight flows at a window boundary and sends
posted before the link-quiet instant are refused for the same reason.

Known honest limitations (also in docs/replay-performance.md): the tail
after the final collective is not cross-validated, and engine/comm
telemetry is aggregated across workers (halo ranks included) rather
than deduplicated.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..simkernel.activity import Waitable
from ..simkernel.engine import Engine
from ..smpi.collectives import BARRIER_TOKEN_BYTES
from .batch import CollectiveBatcher
from .compile import (
    OP_ALLGATHER,
    OP_ALLREDUCE,
    OP_ALLTOALL,
    OP_ALLTOALLV,
    OP_BARRIER,
    OP_BCAST,
    OP_COMM_SIZE,
    OP_COMPUTE,
    OP_IRECV,
    OP_ISEND,
    OP_RECV,
    OP_REDUCE,
    OP_REDUCESCATTER,
    OP_SEND,
    OP_WAIT,
)

__all__ = ["replay_sharded"]

#: Tolerance for halo-entry validation and the in-flight/quiet guards.
TOL = 1e-9


# ----------------------------------------------------------------------
# Upfront gates
# ----------------------------------------------------------------------
def _require_decoupled_platform(replayer, n_ranks: int) -> None:
    platform = replayer.platform
    why = None
    if len(platform.clusters) != 1:
        why = f"{len(platform.clusters)} clusters (need exactly one)"
    elif platform._wan:
        why = "WAN links between clusters"
    else:
        cluster = next(iter(platform.clusters.values()))
        if cluster.has_cabinets:
            why = "cabinet links shared between hosts"
        elif not cluster.backbone.fatpipe:
            why = ("a shared backbone (use backbone_sharing='fatpipe' "
                   "so cross-band flows share no constraint)")
    if why is None:
        hosts = replayer.deployment[:n_ranks]
        if len({id(h) for h in hosts}) != n_ranks:
            why = "several ranks folded onto one host"
        elif any(h.efficiency_model is not None or h.sharing_model is not None
                 for h in hosts):
            why = "hosts with efficiency/sharing models"
    if why is not None:
        raise ValueError(
            f"sharded replay needs a decoupled platform, but this one has "
            f"{why}; worker engines simulate bands independently and "
            "cannot see contention on constraints shared across bands"
        )


def _scan_programs(programs, n_ranks: int):
    """Validate shard-ability and extract the global window structure.

    Returns ``(windows, max_dist, rounds)`` where ``windows`` is the
    common per-rank sequence of synchronizing collectives as ``(kind,
    nbytes, flops)`` tuples, ``max_dist`` is the largest peer distance
    any rank communicates over, and ``rounds`` estimates the
    blocking-step rounds per window (blocking recv/wait count divided
    by distinct receive peers).  The caller sizes the default halo from
    these; window validation enforces sufficiency either way.
    """
    ref = None
    ref_rank = 0
    max_dist = 0
    max_rounds = 1
    for rank, prog in enumerate(programs):
        ops = prog.ops
        if np.any(ops == OP_BCAST) or np.any(ops == OP_REDUCE):
            raise ValueError(
                f"p{rank}: sharded replay cannot run standalone "
                "bcast/reduce actions — their trees span all bands "
                "without a synchronizing exit; only allReduce/barrier "
                "delimit shard windows"
            )
        # Same gate, named per op: the AI-workload collectives all carry
        # cross-band traffic the coordinator's window protocol does not
        # model (pairwise exchange touches every ordered pair; gather/
        # scatter trees span all bands).  Refuse loudly, never mis-batch.
        for bad_op, bad_name in ((OP_ALLTOALL, "allToAll"),
                                 (OP_ALLTOALLV, "allToAllv"),
                                 (OP_ALLGATHER, "allGather"),
                                 (OP_REDUCESCATTER, "reduceScatter")):
            if np.any(ops == bad_op):
                raise ValueError(
                    f"p{rank}: sharded replay cannot run {bad_name} "
                    "actions — their communication spans all bands and "
                    "is not a shard-window collective; run without "
                    "--shards (the sequential drivers replay it exactly)"
                )
        recv_mask = (ops == OP_RECV) | (ops == OP_IRECV)
        if np.any(prog.arg[recv_mask] < 0):
            raise ValueError(
                f"p{rank}: sharded replay cannot honor ANY_SOURCE "
                "receives (the sender may live in another band)"
            )
        declared = prog.arg[ops == OP_COMM_SIZE]
        if declared.size and np.any(declared != n_ranks):
            raise ValueError(
                f"p{rank}: sharded replay needs comm_size == n_ranks "
                f"({n_ranks}); the trace declares "
                f"{int(declared[declared != n_ranks][0])}"
            )
        p2p = (ops == OP_SEND) | (ops == OP_ISEND) | recv_mask
        if np.any(p2p):
            max_dist = max(max_dist,
                           int(np.max(np.abs(prog.arg[p2p] - rank))))
        sync = (ops == OP_ALLREDUCE) | (ops == OP_BARRIER)
        n_windows = int(np.count_nonzero(sync))
        blocking = int(np.count_nonzero((ops == OP_RECV) | (ops == OP_WAIT)))
        peers = np.unique(prog.arg[recv_mask]).size
        if blocking and peers and n_windows:
            rounds = -(-blocking // (n_windows * peers))  # ceil
            max_rounds = max(max_rounds, rounds)
        key = (ops[sync], prog.vol[sync], prog.vol2[sync])
        if ref is None:
            ref, ref_rank = key, rank
        elif (len(key[0]) != len(ref[0])
              or not np.array_equal(key[0], ref[0])
              or not np.allclose(key[1], ref[1], rtol=0.0, atol=0.0)
              or not np.allclose(key[2], ref[2], rtol=0.0, atol=0.0)):
            raise ValueError(
                f"p{rank} and p{ref_rank} disagree on the synchronizing-"
                "collective sequence; sharded replay needs every rank to "
                "run the same allReduce/barrier sequence"
            )
    windows: List[Tuple[str, float, float]] = []
    for op, v, v2 in zip(ref[0].tolist(), ref[1].tolist(), ref[2].tolist()):
        if op == OP_ALLREDUCE:
            windows.append(("allReduce", float(v), float(v2)))
        else:
            windows.append(("barrier", float(BARRIER_TOKEN_BYTES), 0.0))
    if not windows:
        raise ValueError(
            "sharded replay needs at least one synchronizing collective "
            "(allReduce/barrier): windows are where halo fabrication is "
            "validated; without any, cross-band traffic would go "
            "unchecked"
        )
    return windows, max_dist, max_rounds


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
class _OutsideRecv(Waitable):
    """A fabricated, already-complete receive from a rank outside the
    worker's simulated set.  Only outer-halo ranks ever see one, and
    their results are validated (or discarded) at the next window."""

    __slots__ = ("size", "src", "tag")

    def __init__(self, size: float, src: int) -> None:
        super().__init__()
        self.done = True
        self.size = size
        self.src = src
        self.tag = -1


class _ShardRuntime:
    """Worker-local window state: arrivals, parks, quiet times, and the
    synchronous pipe exchange the last local arriver performs."""

    def __init__(self, engine, comms, conn, sim_lo: int, sim_hi: int,
                 band_lo: int, band_hi: int, halo: int) -> None:
        self.engine = engine
        self.comms = comms
        self.conn = conn
        self.sim_lo = sim_lo
        self.sim_hi = sim_hi
        self.band_lo = band_lo
        self.band_hi = band_hi
        self.halo = halo
        self.n_sim = sim_hi - sim_lo
        self.window = 0
        self.arrivals: Dict[int, float] = {}
        self.parks: Dict[int, Waitable] = {}
        self.quiet: Dict[int, float] = {r: 0.0 for r in range(sim_lo, sim_hi)}
        self.windows_merged = 0

    def check_send_quiet(self, rank: int) -> None:
        if self.engine.now < self.quiet[rank] - TOL:
            raise ValueError(
                f"p{rank} posts a send at t={self.engine.now:.9g} while "
                f"its collective flows from window {self.window - 1} are "
                f"still draining (quiet at t={self.quiet[rank]:.9g}); the "
                "send would contend with flows the band simulation does "
                "not carry — this trace is too communication-dense right "
                "after collectives to shard safely"
            )

    def arrive(self, rank: int) -> Waitable:
        # The coordinator prices the collective on an empty network, so
        # a rank's reduce send must not contend with its own still
        # draining point-to-point flows (buffered eager sends are the
        # one channel that can fly past the sender's entry).
        inflight = self.comms._inflight or ()
        for comm in inflight:
            req = comm.send_req
            if req is not None and req.src == rank:
                raise ValueError(
                    f"p{rank} enters a collective at "
                    f"t={self.engine.now:.9g} with an eager flow to "
                    f"p{req.dst} still in flight; the flow would "
                    "contend with the collective's reduce traffic, "
                    "which the sharded driver prices on an isolated "
                    "network — this trace overlaps point-to-point and "
                    "collective traffic too tightly to shard safely"
                )
        park = Waitable()
        self.arrivals[rank] = self.engine.now
        self.parks[rank] = park
        if len(self.parks) == self.n_sim:
            self._exchange()
        return park

    def _exchange(self) -> None:
        engine = self.engine
        inflight = getattr(self.comms, "_inflight", None)
        if inflight:
            raise ValueError(
                f"{len(inflight)} point-to-point flows still in flight "
                f"when every rank of band [{self.band_lo},{self.band_hi}) "
                f"reached window {self.window}; the coordinator replays "
                "the collective on an empty network, so residual flows "
                "would be mispriced — lower --eager-threshold (so senders "
                "block until arrival) or replay without --shards"
            )
        self.conn.send(("window", self.window, dict(self.arrivals)))
        reply = self.conn.recv()
        if reply[0] == "error":
            raise RuntimeError(f"shard coordinator: {reply[1]}")
        _tag, exits, quiets = reply
        for rank, park in self.parks.items():
            when = exits[rank]
            if (self.band_lo <= rank < self.band_hi
                    and when < engine.now - TOL):
                raise ValueError(
                    f"p{rank} (band-owned) entered window {self.window} "
                    f"later (t={self.arrivals[rank]:.9g}) than its "
                    f"collective exit (t={when:.9g}); the halo did not "
                    "absorb the fabricated edge — increase --shard-halo"
                )
            engine.complete_at(park, when)
        self.quiet = dict(quiets)
        self.window += 1
        self.windows_merged += 1
        self.arrivals = {}
        self.parks = {}


def _shard_rank_process(replayer, ctx, prog, runtime: _ShardRuntime,
                        finish: Dict[int, float]):
    """One rank's replay inside a shard worker: the compiled hot loop
    with edge fabrication and coordinator-driven collectives."""
    engine = replayer.engine
    comms = replayer.comms
    host = ctx.host
    cpu = host.cpu
    speed = host.speed
    work = host.work_inflation
    pending = ctx.pending_irecvs
    rank = ctx.rank
    lo = runtime.sim_lo
    hi = runtime.sim_hi
    for rec, _ns in prog.records():
        op, peer, v, _v2, _splits = rec
        ctx.current = rec
        if op == OP_COMPUTE:
            if v > 0.0:
                yield engine.exec_activity(
                    cpu, v * work("compute", v), bound=speed)
        elif op == OP_ISEND:
            runtime.check_send_quiet(rank)
            if not lo <= peer < hi:
                # Fabricated edge: the outside receiver is assumed
                # already posted, so the flow starts now (the eager
                # protocol behaves identically; rendezvous starts at the
                # send post, which only halo ranks can observe).
                comms.irecv(peer, src=rank)
            comms.isend(rank, peer, v)
        elif op == OP_IRECV:
            if lo <= peer < hi:
                pending.append(comms.irecv(rank, src=peer))
            else:
                pending.append(_OutsideRecv(v, peer))
        elif op == OP_WAIT:
            if not pending:
                raise ValueError(
                    f"p{rank}: 'wait' with no pending Irecv (trace is "
                    "inconsistent)"
                )
            yield pending.popleft()
        elif op == OP_SEND:
            runtime.check_send_quiet(rank)
            if not lo <= peer < hi:
                comms.irecv(peer, src=rank)
            yield comms.isend(rank, peer, v)
        elif op == OP_RECV:
            if lo <= peer < hi:
                yield comms.irecv(rank, src=peer)
            else:
                yield _OutsideRecv(v, peer)
        elif op == OP_ALLREDUCE or op == OP_BARRIER:
            ctx.coll_seq += 1
            yield runtime.arrive(rank)
        elif op == OP_COMM_SIZE:
            ctx.declared_size = peer
        else:  # pragma: no cover - _scan_programs refuses these upfront
            raise ValueError(f"p{rank}: opcode {op} cannot run sharded")
    ctx.current = None
    ctx.n_actions = prog.n_src
    finish[rank] = engine.now


def _worker_main(replayer, programs, w: int, sim_lo: int, sim_hi: int,
                 band_lo: int, band_hi: int, halo: int, conn) -> None:
    """Entry point of one forked shard worker.

    The fork snapshot carries the parent's pristine platform, engine,
    and compiled programs — nothing is pickled, and the parent never ran
    its engine, so every worker starts from identical clean state.
    """
    try:
        from .replay import _RankContext

        engine = replayer.engine
        comms = replayer.comms
        # _inflight bookkeeping doubles as the residual-flow gate.
        comms.enable_fault_tracking()
        engine.metrics.reset()
        comms.metrics.reset()
        runtime = _ShardRuntime(engine, comms, conn, sim_lo, sim_hi,
                                band_lo, band_hi, halo)
        contexts = [_RankContext(rank, replayer.deployment[rank])
                    for rank in range(sim_lo, sim_hi)]
        engine.deadlock_hook = lambda blocked: replayer._deadlock_report(
            contexts, blocked)
        finish: Dict[int, float] = {}
        for ctx in contexts:
            engine.add_process(
                f"p{ctx.rank}",
                _shard_rank_process(replayer, ctx, programs[ctx.rank],
                                    runtime, finish))
        engine.run()
        counters = None
        if replayer.telemetry is not None:
            counters = {"engine": engine.metrics.as_dict(),
                        "comm": comms.metrics.as_dict()}
        band_finish = {r: finish[r] for r in range(band_lo, band_hi)}
        conn.send(("done", band_finish, engine.now, counters))
    except BaseException as exc:  # noqa: BLE001 - forwarded to the parent
        import traceback
        try:
            if isinstance(exc, ValueError):  # a refusal, not a crash
                conn.send(("refused", str(exc)))
            else:
                conn.send(("error", f"{type(exc).__name__}: {exc}",
                           traceback.format_exc()))
        except OSError:  # parent already gone
            pass
    finally:
        conn.close()


# ----------------------------------------------------------------------
# Coordinator side
# ----------------------------------------------------------------------
class _ShadowHost:
    """Host facade for the coordinator's throwaway collective engines:
    same speed and inflation semantics, cloned CPU constraint."""

    __slots__ = ("cpu", "speed", "_host")

    def __init__(self, host, cpu_clone) -> None:
        self.cpu = cpu_clone
        self.speed = host.speed
        self._host = host

    def work_inflation(self, kind: str, flops: float) -> float:
        return self._host.work_inflation(kind, flops)


def _simulate_collective(replayer, n_ranks: int, kind: str, nbytes: float,
                         flops: float, entries: List[float]):
    """Replay one collective on a fresh engine from absolute entry times.

    Returns ``(exits, quiets)``: per-rank collective exit times and
    link-quiet times (the arrival instant of the last collective flow
    the rank sourced — its uplink is busy until then).  Runs on cloned
    constraints so the live platform's engine-owned sharing state is
    never touched.
    """
    engine = Engine()
    clones: Dict[int, object] = {}

    def clone_of(constraint):
        c = clones.get(id(constraint))
        if c is None:
            c = clones[id(constraint)] = constraint.clone()
        return c

    base = replayer.comms.transfer_params

    def transfer_params(src: int, dst: int, size: float):
        links, latency, bw_factor = base(src, dst, size)
        return [clone_of(l) for l in links], latency, bw_factor

    hosts = [_ShadowHost(h, clone_of(h.cpu))
             for h in replayer.deployment[:n_ranks]]
    quiet_arrival = [0.0] * n_ranks

    def observer(src: int, _dst: int) -> None:
        if engine.now > quiet_arrival[src]:
            quiet_arrival[src] = engine.now

    batcher = CollectiveBatcher(engine, transfer_params, hosts,
                                replayer.comms.eager_threshold,
                                flow_observer=observer)
    graph = batcher.open_graph(0, kind, nbytes, flops, n_ranks)
    exits = [0.0] * n_ranks
    for r in range(n_ranks):
        graph.exits[r].on_complete(
            lambda _n, r=r: exits.__setitem__(r, engine.now))
    # Entry times are absolute and the throwaway engine starts at 0, so
    # a timer of that duration releases each entry at the right instant.
    for r in range(n_ranks):
        t = engine.timer(entries[r], name=f"entry{r}")
        t.on_complete(lambda _t, r=r: graph.entries[r].satisfy())

    def waiter():
        for node in graph.exits:
            yield node

    engine.add_process("collective", waiter())
    engine.run()
    quiets = [max(exits[r], quiet_arrival[r]) for r in range(n_ranks)]
    return exits, quiets


def _merge_counters(blobs: List[Optional[Dict]]) -> Dict[str, Dict]:
    """Sum worker engine/comm counters; recompute the derived ratios."""
    merged: Dict[str, Dict] = {}
    for section in ("engine", "comm"):
        total: Dict[str, float] = {}
        for blob in blobs:
            for key, value in blob[section].items():
                if key.endswith(("_mean", "_rate")):
                    continue
                if isinstance(value, dict):
                    # Histogram-valued counter (filling_level_histogram):
                    # merge per-bucket.
                    bucket_total = total.setdefault(key, {})
                    for bucket, count in value.items():
                        bucket_total[bucket] = (
                            bucket_total.get(bucket, 0) + count)
                    continue
                total[key] = total.get(key, 0) + value
        if section == "engine":
            recomputes = total.get("sharing_recomputes", 0)
            total["component_activities_mean"] = (
                total.get("component_activities_total", 0) / recomputes
                if recomputes else 0.0)
        else:
            for what in ("route", "factor"):
                hits = total.get(f"{what}_cache_hits", 0)
                misses = total.get(f"{what}_cache_misses", 0)
                total[f"{what}_cache_hit_rate"] = (
                    hits / (hits + misses) if hits + misses else 0.0)
        merged[section] = total
    return merged


def replay_sharded(replayer, source):
    """Drive one sharded replay; called from ``TraceReplayer.replay``."""
    import multiprocessing

    from .replay import ReplayResult

    wall_start = time.perf_counter()
    programs = replayer._compiled_programs(source, None)
    n_ranks = len(programs)
    if n_ranks > len(replayer.deployment):
        raise ValueError(
            f"trace has {n_ranks} ranks but deployment covers only "
            f"{len(replayer.deployment)}"
        )
    _require_decoupled_platform(replayer, n_ranks)
    windows, max_dist, rounds = _scan_programs(programs, n_ranks)
    # ``halo`` is the guard width.  Contamination from a fabricated edge
    # travels inward roughly one max_dist per blocking step: a fabricated
    # recv removes real traffic from an edge rank's links, which shifts
    # the completion of inbound blocking sends, which shifts the sender's
    # *next* send one max_dist further in, and so on.  The shift
    # attenuates with depth (a shifted arrival that lands before the
    # wait's other binding dependency stops mattering entirely), so the
    # auto default is a heuristic — (4 * rounds + 1) * max_dist,
    # calibrated on LU-style stencil traces — not a proof.  Correctness
    # never rests on it: workers simulate one extra max_dist beyond the
    # guard, and the per-window validation requires the guard's
    # band-adjacent ring to match the band owner to 1e-9 — if the halo
    # is too thin the replay *fails loudly* instead of drifting.  Outer
    # halo ranks are expected to diverge; they are the buffer.
    halo = replayer.shard_halo if replayer.shard_halo > 0 else (
        max_dist * (4 * rounds + 1))
    reach = halo + max_dist
    n_shards = min(replayer.shards, n_ranks)
    if n_shards <= 1:
        return replayer._replay_core(source, None)[0]
    try:
        mp = multiprocessing.get_context("fork")
    except ValueError:
        raise ValueError(
            "sharded replay forks its workers (the compiled programs and "
            "platform are inherited, never pickled) and needs the POSIX "
            "'fork' start method"
        ) from None

    # Contiguous bands, sized as evenly as integer division allows.
    bounds = [round(w * n_ranks / n_shards) for w in range(n_shards + 1)]
    bands = [(bounds[w], bounds[w + 1]) for w in range(n_shards)]
    sims = [(max(0, lo - reach), min(n_ranks, hi + reach))
            for lo, hi in bands]

    workers = []
    conns = []
    try:
        for w, ((lo, hi), (slo, shi)) in enumerate(zip(bands, sims)):
            parent_conn, child_conn = mp.Pipe()
            proc = mp.Process(
                target=_worker_main,
                args=(replayer, programs, w, slo, shi, lo, hi, halo,
                      child_conn),
                name=f"shard{w}",
                daemon=True,
            )
            proc.start()
            child_conn.close()
            workers.append(proc)
            conns.append(parent_conn)

        def recv_from(w: int):
            try:
                msg = conns[w].recv()
            except EOFError:
                raise RuntimeError(
                    f"shard worker {w} died without a report "
                    f"(exitcode {workers[w].exitcode})"
                ) from None
            if msg[0] == "refused":
                raise ValueError(f"shard worker {w}: {msg[1]}")
            if msg[0] == "error":
                raise RuntimeError(
                    f"shard worker {w} failed: {msg[1]}\n{msg[2]}"
                )
            return msg

        prev_quiet = [0.0] * n_ranks
        for k, (kind, nbytes, flops) in enumerate(windows):
            arrivals_by_worker = []
            for w in range(n_shards):
                msg = recv_from(w)
                if msg[0] != "window" or msg[1] != k:
                    raise RuntimeError(
                        f"shard worker {w} desynchronized: sent {msg[:2]} "
                        f"while the coordinator was at window {k}"
                    )
                arrivals_by_worker.append(msg[2])
            if os.environ.get("SHARD_DEBUG"):
                for w, arrivals in enumerate(arrivals_by_worker):
                    print(f"[dbg] window {k} worker {w} "
                          f"sim={sims[w]} band={bands[w]}:",
                          {r: round(t, 9)
                           for r, t in sorted(arrivals.items())})
            # Band owners are authoritative; halo copies must agree.
            entries = [0.0] * n_ranks
            for w, arrivals in enumerate(arrivals_by_worker):
                lo, hi = bands[w]
                for rank, t in arrivals.items():
                    if lo <= rank < hi:
                        entries[rank] = t
            # Halo-sufficiency check: the guard ring (halo copies within
            # max_dist of the band) feeds the band directly, so it must
            # match the owner exactly; copies beyond it buffer the
            # fabricated edge and legitimately drift.
            for w, arrivals in enumerate(arrivals_by_worker):
                lo, hi = bands[w]
                for rank, t in arrivals.items():
                    if lo <= rank < hi:
                        continue
                    ring = lo - rank if rank < lo else rank - hi + 1
                    if ring <= max_dist and abs(t - entries[rank]) > TOL:
                        raise ValueError(
                            f"window {k}: worker {w}'s guard-ring copy "
                            f"of p{rank} entered at t={t:.9g} but the "
                            f"band owner says t={entries[rank]:.9g} "
                            f"(|Δ|={abs(t - entries[rank]):.3g}); the "
                            f"halo guard ({halo} ranks) does not absorb "
                            "this trace's cross-band influence — "
                            "increase --shard-halo"
                        )
            for rank in range(n_ranks):
                if entries[rank] < prev_quiet[rank] - TOL:
                    raise ValueError(
                        f"p{rank} enters window {k} at "
                        f"t={entries[rank]:.9g} while its window {k - 1} "
                        f"flows drain until t={prev_quiet[rank]:.9g}; "
                        "back-to-back collectives this tight cannot be "
                        "sharded exactly"
                    )
            exits, quiets = _simulate_collective(
                replayer, n_ranks, kind, nbytes, flops, entries)
            prev_quiet = quiets
            for w in range(n_shards):
                slo, shi = sims[w]
                conns[w].send((
                    "release",
                    {r: exits[r] for r in range(slo, shi)},
                    {r: quiets[r] for r in range(slo, shi)},
                ))

        per_rank = [0.0] * n_ranks
        counter_blobs = []
        for w in range(n_shards):
            msg = recv_from(w)
            if msg[0] != "done":
                raise RuntimeError(
                    f"shard worker {w} desynchronized at the final merge: "
                    f"sent {msg[:2]}"
                )
            _tag, band_finish, _worker_now, counters = msg
            for rank, t in band_finish.items():
                per_rank[rank] = t
            counter_blobs.append(counters)
        for proc in workers:
            proc.join(timeout=30)
    finally:
        for proc in workers:
            if proc.is_alive():
                proc.terminate()
        for conn in conns:
            conn.close()

    metrics = None
    if replayer.telemetry is not None:
        n_windows = len(windows)
        replay_metrics = replayer.telemetry.replay
        replay_metrics.reset(n_ranks)
        replay_metrics.ops_compiled = sum(p.n_ops for p in programs)
        replay_metrics.computes_fused = sum(p.n_src - p.n_ops
                                            for p in programs)
        replay_metrics.phase_advances = n_windows
        replay_metrics.shard_merges = n_windows
        replay_section = replay_metrics.as_dict()
        replay_section.pop("per_rank")
        replay_section["n_actions"] = sum(p.n_src for p in programs)
        metrics = _merge_counters([b for b in counter_blobs if b])
        metrics["engine"]["aggregated_over_shards"] = n_shards
        metrics["comm"]["aggregated_over_shards"] = n_shards
        metrics["replay"] = replay_section
        # Workers simulate halo ranks on top of their bands, so per-op
        # attribution is not deduplicatable; sharded runs publish the
        # aggregate sections only.
        metrics["per_rank"] = []
        metrics["faults"] = replayer.telemetry.faults.as_dict()

    return ReplayResult(
        simulated_time=max(per_rank) if per_rank else 0.0,
        per_rank_time=per_rank,
        n_ranks=n_ranks,
        n_actions=sum(p.n_src for p in programs),
        wall_seconds=time.perf_counter() - wall_start,
        timed_trace=[],
        metrics=metrics,
    )
