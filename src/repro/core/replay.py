"""The time-independent trace replay tool (§5).

Inputs, as in the paper's Fig. 4: the time-independent trace(s), a
platform description, and a deployment (rank -> host).  Output: the
simulated execution time (and optionally a *timed trace* with the
simulated start/end instant of every action).

The replayer drives one simulated process per rank over its action
stream — the analogue of ``MSG_action_trace_run``.  Every rank runs the
same loop, :meth:`TraceReplayer._rank_process`: an if/elif over the
opcodes of the action table (:data:`repro.core.actions.ACTION_TABLE`,
docs/trace-format.md), the one place the action set is written down —
where MSG binds a handler per keyword (``MSG_action_register``), a new
action here is a table row plus a branch.  The loop reads
``(op, arg, vol, vol2, splits)`` records from the columns of compiled
programs (:mod:`repro.core.compile`): whole programs by default, or,
under ``compiled="never"``, unfused windows compiled as the replay
reaches them.  ``compiled=`` picks the form, never the semantics.

Replay semantics (docs/replay-semantics.md has the long form):

* ``compute v`` — execute ``v`` flops on the rank's host.
* ``send/recv`` — blocking point-to-point, matched by source rank through
  the kernel's eager/rendezvous protocol (the paper's MPI_Send mode
  switch).
* ``Isend`` — detached send: the flow is injected, nothing is awaited.
* ``Irecv``/``wait`` — Irecv posts a receive into the rank's pending
  queue; ``wait`` completes the *oldest* pending one (SimGrid's replay
  does the same, and the extractor mirrors it).
* collectives — point-to-point schedules built by
  :func:`repro.smpi.collectives.schedule` (the runtime walks the same
  rows) and walked inline by the loop under the collective's own tag:
  binomial trees rooted at process 0 (§3), or flat trees with
  ``collective_algorithm="flat"`` (the ablation of the
  monolithic-collective simplification discussed in §2).  A trace
  receive never matches a collective's message.
* ``comm_size`` — declares the communicator; required before the first
  collective (§3).
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, List, Optional, Sequence

from ..faults.injector import run_with_faults
from ..faults.plan import FaultPlan, LinkDegrade, LinkDown
from ..faults.report import FaultReport
from ..simkernel import CommSystem, Engine, Host, Platform, Telemetry
from ..simkernel.pwl import DEFAULT_MPI_MODEL, PiecewiseLinearModel
from ..smpi.collectives import (
    BARRIER_TOKEN_BYTES, ISEND, RECV, SEND, WAIT, schedule,
)
from .actions import NAME_OF_OPCODE, encode_tokens
from .batch import CollectiveBatcher, batch_eligible
from .compile import (
    OP_ALLREDUCE,
    OP_BARRIER,
    OP_COMM_SIZE,
    OP_COMPUTE,
    OP_IRECV,
    OP_ISEND,
    OP_RECV,
    OP_SEND,
    OP_WAIT,
    CompiledProgram,
    compile_source,
    compile_windows,
    fuse_computes,
)

__all__ = ["TraceReplayer", "ReplayResult"]


@dataclass
class ReplayResult:
    """Outcome of one replay: the paper's 'simulated execution time'."""

    simulated_time: float
    per_rank_time: List[float]
    n_ranks: int
    n_actions: int
    wall_seconds: float          # how long the replay itself took (Fig. 9)
    timed_trace: List[tuple] = field(default_factory=list)
    # Telemetry document (engine / comm / replay / per_rank sections);
    # None unless the replayer was built with collect_metrics=True.
    metrics: Optional[Dict] = None
    # Failure provenance (who died, who it blocked, lost progress);
    # None unless the replayer was built with a fault plan.
    fault_report: Optional[FaultReport] = None

    def __str__(self) -> str:  # pragma: no cover - convenience
        return (f"ReplayResult(simulated={self.simulated_time:.4f}s, "
                f"ranks={self.n_ranks}, actions={self.n_actions}, "
                f"replay_wall={self.wall_seconds:.2f}s)")


class _RankContext:
    """Per-rank replay state: host, posted Irecvs, communicator, progress
    and the record in flight."""

    __slots__ = ("rank", "host", "pending_irecvs", "declared_size",
                 "coll_seq", "n_actions", "current")

    def __init__(self, rank: int, host: Host) -> None:
        self.rank = rank
        self.host = host
        self.pending_irecvs = deque()
        self.declared_size: Optional[int] = None
        self.coll_seq = 0
        self.n_actions = 0
        # The (op, arg, vol, vol2, splits) record being replayed; what
        # the deadlock and fault reports name when this rank is stuck.
        self.current: Optional[tuple] = None

    def action_tokens(self) -> Optional[List[str]]:
        """Token list of the in-flight action, formatted only when a
        diagnostic asks (a fused compute renders as the summed compute
        it executes as)."""
        if self.current is None:
            return None
        return encode_tokens(self.rank, *self.current)

    def state(self):
        """Progress, action in flight and pending receive sources, as a
        fault report records them."""
        return (self.n_actions, self.action_tokens(),
                [req.src for req in self.pending_irecvs])


class TraceReplayer:
    """Replays time-independent traces on a simulated platform."""

    def __init__(
        self,
        platform: Platform,
        deployment: Sequence[Host],
        comm_model: PiecewiseLinearModel = DEFAULT_MPI_MODEL,
        eager_threshold: float = 65536,
        collective_algorithm: str = "binomial",
        record_timed_trace: bool = False,
        collect_metrics: bool = False,
        lmm_mode: str = "auto",
        fault_plan: Optional[FaultPlan] = None,
        fault_mode: str = "abort",
        compiled: str = "auto",
        batch_phases: bool = False,
        shards: int = 0,
        shard_halo: int = 0,
        lmm_incremental: bool = True,
    ) -> None:
        if not deployment:
            raise ValueError("deployment must map at least one rank")
        if shards < 0 or shard_halo < 0:
            raise ValueError("shards and shard_halo must be >= 0")
        if shards > 1:
            if record_timed_trace:
                raise ValueError(
                    "sharded replay does not record timed traces (the "
                    "shard workers' loop keeps no per-action record); "
                    "use shards=0 with record_timed_trace"
                )
            if compiled == "never":
                raise ValueError(
                    "sharded replay runs on compiled programs; "
                    "shards>1 is incompatible with compiled='never'"
                )
            if collective_algorithm != "binomial":
                raise ValueError(
                    "sharded replay synchronizes shards at binomial "
                    "collectives; use collective_algorithm='binomial'"
                )
        if compiled not in ("auto", "never"):
            raise ValueError(
                f"unknown compiled mode {compiled!r}; use 'auto' or "
                "'never'"
            )
        if collective_algorithm not in ("binomial", "flat"):
            raise ValueError(
                f"unknown collective algorithm {collective_algorithm!r}; "
                "use 'binomial' or 'flat'"
            )
        if fault_mode not in ("abort", "checkpoint-restart"):
            raise ValueError(
                f"unknown fault mode {fault_mode!r}; use 'abort' or "
                "'checkpoint-restart'"
            )
        if fault_plan is not None and fault_mode == "checkpoint-restart":
            if fault_plan.checkpoint is None:
                raise ValueError(
                    "checkpoint-restart mode needs a 'checkpoint' block "
                    "(interval/cost/restart) in the fault plan"
                )
            if any(isinstance(e, LinkDown) for e in fault_plan.events):
                raise ValueError(
                    "checkpoint-restart mode models host crashes "
                    "analytically and cannot model link_down events; use "
                    "abort mode (or link_degrade) for link outages"
                )
        self.fault_plan = fault_plan
        self.fault_mode = fault_mode
        self.platform = platform
        self.deployment = list(deployment)
        self.telemetry = Telemetry() if collect_metrics else None
        # ``lmm_mode`` (``repro-replay --lmm``): "auto" moves sharing
        # groups to the array solver above the size cutoff, "reference"
        # keeps every group on the scalar oracle.
        # ``lmm_incremental`` gates the certified incremental patch
        # re-solve of large sharing groups (on by default; the off
        # switch exists for A/B benchmarking — results are
        # 1e-9-identical either way by construction).
        self.lmm_incremental = bool(lmm_incremental)
        self.engine = Engine(
            metrics=self.telemetry.engine if collect_metrics else None,
            lmm_mode=lmm_mode,
            incremental=lmm_incremental,
        )
        self.comms = CommSystem(
            self.engine,
            platform,
            dict(enumerate(self.deployment)),
            comm_model=comm_model,
            eager_threshold=eager_threshold,
            metrics=self.telemetry.comm if collect_metrics else None,
        )
        self.collective_algorithm = collective_algorithm
        self.record_timed_trace = record_timed_trace
        self.timed_trace: List[tuple] = []
        # ``compiled`` selects the form of the rank loop's feed: "auto"
        # compiles every source whole (path sources through the ``.tic``
        # cache) and fuses compute runs where that is exact; "never"
        # compiles a bounded window of each rank at a time, unfused and
        # uncached.  Exposed as ``repro-replay --no-compiled``.
        self.compiled = compiled
        # Phase batching: advance synchronizing collectives with one
        # dependency graph instead of per-rank schedule walks (see
        # repro.core.batch).  Silently inert when the replay is not
        # eligible (flat collectives, fault plans, folded or modeled
        # hosts) — eligibility is checked per replay.
        self.batch_phases = batch_phases
        # Sharded replay: partition ranks into contiguous bands replayed
        # in forked worker processes, synchronized at collectives (see
        # repro.core.shard).  0/1 means in-process replay.  Fault plans
        # take the sequential path regardless — fault reports are then
        # byte-identical to unsharded runs by construction.
        self.shards = shards
        self.shard_halo = shard_halo
        # CompileReport of the most recent whole-program compile (None
        # while every replay ran windowed).
        self.last_compile_report = None

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def replay(self, source) -> ReplayResult:
        """The MSG_action_trace_run analogue.

        ``source`` may be an :class:`~.trace.InMemoryTrace`, a directory of
        ``SG_process<rank>.trace`` files, or a single merged trace file.
        With a fault plan, the result carries a
        :class:`~repro.faults.report.FaultReport`; without one, this is
        byte-for-byte the fault-free replay (no hooks, no extra state).
        """
        plan = self.fault_plan
        if plan is None and self.shards > 1:
            from .shard import replay_sharded
            return replay_sharded(self, source)
        if plan is not None and self.fault_mode == "checkpoint-restart":
            return self._replay_checkpoint_restart(source, plan)
        # Fault mode 'abort' stops at quiescence after the first rank
        # death and reports provenance + per-rank lost progress.
        return self._replay_core(source, plan)

    def _replay_checkpoint_restart(self, source,
                                   plan: FaultPlan) -> ReplayResult:
        """Fault mode 'checkpoint-restart': one fault-free-progress sim
        pass (link degradations still apply in-sim), then the analytic
        coordinated checkpoint/restart timeline absorbs the host crashes.
        """
        from ..faults.checkpoint import simulate_checkpoint_restart

        degrades = [e for e in plan.sorted_events()
                    if isinstance(e, LinkDegrade)]
        result = self._replay_core(source, plan, degrades)
        crashes = plan.host_crashes()
        outcome = simulate_checkpoint_restart(
            result.simulated_time, result.per_rank_time,
            [crash.t for crash in crashes], plan.checkpoint,
        )
        applied = result.fault_report.events_applied
        applied += [{"t": crash.t, "action": "modeled",
                     "event": crash.to_dict()} for crash in crashes]
        model = plan.checkpoint
        result.fault_report = FaultReport(
            mode="checkpoint-restart",
            n_ranks=result.n_ranks,
            makespan=outcome.makespan,
            events_applied=applied,
            fault_free_makespan=outcome.fault_free_makespan,
            checkpoint={
                "interval": model.interval,
                "cost": model.cost,
                "restart": model.restart,
                "n_restarts": outcome.n_restarts,
                "n_checkpoints": outcome.n_checkpoints,
                "total_rework": outcome.total_rework,
                "checkpoint_overhead": outcome.checkpoint_overhead,
                "crashes": outcome.crashes,
            },
        )
        result.simulated_time = outcome.makespan
        result.per_rank_time = list(outcome.per_rank)
        return result

    def _replay_core(self, source, plan: Optional[FaultPlan] = None,
                     events=None) -> ReplayResult:
        """One simulation pass, under ``plan`` (injecting ``events``, all
        of the plan's by default) when one is given.

        Fault-free runs (``plan`` None) execute exactly the
        pre-fault-injection pipeline: no injector daemon, no hooks, no
        deadlock interception.
        """
        if self.compiled == "never":
            programs = None
            feeds = [chain.from_iterable(map(CompiledProgram.records, run))
                     for run in compile_windows(source)]
        else:
            programs = self._compiled_programs(source, plan)
            feeds = [prog.records() for prog in programs]
        n_ranks = len(feeds)
        if n_ranks > len(self.deployment):
            raise ValueError(
                f"trace has {n_ranks} ranks but deployment covers only "
                f"{len(self.deployment)}"
            )
        contexts = [_RankContext(rank, self.deployment[rank])
                    for rank in range(n_ranks)]
        finish = [0.0] * n_ranks
        # Fresh output per call: a second replay() on the same instance
        # must not return the first run's tuples.
        self.timed_trace = []
        # Per-replay counters: the engine's and the comm layer's count
        # every replay, the replay layer's only a metered one.
        self.engine.metrics.reset()
        self.comms.metrics.reset()
        telemetry = self.telemetry
        replay_metrics = telemetry.replay if telemetry is not None else None
        if telemetry is not None:
            replay_metrics.reset(n_ranks)
            if programs is not None:
                replay_metrics.ops_compiled = sum(p.n_ops for p in programs)
                replay_metrics.computes_fused = sum(
                    p.n_src - p.n_ops for p in programs)
        # Phase batching only exists on fault-free replays and only when
        # the batched graph is provably the exact protocol (see
        # batch_eligible).  Ineligible replays silently walk the per-rank
        # schedules — same results, fewer assumptions.
        batcher = None
        if (self.batch_phases and plan is None
                and batch_eligible(self, n_ranks)):
            batcher = CollectiveBatcher(
                self.engine, self.comms.transfer_params, self.deployment,
                self.comms.eager_threshold,
            )

        # The hook references this replayer, which holds the engine: the
        # finally below unhooks it, so the pair dies by reference
        # counting once the caller drops it.
        engine = self.engine
        engine.deadlock_hook = lambda blocked: self._deadlock_report(
            contexts, blocked
        )
        wall_start = time.perf_counter()
        ranks = [(f"p{ctx.rank}",
                  self._rank_process(ctx, feed, finish, replay_metrics,
                                     batcher))
                 for ctx, feed in zip(contexts, feeds)]
        report = None
        try:
            if plan is None:
                for name, generator in ranks:
                    engine.add_process(name, generator)
                simulated = engine.run()
            else:
                simulated, report = run_with_faults(
                    engine, self.comms, plan, ranks, finish, events=events,
                    metrics=telemetry.faults if telemetry is not None
                    else None,
                    rank_state=lambda rank: contexts[rank].state())
        finally:
            engine.deadlock_hook = None
        wall = time.perf_counter() - wall_start
        if telemetry is not None and batcher is not None:
            replay_metrics.phase_advances = batcher.phase_advances
        return ReplayResult(
            simulated_time=simulated,
            per_rank_time=finish,
            n_ranks=n_ranks,
            n_actions=sum(c.n_actions for c in contexts),
            wall_seconds=wall,
            timed_trace=self.timed_trace,
            metrics=telemetry.as_dict() if telemetry is not None else None,
            fault_report=report,
        )

    # ------------------------------------------------------------------
    # The rank loop and its feeds
    # ------------------------------------------------------------------
    def _compiled_programs(self, source, plan: Optional[FaultPlan]):
        """Every rank's whole :class:`~.compile.CompiledProgram`, fused
        where that is exact."""
        programs, report = compile_source(source)
        self.last_compile_report = report
        # Fusion gate.  Collapsing a compute run into one exec is exact
        # only when per-flop inflation is volume-independent (no
        # efficiency model on any replay host) and nothing needs
        # per-action granularity: fault runs count per-action progress
        # for the report's provenance walk, and a timed trace holds one
        # record per source action, so both run unfused.
        if plan is None and not self.record_timed_trace and all(
            host.efficiency_model is None
            for host in self.deployment[:len(programs)]
        ):
            programs = [fuse_computes(prog) for prog in programs]
        return programs

    def _rank_process(self, ctx: _RankContext, feed, finish,
                      replay_metrics, batcher: Optional[CollectiveBatcher]):
        """One rank's replay over its feed of ``((op, arg, vol, vol2,
        splits), nsrc)`` pairs, ``nsrc`` being the number of source
        actions a (fused) record stands for.

        The hot loop is a frequency-ordered if/elif over opcode ints: no
        string tokenization, no dict dispatch, no per-action token list,
        and no sub-generator delegation — a collective's schedule rows
        (:func:`repro.smpi.collectives.schedule`) are walked inline, so
        ``ctx.current`` names the source action throughout.
        """
        engine = self.engine
        comms = self.comms
        host = ctx.host
        cpu = host.cpu
        speed = host.speed
        work = host.work_inflation
        pending = ctx.pending_irecvs
        sends = deque()     # a collective's posted, not yet waited ISENDs
        algorithm = self.collective_algorithm
        rank = ctx.rank
        metered = replay_metrics is not None
        record = self.record_timed_trace
        timed_trace = self.timed_trace
        track = metered or record
        if metered:
            new_cell = replay_metrics.new_cell
            cells: List = [None] * len(NAME_OF_OPCODE)
        # The clock never advances between the end of one action and the
        # start of the next within a rank (this generator only yields
        # inside actions), so one clock read per action covers both.
        start = engine.now
        for rec, ns in feed:
            op, a, v, v2, splits = rec
            ctx.current = rec
            volume = None
            if op == OP_COMPUTE:
                volume = v
                if v > 0.0:
                    yield engine.exec_activity(
                        cpu, v * work("compute", v), bound=speed)
            elif op == OP_ISEND:
                volume = v
                comms.isend(rank, a, v)
            elif op == OP_IRECV:
                volume = v
                pending.append(comms.irecv(rank, src=a))
            elif op == OP_WAIT:
                if not pending:
                    raise ValueError(
                        f"p{rank}: 'wait' with no pending Irecv (trace "
                        "is inconsistent)"
                    )
                yield pending.popleft()
            elif op == OP_SEND:
                volume = v
                yield comms.isend(rank, a, v)
            elif op == OP_RECV:
                req = comms.irecv(rank, src=a)
                yield req
                volume = req.size
            elif op == OP_COMM_SIZE:
                self._declare_comm_size(ctx, a)
            else:
                # A collective: its schedule's point-to-point rows, walked
                # here under the collective's own tag.
                name = NAME_OF_OPCODE[op]
                size = ctx.declared_size
                if size is None:
                    raise ValueError(
                        f"p{rank}: {name} before comm_size — the trace "
                        "format requires comm_size ahead of any "
                        "collective (§3)")
                ctx.coll_seq += 1
                if op != OP_BARRIER:
                    volume = v
                if batcher is not None and (op == OP_ALLREDUCE
                                            or op == OP_BARRIER):
                    # Phase-batched: one dependency graph replaces the
                    # rows; this rank parks on its exit node.
                    if op == OP_ALLREDUCE:
                        yield batcher.arrive(rank, ctx.coll_seq, name, v,
                                             v2, size)
                    else:
                        yield batcher.arrive(rank, ctx.coll_seq, name,
                                             float(BARRIER_TOKEN_BYTES),
                                             0.0, size)
                    rows = ()
                else:
                    rows = schedule(name, rank, size, v, v2, splits,
                                    algorithm)
                tag = -2 - ctx.coll_seq
                for kind, peer, nbytes, flops in rows:
                    if kind == RECV:
                        yield comms.irecv(rank, peer, tag)
                    elif kind == SEND:
                        yield comms.isend(rank, peer, nbytes, tag)
                    elif kind == ISEND:
                        sends.append(comms.isend(rank, peer, nbytes, tag))
                    elif kind == WAIT:
                        yield sends.popleft()
                    else:  # REDUCE
                        yield comms.irecv(rank, peer, tag)
                        if flops > 0.0:
                            yield engine.exec_activity(
                                cpu, flops * work("reduce_op", flops),
                                bound=speed)
            # Counted once done: a rank killed or blocked inside a
            # record has not completed it.
            ctx.n_actions += ns
            if track:
                end = engine.now
                if metered:
                    cell = cells[op]
                    if cell is None:
                        cell = cells[op] = new_cell(rank, NAME_OF_OPCODE[op])
                    cell[0] += ns
                    if volume is not None:
                        cell[1] = (cell[1] or 0.0) + volume
                    if end is not start:
                        # The clock only ever advances by rebinding
                        # ``now``, so identity == "no time passed".
                        cell[2] += end - start
                if record:
                    timed_trace.append((rank, NAME_OF_OPCODE[op], start, end))
                start = end
        ctx.current = None
        finish[rank] = engine.now

    # ------------------------------------------------------------------
    # Failure diagnostics
    # ------------------------------------------------------------------
    def _deadlock_report(self, contexts, blocked_procs):
        """Engine deadlock hook: name each blocked rank's current action
        and pending Irecvs, then list the unmatched communications by
        (src, dst, tag) — enough to pin an inconsistent trace in one read.
        Returns ``(report text, details dict)`` for :class:`DeadlockError`.
        """
        def fmt_end(rank: int) -> str:
            return "any" if rank < 0 else f"p{rank}"

        def fmt_key(key) -> str:
            src, dst, tag = key
            tag_txt = "any" if tag == -1 else str(tag)
            return f"{fmt_end(src)}->{fmt_end(dst)} tag={tag_txt}"

        blocked_names = {proc.name for proc in blocked_procs}
        lines = ["replay deadlock diagnostics:"]
        rank_details = {}
        for ctx in contexts:
            if f"p{ctx.rank}" not in blocked_names:
                continue
            tokens = ctx.action_tokens()
            action = (" ".join(tokens) if tokens
                      else "<before first action>")
            pending = [
                f"{fmt_end(req.src)} tag="
                f"{'any' if req.tag == -1 else req.tag}"
                for req in ctx.pending_irecvs
            ]
            line = f"  p{ctx.rank}: blocked in {action!r}"
            if pending:
                line += f"; pending Irecv from: {', '.join(pending)}"
            lines.append(line)
            rank_details[ctx.rank] = {
                "action": action,
                "pending_irecvs": pending,
            }
        unmatched = self.comms.unmatched_counts(by_key=True)
        unmatched_str = {
            side: {fmt_key(key): count for key, count in keyed.items()}
            for side, keyed in unmatched.items()
        }
        for side, label in (("sends", "send posted, no matching recv"),
                            ("recvs", "recv posted, no matching send")):
            for text, count in sorted(unmatched_str[side].items()):
                lines.append(f"  {label}: {text} x{count}")
        return "\n".join(lines), {
            "ranks": rank_details,
            "unmatched": unmatched_str,
        }

    # ------------------------------------------------------------------
    # Communicators
    # ------------------------------------------------------------------
    def _declare_comm_size(self, ctx: _RankContext, size: int) -> None:
        if size != self.comms.size and size > len(self.deployment):
            raise ValueError(
                f"p{ctx.rank}: comm_size {size} exceeds the deployment "
                f"({len(self.deployment)} hosts)"
            )
        ctx.declared_size = size
