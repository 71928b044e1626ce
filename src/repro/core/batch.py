"""Phase-batched collective replay: one dependency graph per collective.

The per-rank schedule walk prices a binomial collective with a
generator resumption per row, two mailbox matches and one request
object per tree edge.  When every rank of the communicator reaches the *same*
synchronizing collective (``allReduce``/``barrier``), none of that
machinery affects the outcome: the flows a binomial reduce+bcast starts,
their start instants and the constraints they cross are fully determined
by the ranks' entry times and the tree plans.  This module builds that
structure directly — a dependency graph of kernel activities wired with
completion callbacks — and parks each rank on a single waitable until
its final protocol step fires.

Exactness is by construction, not approximation: the graph starts the
same :class:`~repro.simkernel.activity.CommActivity`/``ExecActivity``
set at the same simulated instants as the schedule walk would
(§"replay-performance" docs walk the argument), so the fluid model
evolves identically and results agree with the sequential driver to
float rounding.  The flows bypass the mailbox, which is also why the
batched path is restricted to *synchronizing* collectives: their tag
namespace is private per collective, so no FIFO-matching interleaving
with surrounding point-to-point traffic exists to preserve.

Protocol semantics mirrored from :mod:`repro.simkernel.mailbox` and
:mod:`repro.smpi.collectives`:

* eager send (size <= eager threshold): the flow starts at the sender's
  protocol instant and the sender continues immediately (buffered send);
* rendezvous send: the flow starts when both sides have reached the
  edge (max of sender instant and receiver posting instant) and the
  sender continues at arrival;
* a recv completes at max(posting instant, flow arrival);
* reduce receives are sequential per rank, each followed by the
  operator's flop burst; bcast child sends are waited one at a time
  (instantaneous chaining under eager, arrival-chained under
  rendezvous) — exactly the binomial ``reduce`` / ``bcast`` rows of
  :func:`repro.smpi.collectives.schedule` rooted at rank 0.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..simkernel.activity import CommActivity, ExecActivity, Waitable
from ..smpi.collectives import bcast_plan, reduce_plan

__all__ = ["CollectiveBatcher", "batch_eligible"]


def batch_eligible(replayer, n_ranks: int) -> bool:
    """Static gate: can this replay batch its synchronizing collectives?

    The graph reproduces the one-rank-per-host, inflation-free protocol;
    anything else (folded ranks sharing a CPU, efficiency/sharing
    models, flat collectives, fault plans) stays on the schedule walk.
    The gate failing silently disables batching — it never fails a
    replay that the sequential driver would run.
    """
    if replayer.collective_algorithm != "binomial":
        return False
    if replayer.fault_plan is not None:
        return False
    hosts = replayer.deployment[:n_ranks]
    if len({id(h) for h in hosts}) != len(hosts):
        return False
    return all(h.efficiency_model is None and h.sharing_model is None
               for h in hosts)


class _Node(Waitable):
    """A graph node: completes when ``need`` dependencies have fired,
    then runs its action (start a flow, start a flop burst) and notifies
    dependents.  Completion goes through the engine so parked processes
    wake like any other waitable."""

    __slots__ = ("engine", "need", "action")

    def __init__(self, engine, need: int,
                 action: Optional[Callable[[], None]] = None) -> None:
        super().__init__()
        self.engine = engine
        self.need = need
        self.action = action

    def satisfy(self, _source=None) -> None:
        self.need -= 1
        if self.need == 0:
            # Cleared once run: an exit node's action is a method of the
            # graph that lists the node.
            action, self.action = self.action, None
            if action is not None:
                action()
            self.engine.complete_waitable(self)


class _Flow:
    """One directed tree edge's data flow, started lazily by the graph."""

    __slots__ = ("graph", "src", "dst", "nbytes", "eager", "done", "pending")

    def __init__(self, graph: "_CollectiveGraph", src: int, dst: int,
                 nbytes: float) -> None:
        self.graph = graph
        self.src = src
        self.dst = dst
        self.nbytes = nbytes
        self.eager = nbytes <= graph.batcher.eager_threshold
        # Rendezvous only: sides (sender reached, receiver posted) still
        # outstanding before the flow may start.
        self.pending = 2
        # Fires at flow arrival; recv completion and (under rendezvous)
        # the sender's continuation hang off it.
        self.done = _Node(graph.batcher.engine, 1)

    def side_ready(self, _source=None) -> None:
        self.pending -= 1
        if self.pending == 0:
            self.start()

    def start(self, _source=None) -> None:
        batcher = self.graph.batcher
        links, latency, bw_factor = batcher.transfer_params(
            self.src, self.dst, self.nbytes)
        act = CommActivity(
            links, self.nbytes, latency=latency, rate_factor=bw_factor,
            name=f"coll{self.graph.seq}:{self.src}->{self.dst}",
        )
        act.on_complete(self._arrived)
        batcher.engine.start_activity(act)

    def _arrived(self, _act) -> None:
        observer = self.graph.batcher.flow_observer
        if observer is not None:
            observer(self.src, self.dst)
        self.done.satisfy()


class _CollectiveGraph:
    """The batched execution of one collective instance."""

    __slots__ = ("batcher", "seq", "kind", "nbytes", "flops", "size",
                 "entries", "exits", "remaining")

    def __init__(self, batcher: "CollectiveBatcher", seq: int, kind: str,
                 nbytes: float, flops: float, size: int) -> None:
        self.batcher = batcher
        self.seq = seq
        self.kind = kind
        self.nbytes = nbytes
        self.flops = flops
        self.size = size
        self.remaining = size
        engine = batcher.engine
        self.entries: List[_Node] = [_Node(engine, 1) for _ in range(size)]
        self.exits: List[_Node] = []
        self._build()

    def check(self, kind: str, nbytes: float, flops: float,
              size: int) -> None:
        if (kind, nbytes, flops, size) != (self.kind, self.nbytes,
                                           self.flops, self.size):
            raise ValueError(
                f"collective #{self.seq} mismatch across ranks: "
                f"({self.kind}, {self.nbytes}, {self.flops}, "
                f"size={self.size}) vs ({kind}, {nbytes}, {flops}, "
                f"size={size}) — the trace is inconsistent"
            )

    def enter(self, rank: int) -> _Node:
        """Rank ``rank`` reached the collective *now*: release its entry
        node and hand back the exit node it must park on."""
        self.entries[rank].satisfy()
        return self.exits[rank]

    # -- graph construction -------------------------------------------
    def _build(self) -> None:
        engine = self.batcher.engine
        nbytes = self.nbytes
        flops = self.flops
        size = self.size
        # Directed tree edges, one flow each: reduce edges r->parent(r),
        # bcast edges parent(r)->r (the trees mirror, so indexing both
        # by the non-root endpoint covers every edge exactly once).
        redge: Dict[int, _Flow] = {}
        bedge: Dict[int, _Flow] = {}
        plans = []
        for rank in range(size):
            children, parent = reduce_plan(rank, size, 0)
            _, bchildren = bcast_plan(rank, size, 0)
            plans.append((children, parent, bchildren))
            if parent is not None:
                redge[rank] = _Flow(self, rank, parent, nbytes)
                bedge[rank] = _Flow(self, parent, rank, nbytes)
        for rank in range(size):
            children, parent, bchildren = plans[rank]
            cur: _Node = self.entries[rank]
            # Reduce phase: recv each child in order, then the operator.
            for child in children:
                flow = redge[child]
                cur = self._recv_step(cur, flow)
                if flops > 0.0:
                    cur = self._exec_step(cur, rank, flops)
            if parent is not None:
                cur = self._send_step(cur, redge[rank])
                # Bcast phase, non-root: recv the result from the parent.
                cur = self._recv_step(cur, bedge[rank])
            for child in bchildren:
                cur = self._send_step(cur, bedge[child])
            exit_node = _Node(engine, 1, action=self._retire)
            cur.on_complete(exit_node.satisfy)
            self.exits.append(exit_node)

    def _recv_step(self, cur: _Node, flow: _Flow) -> _Node:
        """Post a recv at ``cur``; completes at max(post, arrival)."""
        if not flow.eager:
            # Rendezvous: the flow needs the receiver posted too.
            cur.on_complete(flow.side_ready)
        recv_done = _Node(self.batcher.engine, 2)
        cur.on_complete(recv_done.satisfy)
        flow.done.on_complete(recv_done.satisfy)
        return recv_done

    def _send_step(self, cur: _Node, flow: _Flow) -> _Node:
        """Post isend+wait at ``cur``: eager continues instantly with the
        flow launched in the background; rendezvous continues at
        arrival."""
        if flow.eager:
            cur.on_complete(flow.start)
            return cur
        cur.on_complete(flow.side_ready)
        return flow.done

    def _exec_step(self, cur: _Node, rank: int, flops: float) -> _Node:
        engine = self.batcher.engine
        host = self.batcher.hosts[rank]
        exec_done = _Node(engine, 1)

        def start_exec(_source=None, host=host, exec_done=exec_done):
            amount = flops * host.work_inflation("reduce_op", flops)
            act = ExecActivity(host.cpu, amount, bound=host.speed)
            act.on_complete(exec_done.satisfy)
            engine.start_activity(act)

        cur.on_complete(start_exec)
        return exec_done

    def _retire(self) -> None:
        self.remaining -= 1
        if self.remaining == 0:
            self.batcher._finished(self.seq)


class CollectiveBatcher:
    """Per-replay orchestrator for phase-batched collectives.

    One instance serves a whole replay; collective instances are keyed
    by the per-rank collective sequence number (all ranks of a
    consistent trace execute the same collective sequence — the first
    mismatch raises).  ``phase_advances`` counts retired batched
    collectives; the replayer publishes it through
    :class:`~repro.simkernel.telemetry.ReplayMetrics`.
    """

    def __init__(self, engine, transfer_params, hosts,
                 eager_threshold: float,
                 flow_observer=None) -> None:
        self.engine = engine
        #: ``(src_rank, dst_rank, size) -> (links, latency, rate_factor)``
        #: — the live mailbox's cached params in-process, a shadow-route
        #: resolver on the shard coordinator's throwaway engines.
        self.transfer_params = transfer_params
        self.hosts = hosts
        self.eager_threshold = eager_threshold
        #: Optional ``(src, dst)`` callback fired at each flow arrival;
        #: the shard coordinator records per-rank link-quiet times here.
        self.flow_observer = flow_observer
        self.phase_advances = 0
        self._graphs: Dict[int, _CollectiveGraph] = {}

    def arrive(self, rank: int, seq: int, kind: str, nbytes: float,
               flops: float, size: int) -> Waitable:
        """Rank ``rank`` reached collective ``seq`` at the current
        simulated instant.  Returns the waitable to park on."""
        if kind not in ("allReduce", "barrier"):
            # The batcher's dependency graphs encode exactly the binomial
            # reduce+bcast trees; any other collective (bcast, reduce,
            # allToAll(v), allGather, reduceScatter) must stay on the
            # per-rank schedule walk.  The drivers never route them here —
            # this guard turns a future mis-wiring into a loud error
            # instead of a silently wrong makespan.
            raise ValueError(
                f"phase batching cannot batch {kind!r} — only "
                "allReduce/barrier have batched trees; replay this "
                "collective through its per-rank schedule"
            )
        graph = self._graphs.get(seq)
        if graph is None:
            graph = _CollectiveGraph(self, seq, kind, nbytes, flops, size)
            self._graphs[seq] = graph
        else:
            graph.check(kind, nbytes, flops, size)
        return graph.enter(rank)

    def open_graph(self, seq: int, kind: str, nbytes: float, flops: float,
                   size: int) -> _CollectiveGraph:
        """Coordinator entry point: build (or fetch) a graph without an
        arriving rank; entries are then released by timers."""
        graph = self._graphs.get(seq)
        if graph is None:
            graph = _CollectiveGraph(self, seq, kind, nbytes, flops, size)
            self._graphs[seq] = graph
        return graph

    def _finished(self, seq: int) -> None:
        self.phase_advances += 1
        self._graphs.pop(seq, None)
