"""MPI-like rank API for simulated applications.

Application code is written per rank as a generator receiving an
:class:`MpiProcess` — the simulated analogue of an MPI library handle:

    def my_app(mpi):
        yield from mpi.compute(1e6)
        if mpi.rank == 0:
            yield from mpi.send(1, 163840)
        else:
            yield from mpi.recv(src=0)

Every call may fire tracer hooks (the TAU instrumentation substrate) and
charges per-event tracing overhead on the local CPU, so instrumented and
uninstrumented runs of the same program differ exactly by the tracing
overhead — the quantity Fig. 7 plots.

A rank *owes* the overhead of its event bursts rather than paying each
one as an activity of its own.  Where the owed time is a pure delay (the
rank has a core to itself and no fault can strike mid-burst), it rides
on the rank's next compute burst, and whatever is still owed is paid as
one ``tracing`` activity before the rank posts or blocks.  The rank's
clock is engine time plus owed time; an ``isend`` / ``irecv`` made while
time is owed waits in a queue and is posted when the payment reaches
the instant it was made at.  Everywhere else each burst is paid right
after it is written.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Iterator, List, Tuple

from ..simkernel import ANY_SOURCE, ANY_TAG
from ..simkernel.mailbox import CommRequest
from . import collectives

__all__ = ["MpiProcess", "ANY_SOURCE", "ANY_TAG"]

# Tag space reserved for collective rounds; user tags must be >= 0 and
# ANY_TAG is -1, so collective tags grow downward from -2 (the mailbox's
# ANY_TAG matches only tags >= 0, so no user receive takes them).
_COLL_TAG_BASE = -2


def _owed_time_is_delay(runtime, host) -> bool:
    """Whether tracing time owed on ``host`` delays its rank and nothing
    else: the rank runs at full speed on a core of its own, so paying
    the time later (within its next burst) lands every event at the same
    instant, and no fault plan can fail or slow the CPU in between."""
    return runtime.fault_plan is None and host.resident_ranks <= host.cores


class MpiProcess:
    """One MPI rank of a simulated application run."""

    def __init__(self, runtime, rank: int) -> None:
        self.runtime = runtime
        self.rank = rank
        self.host = runtime.rank_hosts[rank]
        self._coll_seq = 0
        # Tracing seconds accrued but not yet paid on the CPU, and the
        # requests posted meanwhile, each with the owed time it waits for.
        self.owed = 0.0
        self._queued: List[Tuple[float, CommRequest]] = []
        self._pay_per_burst = (runtime.hooks is not None
                               and not _owed_time_is_delay(runtime,
                                                           self.host))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Like MPI_Comm_size(MPI_COMM_WORLD) but without the traced call;
        use :meth:`comm_size` for the traced variant."""
        return self.runtime.size

    def comm_size(self) -> Iterator:
        """The traced MPI_Comm_size call (appears in TI traces, Table 1)."""
        self._trace_enter("MPI_Comm_size")
        if self._pay_per_burst:
            yield from self._flush()
        self._trace_leave("MPI_Comm_size")
        if self._pay_per_burst:
            yield from self._flush()
        return self.runtime.size

    def wtime(self) -> float:
        """MPI_Wtime: the rank's clock in simulated seconds."""
        return self.runtime.engine.now + self.owed

    # ------------------------------------------------------------------
    # Computation
    # ------------------------------------------------------------------
    def compute(self, flops: float, kind: str = "compute") -> Iterator:
        """A CPU burst of ``flops`` floating-point operations.

        ``kind`` selects the host's efficiency-model entry (ground-truth
        platforms make e.g. wavefront bursts slower per flop than big
        regular loops; calibrated platforms ignore it).
        """
        if flops < 0:
            raise ValueError(f"flops must be >= 0, got {flops}")
        # Instrumented application phases appear as TAU_USER EntryExit
        # events (TAU's semi-automatic instrumentation of ssor/jacld/...),
        # with the PAPI_FP_OPS counter rising between entry and exit.
        self._trace_enter(kind)
        if self._pay_per_burst:
            yield from self._flush()
        self.runtime.papi.add(self.rank, flops)
        if flops > 0:
            host = self.host
            amount = flops * host.work_inflation(kind, flops)
            if self._queued:
                yield from self._post_queued()
            if self.owed:
                # The burst also runs the tracing time still owed.
                amount += self.owed * host.speed
                self.owed = 0.0
            yield self.runtime.engine.exec_activity(
                host.cpu, amount, bound=host.speed,
                name=f"p{self.rank}.{kind}",
            )
        self._trace_leave(kind)
        if self._pay_per_burst:
            yield from self._flush()

    # ------------------------------------------------------------------
    # Point-to-point
    # ------------------------------------------------------------------
    def send(self, dst: int, nbytes: float, tag: int = 0,
             data: Any = None) -> Iterator:
        """Blocking MPI_Send."""
        self._trace_enter("MPI_Send")
        if self.owed:
            yield from self._flush()
        self._hook_send(dst, nbytes, tag)
        req = self.runtime.comms.isend(self.rank, dst, nbytes, tag=tag,
                                       data=data)
        yield req
        self._trace_leave("MPI_Send")
        if self._pay_per_burst:
            yield from self._flush()

    def recv(self, src: int = ANY_SOURCE, tag: int = ANY_TAG) -> Iterator:
        """Blocking MPI_Recv; returns the completed request (with ``.data``,
        ``.src``, ``.size`` filled in)."""
        self._trace_enter("MPI_Recv")
        if self.owed:
            yield from self._flush()
        req = self.runtime.comms.irecv(self.rank, src=src, tag=tag)
        yield req
        self._hook_recv(req)
        self._trace_leave("MPI_Recv")
        if self._pay_per_burst:
            yield from self._flush()
        return req

    def isend(self, dst: int, nbytes: float, tag: int = 0,
              data: Any = None) -> CommRequest:
        """Non-blocking MPI_Isend (no yield: posts and returns)."""
        hooks = self.runtime.hooks
        if hooks is not None:
            hooks.on_enter(self.rank, "MPI_Isend")
        self._hook_send(dst, nbytes, tag)
        req = self._post(CommRequest("send", self.rank, dst, tag, nbytes,
                                     data))
        if hooks is not None:
            hooks.on_leave(self.rank, "MPI_Isend")
        return req

    def irecv(self, src: int = ANY_SOURCE, tag: int = ANY_TAG) -> CommRequest:
        """Non-blocking MPI_Irecv (no yield: posts and returns)."""
        self._hook_event("MPI_Irecv")
        return self._post(CommRequest("recv", src, self.rank, tag, 0.0))

    def wait(self, req: CommRequest) -> Iterator:
        """MPI_Wait: block until ``req`` completes.  For receives, this is
        where the RecvMessage trace event fires (§4.3: the information
        needed to resolve an Irecv 'generally occurs within MPI_Wait')."""
        self._trace_enter("MPI_Wait")
        if self.owed:
            yield from self._flush()
        yield req
        if req.kind == "recv":
            self._hook_recv(req)
        self._trace_leave("MPI_Wait")
        if self._pay_per_burst:
            yield from self._flush()
        return req

    def waitall(self, reqs) -> Iterator:
        """MPI_Waitall over a request list."""
        for req in reqs:
            yield from self.wait(req)

    # ------------------------------------------------------------------
    # Collectives (binomial schedules; rooted at 0 in the trace format)
    # ------------------------------------------------------------------
    def bcast(self, nbytes: float, root: int = 0, data: Any = None) -> Iterator:
        return (yield from self._collective("MPI_Bcast", "bcast", nbytes,
                                            0.0, root, data))

    def reduce(self, nbytes: float, flops: float = 0.0, root: int = 0,
               data: Any = None, op=None) -> Iterator:
        """Returns the folded result at ``root``, ``None`` elsewhere."""
        result = yield from self._collective("MPI_Reduce", "reduce", nbytes,
                                             flops, root, data, op)
        return result if self.rank == root else None

    def allreduce(self, nbytes: float, flops: float = 0.0, data: Any = None,
                  op=None) -> Iterator:
        return (yield from self._collective("MPI_Allreduce", "allReduce",
                                            nbytes, flops, 0, data, op))

    def barrier(self) -> Iterator:
        yield from self._collective("MPI_Barrier", "barrier", 0.0, 0.0, 0)

    def _collective(self, func: str, name: str, nbytes: float, flops: float,
                    root: int, data: Any = None, op=None) -> Iterator:
        """Walk this rank's schedule rows under a fresh collective tag,
        carrying the payload: a ``RECV`` replaces it, a ``REDUCE`` folds
        the received one in with ``op``.

        Only the MPI entry point is traced — TAU instruments the entry
        points, not their internals — so the rows post raw requests, and
        the reduction operator's flops count on the PAPI bank without
        appearing as an application function (the extractor's boundary
        logic already ignores them).
        """
        self._trace_enter(func)
        if self.owed:
            yield from self._flush()
        if name != "barrier":
            self._hook_collective(func, nbytes, flops)
        tag = _COLL_TAG_BASE - self._coll_seq
        self._coll_seq += 1
        rank, host = self.rank, self.host
        comms = self.runtime.comms
        sends = deque()
        for kind, peer, size, fl in collectives.schedule(
                name, rank, self.size, nbytes, flops, root=root):
            if kind == collectives.SEND:
                yield comms.isend(rank, peer, size, tag=tag, data=data)
            elif kind == collectives.ISEND:
                sends.append(comms.isend(rank, peer, size, tag=tag,
                                         data=data))
            elif kind == collectives.WAIT:
                yield sends.popleft()
            elif kind == collectives.RECV:
                req = comms.irecv(rank, src=peer, tag=tag)
                yield req
                data = req.data
            else:  # REDUCE
                req = comms.irecv(rank, src=peer, tag=tag)
                yield req
                if fl:
                    self.runtime.papi.add(rank, fl)
                    yield self.runtime.engine.exec_activity(
                        host.cpu, fl * host.work_inflation("reduce_op", fl),
                        bound=host.speed, name=f"p{rank}.reduce_op")
                if op is not None:
                    data = op(data, req.data)
        self._trace_leave(func)
        if self._pay_per_burst:
            yield from self._flush()
        return data

    # ------------------------------------------------------------------
    # Tracer plumbing
    # ------------------------------------------------------------------
    def _trace_enter(self, func: str) -> None:
        hooks = self.runtime.hooks
        if hooks is not None:
            hooks.on_enter(self.rank, func)
            self.owed += hooks.event_overhead(self.rank, func, "enter")

    def _trace_leave(self, func: str) -> None:
        hooks = self.runtime.hooks
        if hooks is not None:
            hooks.on_leave(self.rank, func)
            self.owed += hooks.event_overhead(self.rank, func, "leave")

    def _hook_event(self, func: str, **kw) -> None:
        """Enter+leave of a call that never blocks (Isend/Irecv posting)."""
        hooks = self.runtime.hooks
        if hooks is None:
            return
        hooks.on_enter(self.rank, func)
        hooks.on_leave(self.rank, func)

    def _hook_collective(self, func: str, vcomm: float, vcomp: float) -> None:
        hooks = self.runtime.hooks
        if hooks is not None:
            hooks.on_collective(self.rank, func, vcomm, vcomp)

    def _hook_send(self, dst: int, nbytes: float, tag: int) -> None:
        hooks = self.runtime.hooks
        if hooks is not None:
            hooks.on_send(self.rank, dst, nbytes, tag)

    def _hook_recv(self, req: CommRequest) -> None:
        hooks = self.runtime.hooks
        if hooks is not None:
            hooks.on_recv(self.rank, req.src, req.size, req.tag)

    def _post(self, req: CommRequest) -> CommRequest:
        """Post ``req`` now, or queue it for the instant the rank's clock
        stands at (see :meth:`_post_queued`)."""
        if self.owed:
            self._queued.append((self.owed, req))
            return req
        return self.runtime.comms.post(req)

    def _post_queued(self) -> Iterator:
        """Pay owed time up to each queued request's instant and post it
        there; the time owed after the last one stays owed."""
        paid = 0.0
        for due, req in self._queued:
            if due > paid:
                yield self._tracing(due - paid)
                paid = due
            self.runtime.comms.post(req)
        self._queued.clear()
        self.owed -= paid

    def _flush(self) -> Iterator:
        """Pay everything owed: due before the rank posts or blocks, at
        its end, and after every burst where owed time is not a delay."""
        if self._queued:
            yield from self._post_queued()
        if self.owed:
            owed, self.owed = self.owed, 0.0
            yield self._tracing(owed)

    def _tracing(self, seconds: float):
        """Tracing overhead runs on the local CPU (it folds and contends
        like any computation — that is why instrumented folded runs in
        Table 2 stay proportional)."""
        return self.runtime.engine.exec_activity(
            self.host.cpu, seconds * self.host.speed, bound=self.host.speed,
            name=f"p{self.rank}.tracing",
        )
