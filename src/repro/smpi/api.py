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
"""

from __future__ import annotations

from collections import deque
from typing import Any, Iterator

from ..simkernel import ANY_SOURCE, ANY_TAG
from ..simkernel.mailbox import CommRequest
from . import collectives

__all__ = ["MpiProcess", "ANY_SOURCE", "ANY_TAG"]

# Tag space reserved for collective rounds; user tags must be >= 0 and
# ANY_TAG is -1, so collective tags grow downward from -2 (the mailbox's
# ANY_TAG matches only tags >= 0, so no user receive takes them).
_COLL_TAG_BASE = -2


class MpiProcess:
    """One MPI rank of a simulated application run."""

    def __init__(self, runtime, rank: int) -> None:
        self.runtime = runtime
        self.rank = rank
        self.host = runtime.rank_hosts[rank]
        self._coll_seq = 0

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
        yield from self._trace_enter("MPI_Comm_size")
        yield from self._trace_leave("MPI_Comm_size")
        return self.runtime.size

    def wtime(self) -> float:
        """MPI_Wtime: current simulated time in seconds."""
        return self.runtime.engine.now

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
        yield from self._trace_enter(kind)
        self.runtime.papi.add(self.rank, flops)
        if flops > 0:
            amount = flops * self.host.work_inflation(kind, flops)
            yield self.runtime.engine.exec_activity(
                self.host.cpu, amount, bound=self.host.speed,
                name=f"p{self.rank}.{kind}",
            )
        yield from self._trace_leave(kind)

    # ------------------------------------------------------------------
    # Point-to-point
    # ------------------------------------------------------------------
    def send(self, dst: int, nbytes: float, tag: int = 0,
             data: Any = None) -> Iterator:
        """Blocking MPI_Send."""
        yield from self._trace_enter("MPI_Send")
        self._hook_send(dst, nbytes, tag)
        req = self.runtime.comms.isend(self.rank, dst, nbytes, tag=tag,
                                       data=data)
        yield req
        yield from self._trace_leave("MPI_Send")

    def recv(self, src: int = ANY_SOURCE, tag: int = ANY_TAG) -> Iterator:
        """Blocking MPI_Recv; returns the completed request (with ``.data``,
        ``.src``, ``.size`` filled in)."""
        yield from self._trace_enter("MPI_Recv")
        req = self.runtime.comms.irecv(self.rank, src=src, tag=tag)
        yield req
        self._hook_recv(req)
        yield from self._trace_leave("MPI_Recv")
        return req

    def isend(self, dst: int, nbytes: float, tag: int = 0,
              data: Any = None) -> CommRequest:
        """Non-blocking MPI_Isend (no yield: posts and returns)."""
        hooks = self.runtime.hooks
        if hooks is not None:
            hooks.on_enter(self.rank, "MPI_Isend")
        self._hook_send(dst, nbytes, tag)
        req = self.runtime.comms.isend(self.rank, dst, nbytes, tag=tag,
                                       data=data)
        if hooks is not None:
            hooks.on_leave(self.rank, "MPI_Isend")
        return req

    def irecv(self, src: int = ANY_SOURCE, tag: int = ANY_TAG) -> CommRequest:
        """Non-blocking MPI_Irecv (no yield: posts and returns)."""
        self._hook_event("MPI_Irecv")
        return self.runtime.comms.irecv(self.rank, src=src, tag=tag)

    def wait(self, req: CommRequest) -> Iterator:
        """MPI_Wait: block until ``req`` completes.  For receives, this is
        where the RecvMessage trace event fires (§4.3: the information
        needed to resolve an Irecv 'generally occurs within MPI_Wait')."""
        yield from self._trace_enter("MPI_Wait")
        yield req
        if req.kind == "recv":
            self._hook_recv(req)
        yield from self._trace_leave("MPI_Wait")
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
        yield from self._trace_enter(func)
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
        yield from self._trace_leave(func)
        return data

    # ------------------------------------------------------------------
    # Tracer plumbing
    # ------------------------------------------------------------------
    def _trace_enter(self, func: str) -> Iterator:
        hooks = self.runtime.hooks
        if hooks is None:
            return
        hooks.on_enter(self.rank, func)
        yield from self._charge_overhead(hooks.event_overhead(self.rank, func, "enter"))

    def _trace_leave(self, func: str) -> Iterator:
        hooks = self.runtime.hooks
        if hooks is None:
            return
        hooks.on_leave(self.rank, func)
        yield from self._charge_overhead(hooks.event_overhead(self.rank, func, "leave"))

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

    def _charge_overhead(self, seconds: float) -> Iterator:
        """Tracing overhead runs on the local CPU (it folds and contends
        like any computation — that is why instrumented folded runs in
        Table 2 stay proportional)."""
        if seconds <= 0:
            return
        flops = seconds * self.host.speed
        yield self.runtime.engine.exec_activity(
            self.host.cpu, flops, bound=self.host.speed,
            name=f"p{self.rank}.tracing",
        )

