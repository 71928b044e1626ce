"""tau2simgrid: timed TAU traces -> time-independent traces (§4.3).

The extractor implements the TFR callbacks and rebuilds, per rank, the
action list of Table 1:

* **Compute bursts** come from PAPI_FP_OPS counter deltas: the trigger
  following an MPI EnterState ends the burst started at the previous MPI
  LeaveState.  Flops counted *inside* an MPI call (buffer handling) are
  ignored — the network model accounts for them (§4.3).
* **send/Isend/recv** come from the SendMessage/RecvMessage records inside
  the corresponding MPI state.
* **Irecv** needs the *lookup technique* of §4.3: at MPI_Irecv time the
  source and size are unknown; the RecvMessage record appears later,
  inside the matching MPI_Wait.  The extractor emits a placeholder and
  patches the oldest pending one when that record shows up — matching the
  replayer's wait semantics, which completes pending Irecvs oldest-first.
* **wait** is emitted only for MPI_Wait calls that resolved a receive; a
  wait on a send request has no time-independent counterpart (the replayer
  treats Isend as a detached send).
* **Collectives** take their volumes from the user-event triggers the
  tracer writes inside the call; ``comm_size`` uses the world size.

``TAU_USER``-group events (instrumented application functions) carry no
actions of their own — but their counter triggers keep ``last_fp`` fresh,
which is how the trailing compute burst after the last MPI call survives.

With ``collect_timings=True`` the extractor also returns per-burst
``(flops, seconds, end_marker)`` samples — the raw material of the flop-rate
calibration procedure (§5).
"""

from __future__ import annotations

import math
import os
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import Pool
from typing import Deque, Dict, List, Optional, Tuple

from ..core.actions import (
    Action,
    AllGather,
    AllReduce,
    AllToAll,
    Barrier,
    Bcast,
    CommSize,
    Compute,
    Irecv,
    Isend,
    Recv,
    Reduce,
    ReduceScatter,
    Send,
    Wait,
    format_action,
)
from ..core.trace import write_rank_file
from ..tracer.tracefile import edf_file_name, trc_file_name
from .tfr import TfrCallbacks, read_trace

__all__ = ["ExtractionReport", "BurstSample", "extract_rank", "tau2simgrid"]


@dataclass(frozen=True)
class BurstSample:
    """One timed compute burst (calibration input)."""

    rank: int
    flops: float
    seconds: float
    ended_by: str  # name of the MPI call that ended the burst


@dataclass
class ExtractionReport:
    """Outcome of extracting a full TAU archive."""

    n_ranks: int
    n_actions: int
    n_bytes: int           # exact size of the written TI trace files
    wall_seconds: float    # measured extraction time
    per_rank_actions: List[int] = field(default_factory=list)
    per_rank_bytes: List[int] = field(default_factory=list)  # sums to n_bytes
    burst_samples: List[BurstSample] = field(default_factory=list)

    @property
    def mib(self) -> float:
        return self.n_bytes / (1024.0 * 1024.0)


class _RankExtractor(TfrCallbacks):
    """State machine rebuilding one rank's action list."""

    def __init__(self, rank: int, world_size: int,
                 collect_timings: bool = False) -> None:
        self.rank = rank
        self.world_size = world_size
        self.collect_timings = collect_timings
        self.actions: List[Action] = []
        self.samples: List[BurstSample] = []
        # Event-id tables, filled by definition callbacks.
        self._mpi_states: Dict[int, str] = {}
        self._fp_event: Optional[int] = None
        self._coll_comm_event: Optional[int] = None
        self._coll_comp_event: Optional[int] = None
        # Burst tracking.
        self._boundary_fp = 0
        self._boundary_time_us = 0.0
        self._last_fp = 0
        self._await_enter_fp = False
        self._enter_time_us = 0.0
        # Current MPI state and per-call scratch.
        self._in_mpi: Optional[str] = None
        self._pending_irecvs: Deque[int] = deque()  # indices into actions
        self._wait_resolved = False
        self._coll_vcomm = 0.0
        self._coll_vcomp = 0.0

    # --- definitions -----------------------------------------------------
    def def_state(self, event_id: int, name: str, group: str) -> None:
        if group == "MPI":
            self._mpi_states[event_id] = name.split("(")[0].strip()

    def def_user_event(self, event_id: int, name: str, tag: int) -> None:
        if name == "PAPI_FP_OPS":
            self._fp_event = event_id
        elif name == "Collective communication volume":
            self._coll_comm_event = event_id
        elif name == "Collective computation volume":
            self._coll_comp_event = event_id

    # --- records -----------------------------------------------------------
    def enter_state(self, nid: int, tid: int, time_us: float,
                    event_id: int) -> None:
        func = self._mpi_states.get(event_id)
        if func is None:
            return  # instrumented application function: no action
        if self._in_mpi is not None:
            raise ValueError(
                f"p{self.rank}: nested MPI states ({self._in_mpi} then "
                f"{func}) — trace is corrupt"
            )
        self._in_mpi = func
        self._await_enter_fp = True
        self._enter_time_us = time_us

    def event_trigger(self, nid: int, tid: int, time_us: float,
                      event_id: int, value: int) -> None:
        if event_id == self._fp_event:
            if self._await_enter_fp and self._in_mpi is not None:
                burst = value - self._boundary_fp
                if burst > 0:
                    self.actions.append(Compute(self.rank, float(burst)))
                    if self.collect_timings:
                        self.samples.append(BurstSample(
                            rank=self.rank,
                            flops=float(burst),
                            seconds=(self._enter_time_us
                                     - self._boundary_time_us) * 1e-6,
                            ended_by=self._in_mpi,
                        ))
                self._await_enter_fp = False
            self._last_fp = value
        elif event_id == self._coll_comm_event:
            volume = float(value)
            if not math.isfinite(volume) or volume < 0:
                raise ValueError(
                    f"p{self.rank}: collective communication volume "
                    f"trigger carries {value!r} — negative or non-finite "
                    "payloads mean a corrupt trace, not a zero-byte "
                    "collective"
                )
            self._coll_vcomm = volume
        elif event_id == self._coll_comp_event:
            volume = float(value)
            if not math.isfinite(volume) or volume < 0:
                raise ValueError(
                    f"p{self.rank}: collective computation volume "
                    f"trigger carries {value!r} — negative or non-finite "
                    "payloads mean a corrupt trace"
                )
            self._coll_vcomp = volume

    def send_message(self, nid: int, tid: int, time_us: float,
                     dst: int, size: int, tag: int, comm: int) -> None:
        if self._in_mpi == "MPI_Send":
            self.actions.append(Send(self.rank, dst, float(size)))
        elif self._in_mpi == "MPI_Isend":
            self.actions.append(Isend(self.rank, dst, float(size)))
        else:
            raise ValueError(
                f"p{self.rank}: SendMessage inside {self._in_mpi!r}"
            )

    def recv_message(self, nid: int, tid: int, time_us: float,
                     src: int, size: int, tag: int, comm: int) -> None:
        if self._in_mpi == "MPI_Recv":
            self.actions.append(Recv(self.rank, src, float(size)))
        elif self._in_mpi == "MPI_Wait":
            # The lookup technique: resolve the oldest pending Irecv.
            if not self._pending_irecvs:
                raise ValueError(
                    f"p{self.rank}: RecvMessage in MPI_Wait without a "
                    "pending MPI_Irecv"
                )
            index = self._pending_irecvs.popleft()
            self.actions[index] = Irecv(self.rank, src, float(size))
            self._wait_resolved = True
        else:
            raise ValueError(
                f"p{self.rank}: RecvMessage inside {self._in_mpi!r}"
            )

    def leave_state(self, nid: int, tid: int, time_us: float,
                    event_id: int) -> None:
        func = self._mpi_states.get(event_id)
        if func is None:
            return
        if func != self._in_mpi:
            raise ValueError(
                f"p{self.rank}: LeaveState({func}) while in {self._in_mpi!r}"
            )
        rank = self.rank
        if func == "MPI_Irecv":
            # Source and volume unknown until the matching MPI_Wait.
            self._pending_irecvs.append(len(self.actions))
            self.actions.append(Irecv(rank, 0, 0.0))
        elif func == "MPI_Wait":
            if self._wait_resolved:
                self.actions.append(Wait(rank))
                self._wait_resolved = False
        elif func == "MPI_Barrier":
            self.actions.append(Barrier(rank))
        elif func == "MPI_Bcast":
            self.actions.append(Bcast(rank, self._coll_vcomm))
        elif func == "MPI_Reduce":
            self.actions.append(Reduce(rank, self._coll_vcomm,
                                       self._coll_vcomp))
        elif func == "MPI_Allreduce":
            self.actions.append(AllReduce(rank, self._coll_vcomm,
                                          self._coll_vcomp))
        elif func == "MPI_Alltoall":
            self.actions.append(AllToAll(rank, self._coll_vcomm))
        elif func == "MPI_Allgather":
            self.actions.append(AllGather(rank, self._coll_vcomm))
        elif func == "MPI_Reduce_scatter":
            self.actions.append(ReduceScatter(rank, self._coll_vcomm,
                                              self._coll_vcomp))
        elif func == "MPI_Comm_size":
            self.actions.append(CommSize(rank, self.world_size))
        # MPI_Send / MPI_Isend / MPI_Recv appended their action already.
        if func in ("MPI_Barrier", "MPI_Bcast", "MPI_Reduce",
                    "MPI_Allreduce", "MPI_Alltoall", "MPI_Allgather",
                    "MPI_Reduce_scatter"):
            # The tracer writes both volume triggers inside every
            # collective, so the scratch is always fresh by here; reset
            # it anyway so a trace *missing* a trigger yields a zero-byte
            # collective rather than silently reusing the previous
            # call's volumes.
            self._coll_vcomm = 0.0
            self._coll_vcomp = 0.0
        self._boundary_fp = self._last_fp
        self._boundary_time_us = time_us
        self._in_mpi = None

    def end_trace(self, nid: int, tid: int) -> None:
        if self._in_mpi is not None:
            raise ValueError(
                f"p{self.rank}: trace ends inside {self._in_mpi}"
            )
        if self._pending_irecvs:
            raise ValueError(
                f"p{self.rank}: {len(self._pending_irecvs)} MPI_Irecv were "
                "never resolved by an MPI_Wait"
            )
        trailing = self._last_fp - self._boundary_fp
        if trailing > 0:
            self.actions.append(Compute(self.rank, float(trailing)))


def extract_rank(
    trc_path: str,
    edf_path: str,
    rank: int,
    world_size: int,
    out_dir: Optional[str] = None,
    collect_timings: bool = False,
) -> Tuple[int, int, List[BurstSample]]:
    """Extract one rank; optionally write its ``SG_process<rank>.trace``
    into ``out_dir``.

    Returns ``(n_actions, n_bytes, burst_samples)`` where ``n_bytes`` is
    the exact size of the written (or would-be-written) TI trace.
    """
    extractor = _RankExtractor(rank, world_size,
                               collect_timings=collect_timings)
    read_trace(trc_path, edf_path, extractor)
    actions = extractor.actions
    if out_dir is None:
        n_bytes = sum(len(format_action(a)) + 1 for a in actions)
    else:
        n_bytes = write_rank_file(out_dir, rank, actions)[1]
    return len(actions), n_bytes, extractor.samples


def _extract_worker(args) -> Tuple[int, int, int, List[BurstSample]]:
    rank, trc, edf, world, out_dir, collect = args
    n_actions, n_bytes, samples = extract_rank(
        trc, edf, rank, world, out_dir, collect_timings=collect
    )
    return rank, n_actions, n_bytes, samples


def tau2simgrid(
    tau_dir: str,
    n_ranks: int,
    out_dir: Optional[str],
    processes: int = 1,
    collect_timings: bool = False,
) -> ExtractionReport:
    """Extract a full TAU archive into a directory of TI trace files.

    The original tau2simgrid is a parallel C/MPI program that opens all
    trace files at once; ``processes > 1`` mirrors that with a process
    pool.  ``out_dir=None`` runs extraction without writing (size
    accounting only).
    """
    if n_ranks < 1:
        raise ValueError("need at least one rank")
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
    jobs = []
    for rank in range(n_ranks):
        jobs.append((
            rank,
            os.path.join(tau_dir, trc_file_name(rank)),
            os.path.join(tau_dir, edf_file_name(rank)),
            n_ranks,
            out_dir,
            collect_timings,
        ))
    start = time.perf_counter()
    if processes > 1:
        with Pool(processes) as pool:
            results = pool.map(_extract_worker, jobs)
    else:
        results = [_extract_worker(job) for job in jobs]
    wall = time.perf_counter() - start
    results.sort(key=lambda r: r[0])
    report = ExtractionReport(
        n_ranks=n_ranks,
        n_actions=sum(r[1] for r in results),
        n_bytes=sum(r[2] for r in results),
        wall_seconds=wall,
        per_rank_actions=[r[1] for r in results],
        per_rank_bytes=[r[2] for r in results],
    )
    for r in results:
        report.burst_samples.extend(r[3])
    return report
