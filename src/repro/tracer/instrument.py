"""The tracer: TAU-like instrumentation of simulated-MPI runs.

A :class:`Tracer` attaches to an :class:`~repro.smpi.runtime.MpiRuntime`
as its ``hooks`` object.  During the run it writes, per rank, a binary
timed trace (``tautrace.<rank>.0.0.trc``) and an event-definition file
(``events.<rank>.edf``) — the exact inputs of the tau2simgrid extractor.

Event stream per MPI call (paper Fig. 3): EnterState, one TriggerValue per
active counter, the message record(s), one TriggerValue per counter,
LeaveState.  By default two counters are active (``GET_TIME_OF_DAY`` and
``PAPI_FP_OPS``), TAU's usual configuration, which is what puts measured
timed-trace sizes in Table 3's ~10x-the-TI-trace regime.

Instrumented application functions (the SSOR phases of LU) appear as
``TAU_USER``-group EntryExit events, exactly like TAU's selective
instrumentation of ``ssor(itmax)`` shown in §4.1 — and the extractor must
skip them, which exercises the .edf group metadata.

Each enter/leave burst of an MPI call or an application function
charges ``per_record_overhead`` seconds of CPU per record it writes on
the traced rank; that is the "tracing overhead" component of Fig. 7.
Message records, collective-volume triggers and the bursts of
``MPI_Isend`` / ``MPI_Irecv`` charge none.  Records are stamped at the
rank's clock (``MpiRuntime.clock``), which counts the overhead the rank
owes but has not yet run on its CPU.

With ``directory=None`` the tracer counts records without writing — the
size-accounting mode used for paper-scale rows of Table 3.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set

from .edf import EventDef, write_edf
from .events import (
    ENTRY,
    EV_RECV_MESSAGE,
    EV_SEND_MESSAGE,
    EXIT,
    KIND_ENTRY_EXIT,
    KIND_TRIGGER,
    pack_message,
)
from .tracefile import (
    HEADER_BYTES,
    RECORD_BYTES,
    TraceFileWriter,
    edf_file_name,
    records_struct,
    trc_file_name,
)

__all__ = ["Tracer", "TauArchive", "DEFAULT_COUNTERS",
           "DEFAULT_PER_RECORD_OVERHEAD"]

DEFAULT_COUNTERS = ("GET_TIME_OF_DAY", "PAPI_FP_OPS")

#: CPU seconds charged per trace record written (TAU's per-event cost is
#: of the order of a microsecond on the paper's Opterons).
DEFAULT_PER_RECORD_OVERHEAD = 1.5e-6

# Well-known trigger events beyond the counters.
_EV_MSG_SIZE_SENT = 50000
_EV_COLL_COMM = 50001      # collective communication volume (bytes)
_EV_COLL_COMP = 50002      # collective computation volume (flops)
_COUNTER_ID_BASE = 1       # counters get ids 1, 2, ...
_FUNCTION_ID_BASE = 100    # traced functions get ids from here


class _CountingSink:
    """Record sink that only counts (size-accounting mode)."""

    __slots__ = ("n_records",)

    def __init__(self) -> None:
        self.n_records = 0

    def write(self, event_id: int, nid: int, tid: int, param: int,
              time_us: float) -> None:
        self.n_records += 1

    def write_packed(self, records: bytes, n: int) -> None:
        self.n_records += n

    def close(self) -> None:
        pass

    @property
    def n_bytes(self) -> int:
        return HEADER_BYTES + RECORD_BYTES * self.n_records


@dataclass
class TauArchive:
    """What an instrumented run leaves behind."""

    directory: Optional[str]            # None in size-accounting mode
    n_ranks: int
    records_per_rank: List[int]
    bytes_per_rank: List[int]

    @property
    def n_records(self) -> int:
        return sum(self.records_per_rank)

    @property
    def n_bytes(self) -> int:
        return sum(self.bytes_per_rank)

    @property
    def mib(self) -> float:
        return self.n_bytes / (1024.0 * 1024.0)

    def trc_path(self, rank: int) -> str:
        if self.directory is None:
            raise ValueError("size-accounting archive has no files")
        return os.path.join(self.directory, trc_file_name(rank))

    def edf_path(self, rank: int) -> str:
        if self.directory is None:
            raise ValueError("size-accounting archive has no files")
        return os.path.join(self.directory, edf_file_name(rank))


class Tracer:
    """TAU-like hooks for :class:`~repro.smpi.runtime.MpiRuntime`."""

    def __init__(
        self,
        directory: Optional[str],
        counters: Sequence[str] = DEFAULT_COUNTERS,
        per_record_overhead: float = DEFAULT_PER_RECORD_OVERHEAD,
        include: Optional[Set[str]] = None,
        exclude: Optional[Set[str]] = None,
    ) -> None:
        if per_record_overhead < 0:
            raise ValueError("per_record_overhead must be >= 0")
        if include is not None and exclude is not None:
            raise ValueError("give include or exclude, not both")
        self.directory = directory
        self.counters = list(counters)
        if "PAPI_FP_OPS" not in self.counters:
            raise ValueError(
                "the PAPI_FP_OPS counter is mandatory: without it the "
                "extractor cannot compute time-independent compute volumes"
            )
        self.per_record_overhead = per_record_overhead
        self.include = include
        self.exclude = exclude
        self.runtime = None
        self.archive: Optional[TauArchive] = None
        self._sinks = []
        self._enabled: List[bool] = []
        self._event_ids: Dict[str, int] = {}
        self._next_function_id = _FUNCTION_ID_BASE
        self._counter_ids = {
            name: _COUNTER_ID_BASE + i for i, name in enumerate(self.counters)
        }
        # With the default counters (ids 1 and 2, in that order) an
        # enter/leave burst packs its three records in one call.
        self._pack_burst = (records_struct(3).pack
                            if tuple(self.counters) == DEFAULT_COUNTERS
                            else None)
        self._records_this_event: int = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def attach(self, runtime) -> None:
        if self.runtime is not None or self.archive is not None:
            raise RuntimeError("a Tracer is single-use; create one per run")
        self.runtime = runtime
        n = runtime.size
        self._enabled = [True] * n
        if self.directory is not None:
            os.makedirs(self.directory, exist_ok=True)
            self._sinks = [
                TraceFileWriter(os.path.join(self.directory, trc_file_name(r)))
                for r in range(n)
            ]
        else:
            self._sinks = [_CountingSink() for _ in range(n)]

    def detach(self) -> TauArchive:
        if self.runtime is None:
            raise RuntimeError("tracer is not attached")
        for sink in self._sinks:
            sink.close()
        n = self.runtime.size
        if self.directory is not None:
            defs = self._event_definitions()
            for rank in range(n):
                write_edf(defs, os.path.join(self.directory,
                                             edf_file_name(rank)))
        self.archive = TauArchive(
            directory=self.directory,
            n_ranks=n,
            records_per_rank=[s.n_records for s in self._sinks],
            bytes_per_rank=[s.n_bytes for s in self._sinks],
        )
        self.runtime = None
        return self.archive

    # ------------------------------------------------------------------
    # Selective instrumentation (TAU_ENABLE/DISABLE_INSTRUMENTATION)
    # ------------------------------------------------------------------
    def set_enabled(self, rank: int, enabled: bool) -> None:
        self._enabled[rank] = enabled

    def _traces(self, rank: int, func: str) -> bool:
        if not self._enabled[rank]:
            return False
        if self.include is not None:
            return func in self.include
        if self.exclude is not None:
            return func not in self.exclude
        return True

    # ------------------------------------------------------------------
    # Hook interface (called by MpiProcess)
    # ------------------------------------------------------------------
    def on_enter(self, rank: int, func: str) -> None:
        if not self._traces(rank, func):
            self._records_this_event = 0
            return
        event_id = self._function_id(func)
        now_us = self.runtime.clock(rank) * 1e6
        sink = self._sinks[rank]
        pack = self._pack_burst
        if pack is not None:
            sink.write_packed(pack(
                event_id, rank, 0, ENTRY, now_us,
                1, rank, 0, int(now_us), now_us,
                2, rank, 0, self.runtime.papi.read(rank), now_us), 3)
        else:
            sink.write(event_id, rank, 0, ENTRY, now_us)
            self._write_counters(rank, now_us)
        self._records_this_event = 1 + len(self.counters)

    def on_leave(self, rank: int, func: str) -> None:
        if not self._traces(rank, func):
            self._records_this_event = 0
            return
        event_id = self._function_id(func)
        now_us = self.runtime.clock(rank) * 1e6
        sink = self._sinks[rank]
        pack = self._pack_burst
        if pack is not None:
            sink.write_packed(pack(
                1, rank, 0, int(now_us), now_us,
                2, rank, 0, self.runtime.papi.read(rank), now_us,
                event_id, rank, 0, EXIT, now_us), 3)
        else:
            self._write_counters(rank, now_us)
            sink.write(event_id, rank, 0, EXIT, now_us)
        self._records_this_event = 1 + len(self.counters)

    def on_send(self, rank: int, dst: int, nbytes: float, tag: int) -> None:
        if not self._enabled[rank]:
            return
        now_us = self.runtime.clock(rank) * 1e6
        sink = self._sinks[rank]
        sink.write(_EV_MSG_SIZE_SENT, rank, 0, int(nbytes), now_us)
        sink.write(EV_SEND_MESSAGE, rank, 0,
                   pack_message(dst, tag & 0xFF, nbytes), now_us)

    def on_recv(self, rank: int, src: int, nbytes: float, tag: int) -> None:
        if not self._enabled[rank]:
            return
        now_us = self.runtime.clock(rank) * 1e6
        self._sinks[rank].write(EV_RECV_MESSAGE, rank, 0,
                                pack_message(src, tag & 0xFF, nbytes), now_us)

    def on_collective(self, rank: int, func: str, vcomm: float,
                      vcomp: float) -> None:
        """Volumes of a collective call, recorded as user-event triggers."""
        if not self._traces(rank, func):
            return
        now_us = self.runtime.clock(rank) * 1e6
        sink = self._sinks[rank]
        sink.write(_EV_COLL_COMM, rank, 0, int(vcomm), now_us)
        sink.write(_EV_COLL_COMP, rank, 0, int(vcomp), now_us)

    def event_overhead(self, rank: int, func: str, phase: str) -> float:
        """CPU seconds the traced rank spends writing this event burst."""
        return self._records_this_event * self.per_record_overhead

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _write_counters(self, rank: int, now_us: float) -> None:
        sink = self._sinks[rank]
        for name in self.counters:
            if name == "PAPI_FP_OPS":
                value = self.runtime.papi.read(rank)
            elif name == "GET_TIME_OF_DAY":
                value = int(now_us)
            else:
                value = 0
            sink.write(self._counter_ids[name], rank, 0, value, now_us)

    def _function_id(self, func: str) -> int:
        event_id = self._event_ids.get(func)
        if event_id is None:
            event_id = self._next_function_id
            self._next_function_id += 1
            self._event_ids[func] = event_id
        return event_id

    def _event_definitions(self) -> List[EventDef]:
        defs = [
            EventDef(eid, "TAUEVENT", 1, name, KIND_TRIGGER)
            for name, eid in self._counter_ids.items()
        ]
        defs += [
            EventDef(_EV_MSG_SIZE_SENT, "TAUEVENT", 1,
                     "Message size sent to all nodes", KIND_TRIGGER),
            EventDef(_EV_COLL_COMM, "TAUEVENT", 1,
                     "Collective communication volume", KIND_TRIGGER),
            EventDef(_EV_COLL_COMP, "TAUEVENT", 1,
                     "Collective computation volume", KIND_TRIGGER),
            EventDef(EV_SEND_MESSAGE, "TAU_MESSAGE", 0,
                     "SendMessage", KIND_TRIGGER),
            EventDef(EV_RECV_MESSAGE, "TAU_MESSAGE", 0,
                     "RecvMessage", KIND_TRIGGER),
        ]
        for func, eid in self._event_ids.items():
            group = "MPI" if func.startswith("MPI_") else "TAU_USER"
            defs.append(
                EventDef(eid, group, 0, f"{func}() ", KIND_ENTRY_EXIT)
            )
        return defs
