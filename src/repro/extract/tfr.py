"""TAU Trace Format Reader (TFR) — callback-based trace access.

Mirrors the API of TAU's TFR library (§4.3): the consumer subclasses
:class:`TfrCallbacks`, overriding the callbacks it cares about, and
:func:`read_trace` drives them from one rank's (trace file, event file)
pair.  Definition callbacks (``def_state``, ``def_user_event``) fire
first, from the .edf metadata; then one callback per trace record; then
``end_trace``.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..tracer.edf import EventDef, read_edf
from ..tracer.events import (
    ENTRY,
    EV_RECV_MESSAGE,
    EV_SEND_MESSAGE,
    KIND_ENTRY_EXIT,
    unpack_message,
)
from ..tracer.tracefile import iter_record_tuples

__all__ = ["TfrCallbacks", "read_trace"]


class TfrCallbacks:
    """Override the callbacks you need; defaults are no-ops.

    Signatures follow the TFR C API loosely: every record callback gets
    ``(nid, tid, time_us, ...)``.
    """

    # --- definition callbacks (from the .edf) -------------------------
    def def_state(self, event_id: int, name: str, group: str) -> None:
        """An EntryExit event was declared (a traced function)."""

    def def_user_event(self, event_id: int, name: str, tag: int) -> None:
        """A TriggerValue event was declared (a counter or user event)."""

    # --- record callbacks ---------------------------------------------
    def enter_state(self, nid: int, tid: int, time_us: float,
                    event_id: int) -> None:
        """A traced function was entered."""

    def leave_state(self, nid: int, tid: int, time_us: float,
                    event_id: int) -> None:
        """A traced function was left."""

    def event_trigger(self, nid: int, tid: int, time_us: float,
                      event_id: int, value: int) -> None:
        """A counter/user event fired with ``value``."""

    def send_message(self, nid: int, tid: int, time_us: float,
                     dst: int, size: int, tag: int, comm: int) -> None:
        """A message left this process."""

    def recv_message(self, nid: int, tid: int, time_us: float,
                     src: int, size: int, tag: int, comm: int) -> None:
        """A message was delivered to this process."""

    def end_trace(self, nid: int, tid: int) -> None:
        """The trace file is exhausted."""


def read_trace(trc_path: str, edf_path: str,
               callbacks: TfrCallbacks) -> int:
    """Drive ``callbacks`` from one rank's trace; returns the record count.

    Unknown event ids raise: a trace/edf mismatch means the gathering step
    shipped inconsistent files, which must not be silently interpreted.
    """
    defs: Dict[int, EventDef] = read_edf(edf_path)
    for event_def in defs.values():
        if event_def.kind == KIND_ENTRY_EXIT:
            callbacks.def_state(event_def.event_id, event_def.name,
                                event_def.group)
        else:
            callbacks.def_user_event(event_def.event_id, event_def.name,
                                     event_def.tag)

    # The per-record loop: raw tuples from the one parser, callbacks
    # and the {event_id: is_state} table bound to locals.
    is_state = {event_id: event_def.kind == KIND_ENTRY_EXIT
                for event_id, event_def in defs.items()}
    enter_state = callbacks.enter_state
    leave_state = callbacks.leave_state
    event_trigger = callbacks.event_trigger
    n_records = 0
    nid: Optional[int] = None
    tid = 0
    for event_id, nid, tid, param, time_us in iter_record_tuples(trc_path):
        n_records += 1
        if event_id == EV_SEND_MESSAGE:
            dst, tag, size = unpack_message(param)
            callbacks.send_message(nid, tid, time_us, dst, size, tag, 0)
            continue
        if event_id == EV_RECV_MESSAGE:
            src, tag, size = unpack_message(param)
            callbacks.recv_message(nid, tid, time_us, src, size, tag, 0)
            continue
        state = is_state.get(event_id)
        if state is None:
            raise ValueError(
                f"{trc_path}: record references event id {event_id} "
                f"not declared in {edf_path}"
            )
        if not state:
            event_trigger(nid, tid, time_us, event_id, param)
        elif param == ENTRY:
            enter_state(nid, tid, time_us, event_id)
        else:
            leave_state(nid, tid, time_us, event_id)
    if nid is not None:
        callbacks.end_trace(nid, tid)
    return n_records
