"""Binary timed-trace files (``tautrace.<node>.<context>.<thread>.trc``).

Fixed 24-byte records, little-endian, after a 16-byte header:

================ ======= ====================================
field            type    meaning
================ ======= ====================================
event_id         u32     id declared in the rank's .edf file
nid              u16     MPI rank
tid              u16     thread id (0 for single-threaded)
param            i64     +1/-1, counter value, or packed message
time_us          f64     time-stamp in microseconds
================ ======= ====================================

The fixed record size makes the timed-trace sizes of Table 3 an exact
function of the record count, which the acquisition pipeline also exposes
without writing anything (the size-accounting mode).
"""

from __future__ import annotations

import os
import struct
from itertools import starmap
from typing import Iterator, Tuple

from .events import TraceRecord

__all__ = [
    "RECORD_BYTES", "HEADER_BYTES",
    "trc_file_name", "edf_file_name",
    "TraceFileWriter", "iter_record_tuples", "read_records", "record_count",
    "records_struct",
]

_MAGIC = b"TAUTRC01"
_HEADER = struct.Struct("<8sII")   # magic, version, reserved


def records_struct(n: int) -> struct.Struct:
    """The layout of ``n`` consecutive records, packed by one call."""
    return struct.Struct("<" + "IHHqd" * n)


_RECORD = records_struct(1)  # event_id, nid, tid, param, time_us

RECORD_BYTES = _RECORD.size
HEADER_BYTES = _HEADER.size
assert RECORD_BYTES == 24
assert HEADER_BYTES == 16

_VERSION = 1


def trc_file_name(rank: int, context: int = 0, thread: int = 0) -> str:
    """TAU's trace file naming scheme (§4.3)."""
    return f"tautrace.{rank}.{context}.{thread}.trc"


def edf_file_name(rank: int) -> str:
    """TAU's event file naming scheme (§4.3): one per MPI process."""
    return f"events.{rank}.edf"


class TraceFileWriter:
    """Buffered writer of one rank's timed trace."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.n_records = 0
        self._buffer = bytearray()
        self._handle = open(path, "wb")
        self._handle.write(_HEADER.pack(_MAGIC, _VERSION, 0))

    def write(self, event_id: int, nid: int, tid: int, param: int,
              time_us: float) -> None:
        self.write_packed(_RECORD.pack(event_id, nid, tid, param, time_us), 1)

    def write_packed(self, records: bytes, n: int) -> None:
        """Append ``n`` records already packed (see :func:`records_struct`)."""
        self._buffer += records
        self.n_records += n
        if len(self._buffer) >= (1 << 16):
            self._handle.write(self._buffer)
            self._buffer.clear()

    def close(self) -> None:
        if self._handle is not None:
            if self._buffer:
                self._handle.write(self._buffer)
                self._buffer.clear()
            self._handle.close()
            self._handle = None

    @property
    def n_bytes(self) -> int:
        """Exact on-disk size once closed."""
        return HEADER_BYTES + RECORD_BYTES * self.n_records


def iter_record_tuples(
        path: str) -> Iterator[Tuple[int, int, int, int, float]]:
    """Stream a timed trace file as raw ``(event_id, nid, tid, param,
    time_us)`` tuples — the one parser of the format.  Header, version
    and truncation problems raise :class:`ValueError` naming the file."""
    with open(path, "rb") as handle:
        header = handle.read(HEADER_BYTES)
        if len(header) != HEADER_BYTES:
            raise ValueError(f"{path}: truncated header")
        magic, version, _ = _HEADER.unpack(header)
        if magic != _MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}")
        if version != _VERSION:
            raise ValueError(f"{path}: unsupported version {version}")
        while True:
            chunk = handle.read(RECORD_BYTES * 4096)
            if not chunk:
                return
            if len(chunk) % RECORD_BYTES:
                raise ValueError(f"{path}: truncated record at end of file")
            yield from _RECORD.iter_unpack(chunk)


def read_records(path: str) -> Iterator[TraceRecord]:
    """Stream the records of a timed trace file."""
    return starmap(TraceRecord, iter_record_tuples(path))


def record_count(path: str) -> int:
    """Number of records, from the file size alone."""
    size = os.path.getsize(path)
    body = size - HEADER_BYTES
    if body < 0 or body % RECORD_BYTES:
        raise ValueError(f"{path}: size {size} is not header + k*records")
    return body // RECORD_BYTES
