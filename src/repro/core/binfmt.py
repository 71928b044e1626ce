"""Binary time-independent trace format (the paper's §7 future work).

The paper closes with "we also aim at exploring techniques to reduce the
size of the traces, e.g., using a binary format".  This module is that
extension: a compact per-process encoding of the Table 1 action set.

Layout: a 16-byte header (magic ``TIBIN001``, version u16, reserved u16,
rank u32), then one record per action, generic over the action table's
shapes (:data:`repro.core.actions.ACTION_TABLE`, docs/trace-format.md):

* one opcode byte — the action type, with the high bit set when a volume
  is not integral;
* the integer field, if the shape has one (peer, communicator size,
  split count), as a LEB128 varint;
* the shape's volumes — all varints when every one is integral (most LU
  volumes fit in 2-4 bytes), all IEEE-754 doubles otherwise (the escape
  hatch).

Typical LU traces shrink ~4x vs the text format before gzip, and the
format round-trips exactly (including float volumes), so the replayer
accepts either representation.
"""

from __future__ import annotations

import struct
from typing import Iterable, Iterator, Optional, Tuple

from .actions import (
    ACTION_TABLE,
    NAME_OF_OPCODE,
    OPCODE_OF,
    OPCODE_SPACE_VERSION,
    SHAPE_LAYOUT,
    Action,
    action_of,
    fields_of,
)

__all__ = [
    "binary_trace_file_name",
    "write_binary_trace",
    "read_binary_trace",
    "encode_actions",
    "decode_actions",
    "OPCODE_OF",
    "NAME_OF_OPCODE",
    "OPCODE_SPACE_VERSION",
]

_MAGIC = b"TIBIN001"
_HEADER = struct.Struct("<8sHHI")  # magic, version, reserved, rank
_VERSION = 1
_FLOAT_FLAG = 0x80

#: Record layout per opcode, from the action table's shapes: (has an
#: integer field, volume count or None for "total + one per split").
_LAYOUT = [None] * len(NAME_OF_OPCODE)
for _row in ACTION_TABLE:
    _LAYOUT[_row.opcode] = SHAPE_LAYOUT[_row.shape]

#: Read and write granularity.  64 KiB holds tens of thousands of
#: records (LU actions average 3-5 bytes), so the codec's working set is
#: a constant regardless of trace size.
_CHUNK_SIZE = 1 << 16

#: Guard against absurd split counts in corrupt allToAllv records: no
#: real communicator approaches this, and each split needs at least one
#: payload byte anyway, so a larger count is corruption by construction.
_MAX_SPLITS = 1 << 22


def binary_trace_file_name(rank: int) -> str:
    return f"SG_process{rank}.btrace"


def _write_varint(out: bytearray, value: int) -> None:
    if value < 0:
        raise ValueError(f"varints are unsigned, got {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


class _Truncated(ValueError):
    """The buffer ends mid-record: the chunked reader refills and
    retries; only at end of file is it an error."""


def _read_varint(buf: bytes, pos: int) -> tuple:
    result = 0
    shift = 0
    while True:
        if pos >= len(buf):
            raise _Truncated("truncated varint")
        byte = buf[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 63:
            raise ValueError("varint overflow")


def _encode_record(out: bytearray, action: Action) -> None:
    op, arg, vol, vol2, splits = fields_of(action)
    has_int, n_vols = _LAYOUT[op]
    vols = (vol, *splits) if n_vols is None else (vol, vol2)[:n_vols]
    integral = all(v == int(v) and 0 <= v < 2 ** 63 for v in vols)
    out.append(op if integral else op | _FLOAT_FLAG)
    if has_int:
        _write_varint(out, arg)
    if integral:
        for v in vols:
            _write_varint(out, int(v))
    else:
        out += struct.pack(f"<{len(vols)}d", *vols)


def encode_actions(actions: Iterable[Action]) -> bytes:
    """Encode one rank's actions (header excluded)."""
    out = bytearray()
    for action in actions:
        _encode_record(out, action)
    return bytes(out)


def _decode_record(buf: bytes, pos: int, rank: int) -> tuple:
    """Decode one record at ``pos``; returns ``(action, new_pos)``.

    Raises :class:`_Truncated` when the buffer ends mid-record — the
    chunked reader catches that, refills, and retries, so a record split
    across read boundaries costs one retry, not a copy of the file.
    """
    byte = buf[pos]
    pos += 1
    op = byte & 0x7F
    layout = _LAYOUT[op] if op < len(_LAYOUT) else None
    if layout is None:
        raise ValueError(f"unknown opcode {op}")
    has_int, n_vols = layout
    arg = 0
    if has_int:
        arg, pos = _read_varint(buf, pos)
    variadic = n_vols is None
    if variadic:
        if arg < 1 or arg > _MAX_SPLITS:
            raise ValueError(
                f"allToAllv record declares {arg} split sizes — "
                "inconsistent binary trace")
        n_vols = arg + 1
    if byte & _FLOAT_FLAG:
        if pos + 8 * n_vols > len(buf):
            raise _Truncated("truncated float volumes")
        vols = struct.unpack_from(f"<{n_vols}d", buf, pos)
        pos += 8 * n_vols
    else:
        vols = []
        for _ in range(n_vols):
            value, pos = _read_varint(buf, pos)
            vols.append(float(value))
    vol = vols[0] if n_vols else 0.0
    vol2 = vols[1] if n_vols == 2 and not variadic else 0.0
    splits = tuple(vols[1:]) if variadic else None
    # The Action constructors enforce the format's contracts (the
    # allToAllv split sum and the int32 peer and size included):
    # ValueError, never a wrong volume.
    return action_of(rank, op, arg, vol, vol2, splits), pos


def decode_actions(buf: bytes, rank: int) -> Iterator[Action]:
    """Decode one rank's action payload."""
    pos = 0
    while pos < len(buf):
        action, pos = _decode_record(buf, pos, rank)
        yield action


def write_binary_trace(actions: Iterable[Action], rank: int,
                       path: str) -> Tuple[int, int]:
    """Write one rank's binary trace, a record at a time; returns
    ``(n_actions, n_bytes)``."""
    n_actions = 0
    n_bytes = _HEADER.size
    out = bytearray()
    with open(path, "wb") as handle:
        handle.write(_HEADER.pack(_MAGIC, _VERSION, 0, rank))
        for n_actions, action in enumerate(actions, 1):
            _encode_record(out, action)
            if len(out) >= _CHUNK_SIZE:
                handle.write(out)
                n_bytes += len(out)
                out.clear()
        handle.write(out)
    return n_actions, n_bytes + len(out)


def read_binary_trace(path: str, expect_rank: Optional[int] = None,
                      chunk_size: int = _CHUNK_SIZE) -> Iterator[Action]:
    """Stream one rank's binary trace back as actions; with
    ``expect_rank``, a header naming another rank is a :class:`ValueError`.

    The file is decoded in ``chunk_size`` slices: peak memory is one
    chunk (plus at most one partial record carried across the boundary),
    never the whole payload — this is what keeps a 1024-rank replay's
    ingestion at O(ranks) resident bytes.
    """
    with open(path, "rb") as handle:
        header = handle.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise ValueError(f"{path}: truncated header")
        magic, version, _, rank = _HEADER.unpack(header)
        if magic != _MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}")
        if version != _VERSION:
            raise ValueError(f"{path}: unsupported version {version}")
        if expect_rank is not None and rank != expect_rank:
            raise ValueError(
                f"{path}: header says p{rank}, expected p{expect_rank}")
        buf = b""
        pos = 0
        base = _HEADER.size     # the file offset of buf[0]
        while True:
            if pos >= len(buf):
                base += len(buf)
                buf = handle.read(chunk_size)
                pos = 0
                if not buf:
                    return
            try:
                action, pos = _decode_record(buf, pos, rank)
            except ValueError as exc:
                # A record split across the chunk boundary: refill and
                # retry.  Only at end of file is the truncation real.
                chunk = (handle.read(chunk_size)
                         if isinstance(exc, _Truncated) else b"")
                if not chunk:
                    raise ValueError(
                        f"{path}: record at byte {base + pos}: {exc}"
                    ) from None
                base += pos
                buf = buf[pos:] + chunk
                pos = 0
                continue
            yield action
