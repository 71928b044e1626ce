"""Tests for the binary time-independent trace format (§7 future work)."""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.actions import (
    ACTION_NAMES, AllReduce, Barrier, Bcast, CommSize, Compute, Irecv,
    Isend, Recv, Reduce, Send, Wait, format_action,
)
from repro.core.binfmt import (
    binary_trace_file_name,
    decode_actions,
    encode_actions,
    read_binary_trace,
    write_binary_trace,
)


ALL_KINDS = [
    Compute(3, 27648000), Send(3, 4, 520), Isend(3, 2, 163840),
    Recv(3, 1, 520), Irecv(3, 5, 1040), Bcast(3, 40),
    Reduce(3, 40, 10), AllReduce(3, 40, 10), Barrier(3), CommSize(3, 64),
    Wait(3),
]


def test_roundtrip_every_action_kind(tmp_path):
    path = str(tmp_path / binary_trace_file_name(3))
    n_actions, nbytes = write_binary_trace(ALL_KINDS, 3, path)
    assert n_actions == len(ALL_KINDS)
    assert nbytes == os.path.getsize(path)
    assert list(read_binary_trace(path)) == ALL_KINDS


def test_float_volumes_roundtrip_exactly():
    weird = [Compute(0, 1234.5678), Send(0, 1, 0.25),
             Reduce(0, 40.5, 10.125), Bcast(0, 3.14159)]
    decoded = list(decode_actions(encode_actions(weird), 0))
    assert decoded == weird


def test_binary_is_much_smaller_than_text():
    actions = []
    for i in range(1000):
        actions.append(Compute(12, 27648000 + i))
        actions.append(Send(12, 13, 520))
        actions.append(Recv(12, 11, 520))
    text_bytes = sum(len(format_action(a)) + 1 for a in actions)
    binary_bytes = len(encode_actions(actions))
    assert binary_bytes < text_bytes / 3  # the paper hoped for "reduction"


def test_corrupt_input_rejected(tmp_path):
    path = str(tmp_path / "x.btrace")
    with open(path, "wb") as handle:
        handle.write(b"garbage!")
    with pytest.raises(ValueError):
        list(read_binary_trace(path))
    # Unknown opcode.
    with pytest.raises(ValueError):
        list(decode_actions(bytes([0x7F]), 0))
    # Truncated varint.
    with pytest.raises(ValueError):
        list(decode_actions(bytes([0x01, 0x80]), 0))
    # Truncated float.
    with pytest.raises(ValueError):
        list(decode_actions(bytes([0x81, 0x01, 0x02]), 0))


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(list(ACTION_NAMES)),
    rank=st.integers(min_value=0, max_value=2 ** 20 - 1),
    peer=st.integers(min_value=0, max_value=2 ** 20 - 1),
    volume=st.one_of(
        st.integers(min_value=0, max_value=2 ** 60).map(float),
        st.floats(min_value=0, max_value=1e300, allow_nan=False),
    ),
)
def test_property_roundtrip(kind, rank, peer, volume):
    cls = ACTION_NAMES[kind]
    if kind == "compute":
        action = Compute(rank, volume)
    elif kind in ("send", "Isend", "recv", "Irecv"):
        action = cls(rank, peer, volume)
    elif kind == "bcast":
        action = Bcast(rank, volume)
    elif kind in ("reduce", "allReduce", "reduceScatter"):
        action = cls(rank, volume, volume / 3 if volume else 0.0)
    elif kind in ("bcast", "allToAll", "allGather"):
        action = cls(rank, volume)
    elif kind == "allToAllv":
        n_peers = peer % 4 + 2
        splits = [volume] + [0.0] * (n_peers - 1)
        action = cls(rank, volume, splits)
    elif kind == "comm_size":
        action = CommSize(rank, peer + 1)
    else:
        action = cls(rank)
    (decoded,) = decode_actions(encode_actions([action]), rank)
    assert decoded == action


def test_chunked_reader_splits_records_across_boundaries(tmp_path):
    """Decoding must survive a record straddling any chunk boundary —
    exercised by reading with a pathologically tiny chunk, so every
    multi-byte record (varints, 8/16-byte float payloads) gets split."""
    actions = ALL_KINDS + [
        Compute(3, 1234.5678), Send(3, 9, 0.25), Reduce(3, 40.5, 10.125),
        Compute(3, 2 ** 62), Isend(3, 127, 2 ** 40 + 1),
    ]
    path = str(tmp_path / binary_trace_file_name(3))
    write_binary_trace(actions, 3, path)
    for chunk_size in (1, 3, 7, 16):
        assert list(read_binary_trace(path, chunk_size=chunk_size)) == actions


def test_chunked_reader_is_lazy(tmp_path):
    """The reader must not slurp the payload: after pulling one action
    from a large trace, the file cursor sits at most one chunk in."""
    actions = [Compute(0, i) for i in range(50_000)]
    path = str(tmp_path / binary_trace_file_name(0))
    _, nbytes = write_binary_trace(actions, 0, path)
    stream = read_binary_trace(path)
    first = next(stream)
    assert first == actions[0]
    frame = stream.gi_frame
    handle = frame.f_locals["handle"]
    assert handle.tell() <= frame.f_locals["chunk_size"] + 16 < nbytes
    stream.close()


def test_truncated_tail_still_rejected(tmp_path):
    """A record cut off at end-of-file must raise, not be silently
    dropped by the refill-and-retry loop."""
    path = str(tmp_path / binary_trace_file_name(0))
    write_binary_trace([Send(0, 1, 520), Send(0, 2, 520)], 0, path)
    with open(path, "rb") as handle:
        blob = handle.read()
    with open(path, "wb") as handle:
        handle.write(blob[:-1])
    with pytest.raises(ValueError):
        list(read_binary_trace(path))
