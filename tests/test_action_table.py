"""The action table is the format's contract.

``repro.core.actions.ACTION_TABLE`` is the one place an action's keyword,
opcode and shape are written down; the text, ``.btrace`` and ``.tic``
encodings, the compiler and the replay loop all read it.  These
tests pin that: every row round-trips through every encoding, the
on-disk bytes cannot drift, and one strict input contract holds for
every reader.  (Every row replays alike on every path:
tests/test_differential.py's ``every-keyword`` member.)
"""

import hashlib
import math
import os
import random
import shutil

import pytest

from repro.core.actions import (
    ACTION_NAMES,
    ACTION_TABLE,
    NONE,
    PEER_VOL,
    SIZE,
    TOTAL_SPLITS,
    VOL,
    VOL_VOL2,
    AllToAllv,
    Barrier,
    CommSize,
    Compute,
    Reduce,
    Send,
    action_of,
    decode_tokens,
    encode_tokens,
    fields_of,
    format_action,
    parse_action,
)
from repro.core.binfmt import (
    binary_trace_file_name,
    decode_actions,
    encode_actions,
    read_binary_trace,
    write_binary_trace,
)
from repro.core.compile import compile_source, op_tokens
from repro.core.trace import (
    InMemoryTrace,
    read_merged_trace,
    stream_trace_dir,
    trace_file_name,
)

from .lattice import DATA, replay, write_program


# ---------------------------------------------------------------------------
# One case per table row: every encoding round-trips
# ---------------------------------------------------------------------------
def sample_fields(row, integral):
    v, w = (163840.0, 10.0) if integral else (1234.5678, 0.125)
    return {
        NONE: (row.opcode, 0, 0.0, 0.0, None),
        VOL: (row.opcode, 0, v, 0.0, None),
        PEER_VOL: (row.opcode, 7, v, 0.0, None),
        VOL_VOL2: (row.opcode, 0, v, w, None),
        SIZE: (row.opcode, 64, 0.0, 0.0, None),
        TOTAL_SPLITS: (row.opcode, 2, v + w, 0.0, (v, w)),
    }[row.shape]


ROW_CASES = [pytest.param(row, integral,
                          id=f"{row.keyword}-{'int' if integral else 'float'}")
             for row in ACTION_TABLE for integral in (True, False)]


def test_table_rows_are_consistent():
    assert [row.opcode for row in ACTION_TABLE] == list(range(1, 16))
    for row in ACTION_TABLE:
        assert ACTION_NAMES[row.keyword] is row.cls
        assert row.cls.name == row.keyword


@pytest.mark.parametrize("row,integral", ROW_CASES)
def test_row_tokens_fields_tokens_is_identity(row, integral):
    fields = sample_fields(row, integral)
    tokens = encode_tokens(3, *fields)
    assert tokens[:2] == ["p3", row.keyword]
    assert decode_tokens(tokens) == fields
    assert encode_tokens(3, *decode_tokens(tokens)) == tokens
    action = action_of(3, *fields)
    assert type(action) is row.cls
    assert fields_of(action) == fields
    assert parse_action(format_action(action)) == action
    assert [f"p{action.rank}", action.name] + action.args() == tokens


@pytest.mark.parametrize("row,integral", ROW_CASES)
def test_row_roundtrips_through_btrace(row, integral, tmp_path):
    action = action_of(3, *sample_fields(row, integral))
    assert list(decode_actions(encode_actions([action]), 3)) == [action]
    path = str(tmp_path / binary_trace_file_name(3))
    write_binary_trace([action], 3, path)
    assert list(read_binary_trace(path, expect_rank=3)) == [action]


@pytest.mark.parametrize("row,integral", ROW_CASES)
def test_row_roundtrips_through_compiled_program(row, integral):
    action = action_of(0, *sample_fields(row, integral))
    trace = InMemoryTrace()
    trace.emit(action)
    (program,), _ = compile_source(trace)
    assert " ".join(op_tokens(program, 0)) == format_action(action)


# ---------------------------------------------------------------------------
# On-disk compatibility with the commit before the table existed
# ---------------------------------------------------------------------------
#: ``encode_actions([action]).hex()`` as printed by the parent commit.
HEX_PINS = [
    (Barrier(0), "09"),
    (Compute(0, 27648000), "0180c0970d"),
    (Compute(0, 0.25), "81000000000000d03f"),
    (Send(0, 300, 163840), "02ac0280800a"),
    (Send(0, 300, 0.5), "82ac02000000000000e03f"),
    (Reduce(0, 40, 10), "07280a"),
    (Reduce(0, 40.5, 10), "8700000000004044400000000000002440"),
    (CommSize(0, 64), "0a40"),
    (AllToAllv(0, 300, (100, 200)), "0f02ac0264c801"),
    (AllToAllv(0, 1.0, (0.25, 0.75)),
     "8f02000000000000f03f000000000000d03f000000000000e83f"),
]


@pytest.mark.parametrize("action,expected", HEX_PINS,
                         ids=[format_action(a) for a, _ in HEX_PINS])
def test_btrace_record_bytes_are_pinned(action, expected):
    assert encode_actions([action]).hex() == expected


def seeded_actions(seed, n):
    rng = random.Random(seed)
    names = sorted(ACTION_NAMES)

    def volume():
        if rng.random() < 0.7:
            return float(rng.randrange(0, 2 ** rng.randrange(1, 62)))
        return rng.random() * 10.0 ** rng.randrange(-3, 12)

    out = []
    for _ in range(n):
        name = rng.choice(names)
        cls = ACTION_NAMES[name]
        rank = rng.randrange(0, 4096)
        if name in ("send", "Isend", "recv", "Irecv"):
            out.append(cls(rank, rng.randrange(0, 4096), volume()))
        elif name in ("compute", "bcast", "allToAll", "allGather"):
            out.append(cls(rank, volume()))
        elif name in ("reduce", "allReduce", "reduceScatter"):
            out.append(cls(rank, volume(), volume()))
        elif name == "allToAllv":
            splits = [volume() for _ in range(rng.randrange(1, 9))]
            if rng.random() < 0.5:
                splits = [float(int(s)) for s in splits]
            out.append(cls(rank, math.fsum(splits), splits))
        elif name == "comm_size":
            out.append(cls(rank, rng.randrange(1, 1 << 20)))
        else:
            out.append(cls(rank))
    return out


def test_btrace_bytes_of_10000_seeded_actions_match_the_parent_commit():
    # The digest was computed by this very generator at the parent
    # commit, whose codec was fifteen hand-written branches.
    blob = encode_actions(seeded_actions(24, 10_000))
    assert hashlib.sha256(blob).hexdigest() == (
        "1e8f08cdcb75d03009aacf84953b95c9579f1a75665a37924934910d5e7597c2")


def test_tic_written_by_an_older_layout_is_a_silent_miss(tmp_path):
    # tic_parent holds a per-rank (v2) sidecar.  The directory sidecar
    # replaced that layout: the old file is a miss, never read as a
    # program, and publishing the new sidecar deletes it.
    directory = str(tmp_path / "tic")
    shutil.copytree(os.path.join(DATA, "tic_parent"), directory)
    legacy = os.path.join(directory, trace_file_name(0) + ".tic")
    assert os.path.exists(legacy)
    _, report = compile_source(directory)
    assert (report.cache_hits, report.cache_misses) == (0, 1)
    assert not os.path.exists(legacy)
    assert sorted(os.listdir(directory)) == ["SG_process0.trace",
                                             "programs.tic"]
    (cached,), report = compile_source(directory)
    assert (report.cache_hits, report.cache_misses) == (1, 0)
    (fresh,), _ = compile_source(directory, cache=False)
    assert fresh.n_ops == cached.n_ops == 16
    lines = [" ".join(op_tokens(cached, i)) for i in range(cached.n_ops)]
    assert lines == [" ".join(op_tokens(fresh, i)) for i in range(16)]
    assert lines == [format_action(a)
                     for a in stream_trace_dir(directory)[0]]


# ---------------------------------------------------------------------------
# One input contract: parse_action, the windowed and the whole-program
# feed reject the same lines with the same typed message
# ---------------------------------------------------------------------------
#: (the offending line's tail, lines before it on p0, p1's lines).  The
#: context makes sure nothing but the decoder can reject the line first.
HOSTILE = [
    ("compute nan", [], []),
    ("compute inf", [], []),
    ("compute -5", [], []),
    ("compute 5 6", [], []),
    ("compute abc", [], []),
    ("barrier extra", ["comm_size 2"], ["comm_size 2", "barrier"]),
    ("wait 3", ["Irecv p1 8"], ["send p0 8"]),
    ("Isend p1 nan", [], ["recv p0 1"]),
    ("Isend 11 100", [], ["recv p0 100"]),
    ("Isend x1 100", [], ["recv p0 100"]),
    ("comm_size 0", [], []),
    ("comm_size -1", [], []),
    ("comm_size 2.0", [], []),
    ("bcast -1", ["comm_size 2"], ["comm_size 2", "bcast -1"]),
    ("reduce 5 -1", ["comm_size 2"], ["comm_size 2", "reduce 5 -1"]),
    ("allReduce 5", ["comm_size 2"], ["comm_size 2", "allReduce 5"]),
    ("", [], []),
]


@pytest.mark.parametrize("reader", ["parse_action", "never", "auto"])
@pytest.mark.parametrize("tail,before,other", HOSTILE,
                         ids=[h[0] or "p0-alone" for h in HOSTILE])
def test_hostile_line_is_rejected_with_one_typed_message(tail, before, other,
                                                         reader, tmp_path):
    bad = f"p0 {tail}".strip()
    with pytest.raises(ValueError) as excinfo:
        if reader == "parse_action":
            parse_action(bad)
        else:
            directory = write_program(tmp_path / "bad", {
                0: [f"p0 {line}" for line in before] + [bad],
                1: [f"p1 {line}" for line in other or ["compute 1"]],
            })
            replay(directory, 2, compiled=reader)
    message = str(excinfo.value)
    assert "malformed trace line" in message
    assert repr(bad) in message


# ---------------------------------------------------------------------------
# A peer or communicator size past int32 is refused, never overflowed
# ---------------------------------------------------------------------------
#: Per field: the offending line's tail and its ``.btrace`` record
#: (opcode, then varints), 2**40 where an int32 is expected.
PAST_INT32 = {
    "peer": ("Isend p1099511627776 10",
             b"\x03" + b"\x80" * 5 + b"\x20" + b"\x0a"),
    "comm_size": ("comm_size 1099511627776", b"\x0a" + b"\x80" * 5 + b"\x20"),
}


@pytest.mark.parametrize("mode", ["never", "auto"])
@pytest.mark.parametrize("encoding", ["text", "btrace"])
@pytest.mark.parametrize("field", sorted(PAST_INT32))
def test_field_past_int32_is_a_value_error_naming_its_source(
        field, encoding, mode, tmp_path):
    tail, record = PAST_INT32[field]
    directory = tmp_path / "ti"
    if encoding == "text":
        write_program(directory, {0: ["p0 compute 1", f"p0 {tail}"],
                                  1: ["p1 compute 1"]})
        source = repr(f"p0 {tail}")
    else:
        os.makedirs(directory)
        for rank in range(2):
            write_binary_trace([Compute(rank, 1.0)], rank,
                               str(directory / binary_trace_file_name(rank)))
        source = str(directory / binary_trace_file_name(0))
        with open(source, "ab") as handle:
            handle.write(record)
        source += ": record at byte 18"
    with pytest.raises(ValueError) as excinfo:
        replay(str(directory), 2, compiled=mode)
    assert source in str(excinfo.value)
    assert "2147483647" in str(excinfo.value)


# ---------------------------------------------------------------------------
# The rank a trace file belongs to is checked for every encoding
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("mode", ["never", "auto"])
def test_btrace_whose_header_names_another_rank_is_refused(mode, tmp_path):
    directory = tmp_path / "bin"
    os.makedirs(directory)
    write_binary_trace([Compute(0, 1.0)], 0,
                       str(directory / binary_trace_file_name(0)))
    victim = str(directory / binary_trace_file_name(1))
    write_binary_trace([Compute(7, 1.0)], 7, victim)
    with pytest.raises(ValueError, match="p7") as excinfo:
        replay(str(directory), 2, compiled=mode)
    assert victim in str(excinfo.value)
    assert list(read_binary_trace(victim)) == [Compute(7, 1.0)]
    with pytest.raises(ValueError, match="expected p1"):
        list(read_binary_trace(victim, expect_rank=1))


@pytest.mark.parametrize("reader", ["never", "auto", "read_merged_trace"])
@pytest.mark.parametrize("bad", ["x0 compute 1", "pp compute 1"])
def test_merged_file_with_a_malformed_process_id_is_refused(bad, reader,
                                                            tmp_path):
    path = str(tmp_path / "merged.trace")
    with open(path, "w", encoding="ascii") as handle:
        handle.write(f"p0 compute 1\n{bad}\np1 compute 1\n")
    with pytest.raises(ValueError) as excinfo:
        if reader == "read_merged_trace":
            read_merged_trace(path)
        else:
            replay(path, 2, compiled=reader)
    assert path in str(excinfo.value)
    assert repr(bad) in str(excinfo.value)
