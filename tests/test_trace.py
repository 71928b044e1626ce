"""Unit tests for trace containers and file I/O: the one rank-file
writer, discovery, and the readers."""

import gzip
import math
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.actions import (
    ACTION_TABLE, MAX_ARG, SHAPE_LAYOUT, Compute, Recv, Send, action_of,
    format_action,
)
from repro.core.compile import compile_source
from repro.core.trace import (
    InMemoryTrace,
    discover_trace_paths,
    estimate_gzip_ratio,
    read_merged_trace,
    read_trace_dir,
    read_trace_file,
    stream_trace_dir,
    trace_file_name,
    write_merged_trace,
    write_rank_file,
)


def ring_actions(n=4):
    out = []
    for rank in range(n):
        out.append(Compute(rank, 1e6))
        out.append(Send(rank, (rank + 1) % n, 1e6))
        out.append(Recv(rank, (rank - 1) % n, 1e6))
    return out


def test_trace_file_naming():
    assert trace_file_name(0) == "SG_process0.trace"
    assert trace_file_name(63) == "SG_process63.trace"


def test_in_memory_trace_accumulates():
    trace = InMemoryTrace()
    for action in ring_actions():
        trace.emit(action)
    assert trace.ranks() == [0, 1, 2, 3]
    assert trace.n_actions() == 12
    assert trace.lines_of(0)[0] == "p0 compute 1000000"


def write_ranks(directory, actions, binary=False):
    """Each rank's share of ``actions`` through the one writer."""
    ranks = sorted({a.rank for a in actions})
    for rank in ranks:
        write_rank_file(directory, rank,
                        [a for a in actions if a.rank == rank], binary)


def test_file_writer_roundtrip(tmp_path):
    actions = ring_actions()
    write_ranks(str(tmp_path), actions)
    loaded = read_trace_dir(str(tmp_path))
    assert loaded.n_actions() == len(actions)
    assert loaded.actions_of(2) == [a for a in actions if a.rank == 2]


def test_compressed_writer_roundtrip(tmp_path):
    for rank in range(4):
        with gzip.open(tmp_path / (trace_file_name(rank) + ".gz"), "wt",
                       encoding="ascii") as handle:
            for action in ring_actions():
                if action.rank == rank:
                    handle.write(format_action(action) + "\n")
    loaded = read_trace_dir(str(tmp_path))
    assert loaded.n_actions() == 12
    assert loaded.actions_of(1) == [a for a in ring_actions() if a.rank == 1]


def test_merged_trace_roundtrip(tmp_path):
    trace = InMemoryTrace()
    for action in ring_actions():
        trace.emit(action)
    path = str(tmp_path / "merged.trace")
    nbytes = write_merged_trace(trace, path)
    assert nbytes == os.path.getsize(path)
    loaded = read_merged_trace(path)
    assert loaded.by_rank == trace.by_rank


def test_read_trace_file_skips_comments_and_blanks(tmp_path):
    path = str(tmp_path / trace_file_name(0))
    with open(path, "w") as handle:
        handle.write("# header comment\n\np0 compute 5\n")
    actions = list(read_trace_file(path))
    assert actions == [Compute(0, 5.0)]


def test_read_trace_file_rank_check(tmp_path):
    path = str(tmp_path / trace_file_name(0))
    with open(path, "w") as handle:
        handle.write("p1 compute 5\n")
    with pytest.raises(ValueError):
        list(read_trace_file(path, expect_rank=0))


def test_read_trace_dir_missing(tmp_path):
    with pytest.raises(FileNotFoundError):
        read_trace_dir(str(tmp_path))


def test_estimate_gzip_ratio_close_to_real():
    # Realistic traces have varying volumes (compression ratio ~10-30,
    # like the paper's ~27 in §6.5), not a single repeated block.
    lines = []
    for i in range(20000):
        rank = i % 64
        lines.append(format_action(Compute(rank, float(1000 + (i * 7919) % 99991))))
        lines.append(format_action(Send(rank, (rank + 1) % 64,
                                        float(40 * (1 + (i * 31) % 50)))))
    blob = ("\n".join(lines) + "\n").encode()
    real_ratio = len(blob) / len(gzip.compress(blob, compresslevel=6))
    est = estimate_gzip_ratio(lines, sample_limit=len(lines))
    assert est == pytest.approx(real_ratio, rel=1e-6)
    # A half sample stays close on realistic traces.
    sampled = estimate_gzip_ratio(lines, sample_limit=len(lines) // 2)
    assert sampled == pytest.approx(real_ratio, rel=0.15)


def test_estimate_gzip_ratio_empty():
    with pytest.raises(ValueError):
        estimate_gzip_ratio([])


#: Volumes of every kind the writers must carry exactly: integral ones
#: (varints in ``.btrace``) and non-integral ones (the doubles escape).
VOLUMES = st.one_of(st.integers(0, 2 ** 64).map(float),
                    st.floats(0, 1e300, allow_subnormal=True))


@st.composite
def shape_actions(draw, rank):
    """One action per row of the action table, in random order, then
    random extra rows: every shape, allToAllv splits included."""
    rows = draw(st.permutations(ACTION_TABLE)) + draw(
        st.lists(st.sampled_from(ACTION_TABLE), max_size=6))
    actions = []
    for row in rows:
        has_int, n_vols = SHAPE_LAYOUT[row.shape]
        if n_vols is None:
            splits = draw(st.lists(VOLUMES.filter(lambda v: v < 1e290),
                                   min_size=1, max_size=5))
            fields = (len(splits), math.fsum(splits), 0.0, splits)
        else:
            arg = draw(st.integers(1, MAX_ARG)) if has_int else 0
            vols = [draw(VOLUMES) for _ in range(n_vols)] + [0.0, 0.0]
            fields = (arg, vols[0], vols[1], None)
        actions.append(action_of(rank, row.opcode, *fields))
    return actions


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_write_rank_file_round_trips_every_action_shape(data):
    """What the one writer writes, text or binary, the streaming reader
    and the compiler read back action for action, and the byte count it
    returns is the file's size."""
    by_rank = [data.draw(shape_actions(rank))
               for rank in range(data.draw(st.integers(1, 3)))]
    for binary in (False, True):
        with tempfile.TemporaryDirectory() as directory:
            for rank, actions in enumerate(by_rank):
                assert write_rank_file(directory, rank, iter(actions),
                                       binary) == (
                    len(actions),
                    os.path.getsize(discover_trace_paths(directory)[rank]))
            assert [list(s) for s in stream_trace_dir(directory)] == by_rank
            programs, _ = compile_source(directory, cache=False)
            assert [[action_of(prog.rank, *record)
                     for record, _ in prog.records()]
                    for prog in programs] == by_rank


def test_discover_trace_paths_mixed_layouts(tmp_path):
    (tmp_path / "SG_process0.trace").write_text("p0 compute 1\n")
    with gzip.open(tmp_path / "SG_process1.trace.gz", "wt") as handle:
        handle.write("p1 compute 1\n")
    write_rank_file(str(tmp_path), 2, [Compute(2, 1)], binary=True)
    paths = discover_trace_paths(str(tmp_path))
    assert [os.path.basename(p) for p in paths] == [
        "SG_process0.trace", "SG_process1.trace.gz", "SG_process2.btrace",
    ]
    # The eager reader sees the same three ranks.
    assert read_trace_dir(str(tmp_path)).by_rank == {
        rank: [Compute(rank, 1)] for rank in range(3)}


def test_stream_trace_dir_matches_eager_reader(tmp_path):
    write_ranks(str(tmp_path), ring_actions(3))
    eager = read_trace_dir(str(tmp_path))
    streams = stream_trace_dir(str(tmp_path))
    assert len(streams) == 3
    for rank, stream in enumerate(streams):
        assert not isinstance(stream, list)  # lazy, not materialized
        assert list(stream) == eager.actions_of(rank)
