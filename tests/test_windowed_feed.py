"""The windowed feed of ``compiled="never"``.

Each rank file compiles a :data:`~repro.core.compile.WINDOW_BYTES` window
at a time, through the block tokeniser or, for a window it refuses, the
per-line oracle.  Here the window shrinks to 1-64 bytes, so every file
spans many windows: the windows must concatenate to the oracle's
program, replays must be bit-identical to whole-program replays, errors
must be the oracle's, and no ``.tic`` sidecar is read or written.
"""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import compile as compile_mod
from repro.core.compile import CompiledProgram, compile_windows
from repro.core.synth import write_synthetic_lu_trace
from repro.core.synth_ai import write_synthetic_ai_trace
from repro.core.trace import stream_trace_dir, trace_file_name

from .lattice import (
    AI_PARAMS, MIXED_LINES, replay, source_forms, write_program,
)
from .test_block_compile import (
    HOSTILE_BTRACE, hostile_trees, oracle_outcome, outcome,
    write_hostile_btrace, write_rank_files,
)


def concat(rank, windows):
    """One program out of a rank's windows, aux tables re-addressed."""
    aux, offset = {}, 0
    for window in windows:
        for index, table in (window.aux or {}).items():
            aux[offset + index] = table
        offset += window.n_ops
    return CompiledProgram(rank, *(
        np.concatenate([getattr(w, name) for w in windows]
                       or [np.zeros(0, dtype)])
        for name, dtype in (("ops", np.uint8), ("arg", np.int32),
                            ("vol", np.float64), ("vol2", np.float64))),
        aux=aux or None)


def windows_outcome(directory):
    return outcome(lambda: [concat(rank, list(run)) for rank, run
                            in enumerate(compile_windows(directory))])


# ---------------------------------------------------------------------------
# Sources: (directory, ranks)
# ---------------------------------------------------------------------------
def lu_source(tmp_path, binary=False):
    directory = str(tmp_path / "lu")
    write_synthetic_lu_trace(directory, 4, 1, cls="B", inorm=1, seed=3,
                             jitter=0.01, binary=binary)
    return directory, 4


def chain_source(tmp_path):
    n = 4
    lines_of = {}
    for rank in range(n):
        lines = [f"p{rank} comm_size {n}"]
        for step in range(3):
            if rank > 0:
                lines.append(f"p{rank} recv p{rank - 1} 4096")
            lines += [f"p{rank} compute {1e5 * (1 + (rank * 7 + i) % 5)}"
                      for i in range(12)]
            if rank < n - 1:
                lines.append(f"p{rank} send p{rank + 1} 4096")
        lines.append(f"p{rank} allReduce 64 1000")
        lines_of[rank] = lines
    return write_program(tmp_path / "chain", lines_of), n


def ai_source(family):
    def build(tmp_path):
        directory = str(tmp_path / family)
        write_synthetic_ai_trace(family, directory, 4, 2, seed=11,
                                 **AI_PARAMS[family])
        return directory, 4
    return build


def mixed_form(form):
    return lambda tmp_path: (source_forms(MIXED_LINES, tmp_path)[form], 4)


def no_final_newline_source(tmp_path):
    return write_program(tmp_path / "nonl", MIXED_LINES, end=""), 4


def commented_source(tmp_path):
    lines_of = {rank: [text for line in lines
                       for text in (f"# before {line}", line, "", "   ")]
                for rank, lines in MIXED_LINES.items()}
    return write_program(tmp_path / "comments", lines_of), 4


SOURCES = {
    "lu": lu_source,
    "lu-btrace": lambda tmp_path: lu_source(tmp_path, binary=True),
    "chain": chain_source,
    "dp": ai_source("dp"),
    "pp": ai_source("pp"),
    "moe": ai_source("moe"),
    "gz": mixed_form("gz"),
    "mixed-btrace": mixed_form("btrace"),
    "no-final-newline": no_final_newline_source,
    "comments-and-blanks": commented_source,
}


@pytest.mark.parametrize("window", [1, 13, 64])
@pytest.mark.parametrize("name", sorted(SOURCES))
def test_windowed_replay_is_bit_identical_to_whole_programs(
        tmp_path, monkeypatch, name, window):
    source, n = SOURCES[name](tmp_path)
    # A timed trace keeps the whole programs unfused, op for op.
    whole = replay(source, n, record_timed_trace=True, collect_metrics=True)
    monkeypatch.setattr(compile_mod, "WINDOW_BYTES", window)
    assert len(list(compile_windows(source)[0])) > 1
    windowed = replay(source, n, record_timed_trace=True,
                      collect_metrics=True, compiled="never")
    assert windowed.timed_trace == whole.timed_trace
    assert windowed.simulated_time == whole.simulated_time
    assert windowed.per_rank_time == whole.per_rank_time
    assert windowed.n_actions == whole.n_actions
    for key in ("actions_by_type", "volumes_by_type"):
        assert windowed.metrics["replay"][key] == \
            whole.metrics["replay"][key]
    assert windowed.metrics["replay"]["ops_compiled"] == 0


@pytest.mark.parametrize("bad", [
    b"p0 compute nan", b"p1 compute 5", b"p0 allToAllv 5 1 2",
    b"p0 compute 5\xc3\xa9"])
def test_hostile_line_in_a_late_window_raises_the_oracles_message(
        tmp_path, monkeypatch, bad):
    path = str(tmp_path / trace_file_name(0))
    with open(path, "wb") as handle:
        handle.write(b"".join(b"p0 compute %d\n" % i for i in range(300))
                     + bad + b"\np0 compute 1\n")
    with pytest.raises(ValueError) as oracle:
        compile_mod._compile_rank_file(path, 0)
    monkeypatch.setattr(compile_mod, "WINDOW_BYTES", 64)
    with pytest.raises(ValueError) as windowed:
        replay(str(tmp_path), 1, compiled="never")
    assert type(windowed.value) is type(oracle.value)
    assert str(windowed.value) == str(oracle.value)


@pytest.mark.parametrize("window", [1, 13, 64])
@pytest.mark.parametrize("name", sorted(HOSTILE_BTRACE))
def test_hostile_btrace_names_its_file_and_record_in_any_window(
        tmp_path, monkeypatch, name, window):
    """Windows read a ``.btrace`` a few bytes at a time, so the damaged
    record's offset is counted across many chunk refills."""
    directory = str(tmp_path / "bt")
    path, offset = write_hostile_btrace(directory, name)
    monkeypatch.setattr(compile_mod, "WINDOW_BYTES", window)
    with pytest.raises(ValueError) as windowed:
        replay(directory, 2, compiled="never")
    with pytest.raises(ValueError) as streamed:
        [list(stream) for stream in stream_trace_dir(directory)]
    for excinfo in (windowed, streamed):
        message = str(excinfo.value)
        assert message.startswith(f"{path}: record at byte {offset}: ")
        assert HOSTILE_BTRACE[name][1] in message


def test_never_reads_and_writes_no_sidecar(tmp_path, monkeypatch):
    directory = write_program(tmp_path / "ti", MIXED_LINES)
    merged = str(tmp_path / "merged.trace")
    with open(merged, "w", encoding="ascii") as handle:
        for lines in MIXED_LINES.values():
            handle.write("\n".join(lines) + "\n")
    reference = replay(directory, 4)
    os.unlink(compile_mod.sidecar_path(directory))

    def no_sidecar(*args, **kwargs):
        raise AssertionError("a sidecar was touched")

    monkeypatch.setattr(compile_mod, "_load_tic", no_sidecar)
    monkeypatch.setattr(compile_mod, "_write_tic", no_sidecar)
    monkeypatch.setattr(compile_mod, "WINDOW_BYTES", 16)
    for source in (directory, merged):
        result = replay(source, 4, compiled="never")
        assert result.simulated_time == pytest.approx(
            reference.simulated_time, rel=1e-9)
    assert not [name for _, _, names in os.walk(tmp_path)
                for name in names if name.endswith(".tic")]


@settings(max_examples=200, deadline=None)
@given(files=hostile_trees(), window=st.integers(1, 64))
def test_concatenated_windows_are_the_oracle(files, window):
    saved = compile_mod.WINDOW_BYTES
    compile_mod.WINDOW_BYTES = window
    try:
        with tempfile.TemporaryDirectory() as directory:
            write_rank_files(directory, files)
            assert windows_outcome(directory) == oracle_outcome(directory)
    finally:
        compile_mod.WINDOW_BYTES = saved
