"""Replaying merged files and rank directories: what the replayer
accepts and refuses.  (Every representation of a trace — in memory,
text, gzip, merged, binary — replays alike: tests/test_differential.py.)
"""

import pytest

from repro.core.actions import Compute, Recv, Send
from repro.core.trace import InMemoryTrace, write_rank_file

from .lattice import replay, write_program


def pipeline_trace(n_ranks, rounds):
    trace = InMemoryTrace()
    for rank in range(n_ranks):
        for r in range(rounds):
            trace.emit(Compute(rank, 1e6 * (1 + rank + r)))
            if rank + 1 < n_ranks:
                trace.emit(Send(rank, rank + 1, 1000.0 * (r + 1)))
            if rank > 0:
                trace.emit(Recv(rank, rank - 1, 1000.0 * (r + 1)))
    return trace


@pytest.fixture()
def trace4():
    return pipeline_trace(4, 3)


def test_merged_demux_handles_interleaved_and_commented_lines(trace4, tmp_path):
    """The streaming demux must cope with ranks interleaved line-by-line
    (the layout where it shines) and with comments/blank lines."""
    memory = replay(trace4, 4).simulated_time
    lanes = [list(trace4.lines_of(rank)) for rank in trace4.ranks()]
    lines = ["# interleaved merged trace", ""]
    while any(lanes):
        for lane in lanes:
            if lane:
                lines.append(lane.pop(0))
    path = tmp_path / "interleaved.trace"
    path.write_text("\n".join(lines) + "\n")
    assert replay(str(path), 4).simulated_time == memory


def test_merged_demux_rejects_gapped_ranks(tmp_path):
    path = tmp_path / "gapped.trace"
    path.write_text("p0 compute 1\np2 compute 1\n")
    with pytest.raises(ValueError, match="not contiguous"):
        replay(str(path), 4)


def write_gapped_dir(directory):
    """Rank files for p0, p1 and p3: p2 is missing."""
    return write_program(directory, {0: ["p0 compute 1e9"],
                                     1: ["p1 compute 1e9"],
                                     3: ["p3 compute 5e9"]})


@pytest.mark.parametrize("compiled", ["auto", "never"])
def test_a_missing_rank_file_is_refused_not_dropped(tmp_path, compiled):
    directory = write_gapped_dir(tmp_path)
    with pytest.raises(ValueError,
                       match=r"no trace file for p2, but SG_process3\.trace"):
        replay(directory, 4, compiled=compiled)


@pytest.mark.parametrize("compiled", ["auto", "never"])
def test_a_rank_stored_twice_is_refused_naming_both_files(tmp_path,
                                                          compiled):
    for rank in range(2):
        write_rank_file(str(tmp_path), rank, [Compute(rank, 1e9)])
    write_rank_file(str(tmp_path), 1, [Compute(1, 5e9)], binary=True)
    with pytest.raises(ValueError, match=r"p1 is stored twice, as "
                       r"SG_process1\.trace and SG_process1\.btrace"):
        replay(str(tmp_path), 2, compiled=compiled)


def test_repro_compile_refuses_a_missing_rank_file(tmp_path, capsys):
    from repro.cli import main_compile

    assert main_compile([write_gapped_dir(tmp_path)]) == 2
    assert "no trace file for p2" in capsys.readouterr().err
