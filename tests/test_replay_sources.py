"""Replay equivalence across trace representations.

The replayer accepts in-memory traces, per-process text files (optionally
gzipped), merged files, and binary trace files.  All representations of
the same trace must produce bit-identical simulated times.
"""

import gzip
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.actions import Compute, Recv, Send, format_action
from repro.core.binfmt import binary_trace_file_name, write_binary_trace
from repro.core.replay import TraceReplayer
from repro.core.trace import InMemoryTrace
from repro.simkernel import Platform
from repro.simkernel.pwl import IDENTITY_MODEL
from repro.smpi import round_robin_deployment


def make_replayer(n_ranks):
    platform = Platform("t")
    platform.add_cluster("c", n_ranks, speed=1e9, link_bw=1.25e8,
                         link_lat=1e-5, backbone_bw=1.25e9, backbone_lat=1e-5)
    return TraceReplayer(platform, round_robin_deployment(platform, n_ranks),
                         comm_model=IDENTITY_MODEL)


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


def write_text_dir(trace, directory, compress=False):
    os.makedirs(directory, exist_ok=True)
    for rank in trace.ranks():
        path = os.path.join(directory, f"SG_process{rank}.trace")
        blob = "\n".join(trace.lines_of(rank)) + "\n"
        if compress:
            with gzip.open(path + ".gz", "wt", encoding="ascii") as handle:
                handle.write(blob)
        else:
            with open(path, "w", encoding="ascii") as handle:
                handle.write(blob)


def write_binary_dir(trace, directory):
    os.makedirs(directory, exist_ok=True)
    for rank in trace.ranks():
        write_binary_trace(
            trace.actions_of(rank), rank,
            os.path.join(directory, binary_trace_file_name(rank)),
        )


def test_all_representations_agree(trace4, tmp_path):
    reference = make_replayer(4).replay(trace4).simulated_time

    text_dir = str(tmp_path / "text")
    write_text_dir(trace4, text_dir)
    assert make_replayer(4).replay(text_dir).simulated_time == reference

    gz_dir = str(tmp_path / "gz")
    write_text_dir(trace4, gz_dir, compress=True)
    assert make_replayer(4).replay(gz_dir).simulated_time == reference

    bin_dir = str(tmp_path / "bin")
    write_binary_dir(trace4, bin_dir)
    assert make_replayer(4).replay(bin_dir).simulated_time == reference

    merged = str(tmp_path / "merged.trace")
    with open(merged, "w") as handle:
        for rank in trace4.ranks():
            for line in trace4.lines_of(rank):
                handle.write(line + "\n")
    assert make_replayer(4).replay(merged).simulated_time == reference


@settings(max_examples=25, deadline=None)
@given(
    n_ranks=st.integers(min_value=1, max_value=6),
    rounds=st.integers(min_value=1, max_value=4),
    representation=st.sampled_from(["text", "binary"]),
)
def test_property_file_representations_match_memory(n_ranks, rounds,
                                                    representation,
                                                    tmp_path_factory):
    trace = pipeline_trace(n_ranks, rounds)
    reference = make_replayer(n_ranks).replay(trace).simulated_time
    directory = str(tmp_path_factory.mktemp("rep"))
    if representation == "text":
        write_text_dir(trace, directory)
    else:
        write_binary_dir(trace, directory)
    measured = make_replayer(n_ranks).replay(directory).simulated_time
    assert measured == reference


def test_merged_demux_handles_interleaved_and_commented_lines(trace4, tmp_path):
    """The streaming demux must cope with ranks interleaved line-by-line
    (the layout where it shines) and with comments/blank lines."""
    memory = make_replayer(4).replay(trace4).simulated_time
    lanes = [list(trace4.lines_of(rank)) for rank in trace4.ranks()]
    lines = ["# interleaved merged trace", ""]
    while any(lanes):
        for lane in lanes:
            if lane:
                lines.append(lane.pop(0))
    path = tmp_path / "interleaved.trace"
    path.write_text("\n".join(lines) + "\n")
    assert make_replayer(4).replay(str(path)).simulated_time == memory


def test_merged_demux_rejects_gapped_ranks(tmp_path):
    path = tmp_path / "gapped.trace"
    path.write_text("p0 compute 1\np2 compute 1\n")
    with pytest.raises(ValueError, match="not contiguous"):
        make_replayer(4).replay(str(path))


def write_gapped_dir(directory):
    """Rank files for p0, p1 and p3: p2 is missing."""
    for rank, flops in ((0, "1e9"), (1, "1e9"), (3, "5e9")):
        with open(os.path.join(directory, f"SG_process{rank}.trace"), "w",
                  encoding="ascii") as handle:
            handle.write(f"p{rank} compute {flops}\n")
    return str(directory)


@pytest.mark.parametrize("compiled", ["auto", "never"])
def test_a_missing_rank_file_is_refused_not_dropped(tmp_path, compiled):
    directory = write_gapped_dir(tmp_path)
    platform = Platform("t")
    platform.add_cluster("c", 4, speed=1e9, link_bw=1.25e8, link_lat=1e-5,
                         backbone_bw=1.25e9, backbone_lat=1e-5)
    replayer = TraceReplayer(platform, round_robin_deployment(platform, 4),
                             compiled=compiled)
    with pytest.raises(ValueError,
                       match=r"no trace file for p2, but SG_process3\.trace"):
        replayer.replay(directory)


def test_repro_compile_refuses_a_missing_rank_file(tmp_path, capsys):
    from repro.cli import main_compile

    assert main_compile([write_gapped_dir(tmp_path)]) == 2
    assert "no trace file for p2" in capsys.readouterr().err
