"""The block tokeniser against its per-line oracle, and the directory
sidecar's boundary.

``compile_source`` reads a trace directory's text rank files in blocks
and tokenises each block as NumPy columns; any block that is not
canonical text goes, file by file, to the per-line ``decode_tokens``
path (``compile._compile_rank_file``).  The two must give bit-identical
columns or raise the same exception with the same message, wherever the
block boundaries fall.  The sidecar tests cover the atomic publish
(unique ``.*.tic`` temp files, concurrent compilers) and a damaged
sidecar, which must always be a counted miss and never an error.
"""

import gzip
import multiprocessing
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import LuWorkload
from repro.campaign.cache import tree_files
from repro.core import compile as compile_mod
from repro.core.acquisition import acquire
from repro.core.actions import Compute, format_volume
from repro.core.compile import compile_source, sidecar_path
from repro.core.synth import write_synthetic_lu_trace
from repro.core.synth_ai import write_synthetic_ai_trace
from repro.core.trace import (
    discover_trace_paths, trace_file_name, write_rank_file,
)
from repro.platforms import bordereau


def columns(prog):
    """Everything a program holds, as comparable bytes."""
    return (prog.rank, prog.n_src,
            [(col.dtype.str, col.tobytes())
             for col in (prog.ops, prog.arg, prog.vol, prog.vol2)],
            sorted((k, v.tobytes()) for k, v in (prog.aux or {}).items()))


def outcome(compile_fn):
    try:
        return "ok", [columns(prog) for prog in compile_fn()]
    except Exception as exc:  # noqa: BLE001 - the outcome is compared
        return "error", type(exc), str(exc)


def block_outcome(directory):
    return outcome(lambda: compile_source(directory, cache=False)[0])


#: The per-line oracle (bound here, before any test counts its calls).
ORACLE = compile_mod._compile_rank_file


def oracle_outcome(directory):
    return outcome(lambda: [
        ORACLE(path, rank)
        for rank, path in enumerate(discover_trace_paths(directory))])


def write_rank_files(directory, blobs, gz=()):
    for rank, blob in enumerate(blobs):
        path = os.path.join(directory, trace_file_name(rank))
        if rank in gz:
            with gzip.open(path + ".gz", "wb") as handle:
                handle.write(blob)
        else:
            with open(path, "wb") as handle:
                handle.write(blob)
    return directory


@pytest.fixture()
def oracle_calls(monkeypatch):
    """Count the files the block path hands to the per-line oracle."""
    calls = []

    def counted(path, rank):
        calls.append(rank)
        return ORACLE(path, rank)

    monkeypatch.setattr(compile_mod, "_compile_rank_file", counted)
    return calls


# ---------------------------------------------------------------------------
# Canonical lines take the block path, with the oracle's columns
# ---------------------------------------------------------------------------
def canonical_lines(rank, n_ranks=4):
    peer = (rank + 1) % n_ranks
    return [f"p{rank} comm_size {n_ranks}",
            f"p{rank} compute 1953.5867822148539",
            f"p{rank} compute 1e+20", f"p{rank} compute 0",
            f"p{rank} send p{peer} 65536", f"p{rank} Isend p{peer} 1",
            f"p{rank} recv p{peer} 2.5", f"p{rank} Irecv p{peer} 7",
            f"p{rank} wait", f"p{rank} bcast 64", f"p{rank} barrier",
            f"p{rank} reduce 8192 2e6", f"p{rank} allReduce 40 10",
            f"p{rank} allToAll 12", f"p{rank} allGather 13",
            f"p{rank} reduceScatter 14 0.5"]


@pytest.mark.parametrize("block_bytes", [1, 40, 300, 1 << 18])
def test_canonical_files_never_reach_the_oracle(tmp_path, monkeypatch,
                                                oracle_calls, block_bytes):
    monkeypatch.setattr(compile_mod, "BLOCK_BYTES", block_bytes)
    blobs = [("\n".join(canonical_lines(r)) + "\n").encode()
             for r in range(4)]
    blobs[3] = blobs[3].rstrip(b"\n")       # no final newline
    write_rank_files(str(tmp_path), blobs + [b""], gz={1})
    block = block_outcome(str(tmp_path))
    assert oracle_calls == []
    assert block == oracle_outcome(str(tmp_path))
    assert block[0] == "ok" and len(block[1]) == 5


def test_generated_traces_match_the_oracle(tmp_path, oracle_calls):
    """The generators behind the benchmark workloads: the LU pencil, a
    chain of jittered compute records, MoE and DP, and a trace acquired
    through the tracer and tau2simgrid."""
    lu = str(tmp_path / "lu")
    write_synthetic_lu_trace(lu, 16, 1, cls="B", inorm=1, seed=3,
                             jitter=0.01)
    chain = str(tmp_path / "chain")
    os.makedirs(chain)
    for rank in range(8):
        with open(os.path.join(chain, trace_file_name(rank)), "w") as out:
            out.write(f"p{rank} comm_size 8\n")
            out.write("".join(f"p{rank} compute {v!r}\n"
                              for v in [1953.5867822148539 * (1 + k / 97)
                                        for k in range(300)]))
            out.write(f"p{rank} allReduce 40 10\n")
    dp = str(tmp_path / "dp")
    write_synthetic_ai_trace("dp", dp, 4, 2, seed=5)
    acquired = str(tmp_path / "acq")
    acquire(LuWorkload("S", 4).program, bordereau(4), 4, workdir=acquired,
            measure_application=False)
    for directory in (lu, chain, dp, os.path.join(acquired, "ti")):
        assert block_outcome(directory) == oracle_outcome(directory)
    assert oracle_calls == []
    moe = str(tmp_path / "moe")
    write_synthetic_ai_trace("moe", moe, 4, 1, seed=5)
    # allToAllv lines keep the per-line path; the columns still agree.
    assert block_outcome(moe) == oracle_outcome(moe)


# ---------------------------------------------------------------------------
# Hostile input: whatever the oracle does, the block path does
# ---------------------------------------------------------------------------
HOSTILE = {
    "tab": b"p1 compute\t5\n",
    "crlf": b"p1 compute 5\r\np1 barrier\r\n",
    "cr": b"p1 compute 5\rp1 barrier\n",
    "file-separator": b"p1\x1ccompute 5\n",
    "unit-separator": b"p1 compute\x1f5\n",
    "double-space": b"p1  compute 5\n",
    "leading-blank": b" p1 compute 5\n",
    "trailing-blank": b"p1 compute 5 \n",
    "comment": b"# a comment\np1 compute 5\n",
    "comment-token": b"p1 barrier\n#p1 compute\n",
    "blank-line": b"p1 compute 5\n\np1 barrier\n",
    "only-newlines": b"\n\n",
    "non-ascii": b"p1 compute 5\np1 comput\xc3\xa9 5\n",
    "non-ascii-byte": b"p1 compute \xff\n",
    "nan": b"p1 compute nan\n",
    "inf": b"p1 compute inf\n",
    "minus-inf": b"p1 compute -inf\n",
    "minus-zero": b"p1 compute -0\n",
    "underscore": b"p1 compute 1_0\n",
    "negative": b"p1 send p0 -5\n",
    "peer-leading-zero": b"p1 send p01 5\n",
    "peer-negative": b"p1 send p-1 5\n",
    "peer-bare": b"p1 send p 5\n",
    "peer-no-p": b"p1 send 0 5\n",
    "peer-huge": b"p1 send p99999999999 5\n",
    "peer-int32-max": b"p1 send p2147483647 5\n",
    "peer-int32-overflow": b"p1 send p2147483648 5\n",
    "comm-size-zero": b"p1 comm_size 0\n",
    "comm-size-float": b"p1 comm_size 4.0\n",
    "comm-size-leading-zero": b"p1 comm_size 04\n",
    "too-few": b"p1 send p0\n",
    "too-many": b"p1 compute 5 6\n",
    "keyword-only": b"p1\n",
    "no-keyword-arity": b"p1 barrier 3\n",
    "unknown-keyword": b"p1 computer 5\n",
    "wrong-rank": b"p1 compute 5\np2 compute 5\n",
    "rank-leading-zero": b"p01 compute 5\n",
    "alltoallv": b"p1 allToAllv 6 1 2 3\np1 compute 5\n",
    "alltoallv-inconsistent": b"p1 allToAllv 7 1 2 3\n",
    "long-volume": b"p1 compute " + b"1" * 40 + b"\n",
    "long-keyword": b"p1 " + b"x" * 40 + b" 5\n",
    "hex": b"p1 compute 0x10\n",
}


@pytest.mark.parametrize("name", sorted(HOSTILE))
@pytest.mark.parametrize("block_bytes", [16, 1 << 18])
def test_hostile_rank_file_matches_the_oracle(tmp_path, monkeypatch, name,
                                              block_bytes):
    monkeypatch.setattr(compile_mod, "BLOCK_BYTES", block_bytes)
    canonical = [("\n".join(canonical_lines(r, 3)) + "\n").encode()
                 for r in range(3)]
    head, tail = canonical[1].split(b"p1 send", 1)
    write_rank_files(str(tmp_path),
                     [canonical[0], head + HOSTILE[name] + b"p1 send" + tail,
                      canonical[2]])
    assert block_outcome(str(tmp_path)) == oracle_outcome(str(tmp_path))


def varint(value):
    out = bytearray()
    while True:
        out.append(value & 0x7F | (0x80 if value >> 7 else 0))
        value >>= 7
        if not value:
            return bytes(out)


#: A damaged ``.btrace`` record spliced in after the 200th record: the
#: record's bytes and what the reader must say about it.
HOSTILE_BTRACE = {
    "flipped-opcode": (b"\x7f", "unknown opcode 127"),
    "varint-overflow": (b"\x01" + b"\xff" * 10 + b"\x01",
                        "varint overflow"),
    "split-count": (b"\x0f" + varint(0) + varint(5),
                    "declares 0 split sizes"),
    "split-sum": (b"\x0f" + varint(2) + varint(5) + varint(1) + varint(1),
                  "split sizes sum to 2"),
    "peer-past-int32": (b"\x03" + varint(2 ** 40) + varint(10),
                        "peer rank must be in [0, 2147483647]"),
    "comm-size-past-int32": (b"\x0a" + varint(2 ** 40),
                             "communicator size must be in [1, 2147483647]"),
    "truncated-tail": (b"\x81\x00\x00", "truncated float volumes"),
}


def write_hostile_btrace(directory, name):
    """Two ``.btrace`` ranks, p1's damaged by ``HOSTILE_BTRACE[name]``
    (at its end for the truncation).  Returns the damaged file's path
    and the damaged record's absolute byte offset."""
    os.makedirs(directory, exist_ok=True)
    for rank in range(2):
        write_rank_file(directory, rank,
                        [Compute(rank, 1000 + k) for k in range(400)],
                        binary=True)
    path = os.path.join(directory, "SG_process1.btrace")
    with open(path, "rb") as handle:
        blob = handle.read()
    bad = HOSTILE_BTRACE[name][0]
    offset = len(blob) if name == "truncated-tail" else 16 + 200 * 3
    with open(path, "wb") as handle:
        handle.write(blob[:offset] + bad + blob[offset:])
    return path, offset


@pytest.mark.parametrize("name", sorted(HOSTILE_BTRACE))
def test_hostile_btrace_names_its_file_and_record(tmp_path, name):
    directory = str(tmp_path / "bt")
    path, offset = write_hostile_btrace(directory, name)
    expected = f"{path}: record at byte {offset}: "
    with pytest.raises(ValueError) as excinfo:
        compile_source(directory, cache=False)
    message = str(excinfo.value)
    assert message.startswith(expected), message
    assert HOSTILE_BTRACE[name][1] in message
    assert block_outcome(directory) == oracle_outcome(directory)


#: One template per fixed-arity row of the action table.
TEMPLATES = [
    "{p} compute {v}", "{p} bcast {v}", "{p} allToAll {v}",
    "{p} allGather {v}", "{p} send {q} {v}", "{p} Isend {q} {v}",
    "{p} recv {q} {v}", "{p} Irecv {q} {v}", "{p} reduce {v} {w}",
    "{p} allReduce {v} {w}", "{p} reduceScatter {v} {w}", "{p} barrier",
    "{p} wait", "{p} comm_size {n}",
]

VOLUMES = st.one_of(st.integers(0, 10 ** 17).map(str),
                    st.floats(0, 1e300).map(format_volume))

#: Field text the oracle may accept or refuse, per template field.
HOSTILE_FIELDS = {
    "v": st.one_of(
        st.floats(allow_nan=True, allow_infinity=True).map(repr),
        st.sampled_from(["nan", "inf", "-inf", "-0", "1_0", "+5", ".5", "5.",
                         "1E-3", "-1", "0x1", "1e", "1" * 40, "\u0661"])),
    "q": st.sampled_from(["p01", "p-1", "p", "q1", "p1x", "0", "p2147483647",
                          "p2147483648", "p99999999999"]),
    "n": st.sampled_from(["0", "04", "-2", "x", "4.0", "2147483648"]),
}

#: Whole-line damage: layout the oracle tolerates and structure it
#: refuses.
LINE_DAMAGE = [
    lambda line, c: line.replace(" ", "\t", 1),
    lambda line, c: line + "\r",
    lambda line, c: line.replace(" ", c, 1),
    lambda line, c: line.replace(" ", "  ", 1),
    lambda line, c: " " + line,
    lambda line, c: line + " ",
    lambda line, c: "# " + line,
    lambda line, c: "",
    lambda line, c: line + "é",
    lambda line, c: line.rsplit(" ", 1)[0],
    lambda line, c: line + " 7",
    lambda line, c: "p9" + line[line.index(" "):],
    lambda line, c: line[:line.index(" ")] + " allToAllv 3 1 2",
    lambda line, c: line[:line.index(" ")] + " allToAllv 5 1 2",
]


@st.composite
def canonical_line(draw, rank, n_ranks, hostile=None):
    """A valid line of a random row; with ``hostile``, a row that has
    that field, with the field's text drawn from :data:`HOSTILE_FIELDS`."""
    template = draw(st.sampled_from([
        t for t in TEMPLATES if hostile is None or "{%s}" % hostile in t]))
    fields = {"p": f"p{rank}", "q": f"p{draw(st.integers(0, n_ranks - 1))}",
              "v": draw(VOLUMES), "w": draw(VOLUMES),
              "n": str(draw(st.integers(1, 64)))}
    if hostile is not None:
        fields[hostile] = draw(HOSTILE_FIELDS[hostile])
    return template.format(**fields)


@st.composite
def hostile_trees(draw):
    """1-3 rank files of canonical lines, then up to two damaged lines
    (a hostile field, or damage to the whole line) at random places."""
    n_ranks = draw(st.integers(1, 3))
    files = [draw(st.lists(canonical_line(rank, n_ranks), max_size=12))
             for rank in range(n_ranks)]
    for _ in range(draw(st.integers(0, 2))):
        rank = draw(st.integers(0, n_ranks - 1))
        field = draw(st.sampled_from(["v", "q", "n", None]))
        line = draw(canonical_line(rank, n_ranks, hostile=field))
        if field is None:
            damage = draw(st.sampled_from(LINE_DAMAGE))
            line = damage(line, chr(draw(st.integers(0x1c, 0x1f))))
        files[rank].insert(draw(st.integers(0, len(files[rank]))), line)
    return [("\n".join(lines) + draw(st.sampled_from(["\n", ""])))
            .encode("utf-8") for lines in files]


@settings(max_examples=200, deadline=None)
@given(files=hostile_trees(), block_bytes=st.sampled_from([1, 24, 100, 4096]))
def test_block_path_is_the_oracle_on_generated_files(files, block_bytes):
    saved = compile_mod.BLOCK_BYTES
    compile_mod.BLOCK_BYTES = block_bytes
    try:
        with tempfile.TemporaryDirectory() as directory:
            write_rank_files(directory, files)
            assert block_outcome(directory) == oracle_outcome(directory)
    finally:
        compile_mod.BLOCK_BYTES = saved


# ---------------------------------------------------------------------------
# The directory sidecar
# ---------------------------------------------------------------------------
def write_canonical_dir(directory, n_ranks=4):
    os.makedirs(directory, exist_ok=True)
    write_rank_files(directory, [
        ("\n".join(canonical_lines(r, n_ranks)) + "\n").encode()
        for r in range(n_ranks)])
    return directory


def test_publish_shows_tree_digests_only_trace_files(tmp_path, monkeypatch):
    # While the sidecar is being published, a content digest of the
    # tree (campaign cache, artifact staging) must not see its temp file.
    directory = write_canonical_dir(str(tmp_path / "ti"))
    seen = []
    real_replace = os.replace

    def replace(src, dst, *args, **kwargs):
        seen.append(sorted(rel for _, rel in tree_files(directory)))
        return real_replace(src, dst, *args, **kwargs)

    monkeypatch.setattr(compile_mod.os, "replace", replace)
    compile_source(directory)
    assert seen == [[trace_file_name(r) for r in range(4)]]
    assert sorted(os.listdir(directory)) == sorted(
        [trace_file_name(r) for r in range(4)] + ["programs.tic"])


def test_failed_publish_leaves_no_temp_file(tmp_path, monkeypatch):
    directory = write_canonical_dir(str(tmp_path / "ti"))

    def refuse(src, dst, *args, **kwargs):
        raise PermissionError(13, "refused", dst)

    monkeypatch.setattr(compile_mod.os, "replace", refuse)
    _, report = compile_source(directory)
    assert report.artifacts == []
    assert sorted(os.listdir(directory)) == [
        trace_file_name(r) for r in range(4)]


def _compile_in_child(directory, barrier, results):
    # Both compilers hold a finished temp file before either publishes.
    real_replace = os.replace

    def replace(src, dst, *args, **kwargs):
        barrier.wait(timeout=60)
        return real_replace(src, dst, *args, **kwargs)

    compile_mod.os.replace = replace
    programs, report = compile_source(directory)
    results.put((report.cache_misses, [columns(p) for p in programs]))


def test_concurrent_cold_compiles_publish_one_sidecar(tmp_path):
    directory = write_canonical_dir(str(tmp_path / "ti"), n_ranks=16)
    oracle = oracle_outcome(directory)
    ctx = multiprocessing.get_context("spawn")
    barrier = ctx.Barrier(2)
    results = ctx.Queue()
    children = [ctx.Process(target=_compile_in_child,
                            args=(directory, barrier, results))
                for _ in range(2)]
    for child in children:
        child.start()
    got = [results.get(timeout=120) for _ in children]
    for child in children:
        child.join(timeout=60)
        assert child.exitcode == 0
    for misses, programs in got:
        assert misses == 16
        assert ("ok", programs) == oracle
    assert [name for name in os.listdir(directory)
            if name.endswith(".tic")] == ["programs.tic"]
    programs, report = compile_source(directory)
    assert (report.cache_hits, report.cache_misses) == (16, 0)
    assert ("ok", [columns(p) for p in programs]) == oracle


def test_damaged_sidecar_is_always_a_counted_miss(tmp_path):
    directory = write_canonical_dir(str(tmp_path / "ti"))
    cold = [columns(p) for p in compile_source(directory, cache=False)[0]]
    compile_source(directory)
    sidecar = sidecar_path(directory)
    with open(sidecar, "rb") as handle:
        blob = handle.read()
    header = compile_mod._TIC_HEADER
    table_end = header.size + header.unpack_from(blob)[4]

    def check(damaged):
        with open(sidecar, "wb") as handle:
            handle.write(damaged)
        programs, report = compile_source(directory)
        assert report.cache_misses == 4, len(damaged)
        assert [columns(p) for p in programs] == cold

    for cut in range(len(blob)):
        check(blob[:cut])
    for offset in range(table_end):
        damaged = bytearray(blob)
        damaged[offset] ^= 0xFF
        check(bytes(damaged))
    # Undamaged, it is a hit again.
    with open(sidecar, "wb") as handle:
        handle.write(blob)
    _, report = compile_source(directory)
    assert (report.cache_hits, report.cache_misses) == (4, 0)


def test_one_changed_rank_recompiles_alone(tmp_path, oracle_calls):
    directory = write_canonical_dir(str(tmp_path / "ti"))
    compile_source(directory)
    with open(os.path.join(directory, trace_file_name(2)), "ab") as handle:
        handle.write(b"p2 compute 5\n")
    programs, report = compile_source(directory)
    assert (report.cache_hits, report.cache_misses) == (3, 1)
    assert report.artifacts == [sidecar_path(directory)]
    assert ("ok", [columns(p) for p in programs]) == \
        oracle_outcome(directory)
    _, report = compile_source(directory)
    assert (report.cache_hits, report.cache_misses) == (4, 0)


def test_publish_deletes_per_rank_sidecars(tmp_path):
    directory = write_canonical_dir(str(tmp_path / "ti"))
    for rank in range(4):
        with open(os.path.join(directory, trace_file_name(rank) + ".tic"),
                  "wb") as handle:
            handle.write(b"TICP0001 an older layout")
    _, report = compile_source(directory)
    assert report.cache_misses == 4
    assert [name for name in os.listdir(directory)
            if name.endswith(".tic")] == ["programs.tic"]


def test_repro_compile_reports_one_sidecar(tmp_path, capsys):
    from repro.cli import main_compile

    directory = write_canonical_dir(str(tmp_path / "ti"))
    assert main_compile([directory]) == 0
    out = capsys.readouterr().out
    assert "4 missed; 1 sidecar(s) written" in out
    assert sidecar_path(directory) in out
    assert main_compile([directory]) == 0
    assert "4 rank(s) hit, 0 missed; 0 sidecar(s) written" in \
        capsys.readouterr().out
