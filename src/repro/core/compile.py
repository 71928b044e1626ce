"""Trace compilation: time-independent traces as columnar op programs.

The replay hot path used to re-tokenize one text line and make one dict
dispatch per action.  This module compiles a trace — text, binary, or
in-memory — *once* into parallel NumPy columns::

    ops   uint8    the action opcode
    arg   int32    peer rank / communicator size / split count / 0
    vol   float64  the action's (first) volume, flops or bytes
    vol2  float64  the second volume of a two-volume action; 0 otherwise

— the ``(op, arg, vol, vol2)`` fields of the action table
(:data:`repro.core.actions.ACTION_TABLE`, docs/trace-format.md), one
column each; allToAllv split tables ride in a per-op ``aux`` plane —
plus an optional ``nsrc`` (uint32) column counting how many *source*
actions each compiled op stands for — 1 everywhere except fused compute
runs (see :func:`fuse_computes`).  No strings survive compilation, and
the replay loop reads the columns through :meth:`CompiledProgram.records`.

A trace directory's text rank files compile in blocks: consecutive
files are read into blocks of at most :data:`BLOCK_BYTES` and each block
is tokenised once, as NumPy columns (:func:`_tokenise_block`).  Only
canonical text takes that path; any other block, ``.btrace`` files and
merged files compile one record at a time through
:func:`~.actions.decode_tokens`, which stays the oracle and the only
source of errors.  Under ``compiled="never"`` the same two decoders
compile each rank file a small window at a time as the replay reaches
it (:func:`compile_windows`), so ingest memory stays bounded per rank.

Compiled programs are cached on disk in one ``.tic`` sidecar per trace
directory (``programs.tic``; a merged file gets ``<file>.tic``).  Its
table holds each rank file's name, size and SHA-256, so a changed rank
file recompiles that rank alone — a ``.tic`` can never go stale.
Sidecars are *derived* artifacts: the campaign cache's tree digest skips
them, so warming the compile cache does not change any scenario's
content address.

Compute fusion (:func:`fuse_computes`) collapses each run of consecutive
``compute`` ops into a single op whose volume is the run's sum.  This is
exact whenever per-flop work inflation does not depend on the burst size
(every replay host has ``efficiency_model is None``): no observable
event can interleave within a rank's own compute run, and the engine's
max-min share is insensitive to splitting one burst into back-to-back
pieces.  The replayer only enables fusion under that condition (and
never under fault plans or timed-trace recording, which need per-action
granularity).
"""

from __future__ import annotations

import gzip
import hashlib
import io
import logging
import os
import struct
import tempfile
import time
import zlib
from dataclasses import dataclass, field
from itertools import groupby, islice, repeat
from operator import itemgetter
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

from .actions import (
    ACTION_TABLE, OPCODE_SPACE_VERSION, PEER_VOL, SHAPE_LAYOUT,
    decode_tokens, encode_tokens, fields_of,
)
from .binfmt import read_binary_trace
from .trace import (
    InMemoryTrace, discover_trace_paths, merged_file_tokens,
    rank_file_tokens, rank_line_tokens,
)

# OP_COMPUTE, OP_SEND, ... OP_ALLTOALLV: one constant per table row.
_OP_NAMES = {f"OP_{row.keyword.upper()}": row.opcode for row in ACTION_TABLE}
globals().update(_OP_NAMES)

__all__ = [
    "CompiledProgram", "CompileReport", "compile_source", "compile_windows",
    "fuse_computes", "op_tokens", "sidecar_path", "BLOCK_BYTES",
    "WINDOW_BYTES", "DIR_SIDECAR", "TIC_SUFFIX",
    *_OP_NAMES,
]

#: Compiled-program sidecar suffix: a merged file's sidecar is
#: ``<file>.tic``, and every sidecar file name ends with it.
TIC_SUFFIX = ".tic"
#: The one sidecar of a trace directory, covering all its rank files.
DIR_SIDECAR = "programs" + TIC_SUFFIX

_TIC_MAGIC = b"TICP0001"
#: v2: per-rank aux blocks (allToAllv split tables) joined the layout,
#: and the header carries the opcode-space version — a sidecar compiled
#: under an older opcode space is a cache miss, so pre-existing ``.tic``
#: files recompile instead of being decoded with opcodes they never
#: knew.  v3: one sidecar per trace directory, its planes addressed by a
#: sealed per-rank table, instead of one file per rank.
_TIC_VERSION = 3
#: magic, version, opcode space, rows, table bytes, table seal
_TIC_HEADER = struct.Struct("<8sHHIQ32s")
_TIC_ROW = struct.Struct("<IQ32sQQIQQH")    # the fields of _Row
_TIC_AUX = struct.Struct("<QI")             # op index, split count


class CompiledProgram:
    """One rank's compiled op program (see the module docstring)."""

    __slots__ = ("rank", "ops", "arg", "vol", "vol2", "nsrc", "n_src",
                 "fused", "aux")

    def __init__(self, rank: int, ops: np.ndarray, arg: np.ndarray,
                 vol: np.ndarray, vol2: np.ndarray,
                 nsrc: Optional[np.ndarray] = None,
                 n_src: Optional[int] = None, fused: bool = False,
                 aux: Optional[Dict[int, np.ndarray]] = None) -> None:
        self.rank = rank
        self.ops = ops
        self.arg = arg
        self.vol = vol
        self.vol2 = vol2
        # Source-action multiplicity per op; None means all-ones (the
        # unfused program, where ops map 1:1 onto trace actions).
        self.nsrc = nsrc
        self.n_src = len(ops) if n_src is None else int(n_src)
        self.fused = fused
        # Variable-length payloads the fixed columns cannot hold: op
        # index -> float64 split table (allToAllv per-destination bytes;
        # ``arg`` holds the split count, ``vol`` the total).  None when
        # the program has no such ops — the common case costs nothing.
        self.aux = aux

    @property
    def n_ops(self) -> int:
        return len(self.ops)

    def records(self):
        """The program as the replay loop's feed: one ``((op, arg, vol,
        vol2, splits), nsrc)`` pair per op.  The columns are iterated as
        memoryviews, so only the record in flight is a Python object —
        a rank does not hold a second, boxed copy of its program."""
        aux = self.aux
        splits = repeat(None) if not aux else (
            aux[index].tolist() if index in aux else None
            for index in range(self.n_ops))
        nsrc = repeat(1) if self.nsrc is None else _scalars(self.nsrc, "I")
        return zip(zip(_scalars(self.ops, "B"), _scalars(self.arg, "i"),
                       _scalars(self.vol, "d"), _scalars(self.vol2, "d"),
                       splits), nsrc)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = "fused" if self.fused else "unfused"
        return (f"CompiledProgram(p{self.rank}, {self.n_ops} ops / "
                f"{self.n_src} actions, {tag})")


#: Native NumPy dtype of each memoryview format :func:`_scalars` reads.
_NATIVE = {"B": np.uint8, "I": np.uint32, "i": np.int32, "d": np.float64}


def _scalars(column: np.ndarray, fmt: str) -> memoryview:
    """A column as a memoryview of native scalars: ``.tic`` planes carry
    explicit little-endian dtypes, whose memoryviews cannot iterate."""
    return memoryview(
        np.ascontiguousarray(column, _NATIVE[fmt])).cast("B").cast(fmt)


@dataclass
class CompileReport:
    """What one :func:`compile_source` call did (cold vs warm cache)."""

    n_ranks: int = 0
    n_ops: int = 0            # compiled ops across all ranks (unfused)
    n_src: int = 0            # source actions across all ranks
    cache_hits: int = 0       # ranks served from a fresh .tic sidecar
    cache_misses: int = 0     # ranks (re)compiled from source bytes
    wall_seconds: float = 0.0
    artifacts: List[str] = field(default_factory=list)  # sidecars touched


class _Builder:
    """Columnar accumulator for one rank's ops."""

    __slots__ = ("ops", "arg", "vol", "vol2", "aux")

    def __init__(self) -> None:
        self.ops: List[int] = []
        self.arg: List[int] = []
        self.vol: List[float] = []
        self.vol2: List[float] = []
        self.aux: Dict[int, List[float]] = {}

    def finish(self, rank: int) -> CompiledProgram:
        return CompiledProgram(
            rank,
            np.asarray(self.ops, dtype=np.uint8),
            np.asarray(self.arg, dtype=np.int32),
            np.asarray(self.vol, dtype=np.float64),
            np.asarray(self.vol2, dtype=np.float64),
            aux={i: np.asarray(v, dtype=np.float64)
                 for i, v in self.aux.items()} or None,
        )

    def extend(self, records) -> None:
        """Append a stream of ``(op, arg, vol, vol2, splits)`` records
        (what :func:`~.actions.decode_tokens` and
        :func:`~.actions.fields_of` return)."""
        ops, arg = self.ops.append, self.arg.append
        vol, vol2 = self.vol.append, self.vol2.append
        for op, a, v, v2, splits in records:
            if splits is not None:
                self.aux[len(self.ops)] = splits
            ops(op)
            arg(a)
            vol(v)
            vol2(v2)


def _compile_records(records, rank: int) -> CompiledProgram:
    builder = _Builder()
    builder.extend(records)
    return builder.finish(rank)


def _compile_rank_file(path: str, rank: int) -> CompiledProgram:
    """One rank file, one record at a time: the oracle the block
    tokeniser must agree with, and the only source of its errors."""
    if path.endswith(".btrace"):
        return _compile_records(
            map(fields_of, read_binary_trace(path, expect_rank=rank)), rank)
    return _compile_records(
        map(decode_tokens, rank_file_tokens(path, rank)), rank)


# ---------------------------------------------------------------------------
# Block tokeniser: consecutive text rank files, a block at a time
# ---------------------------------------------------------------------------
#: Bytes of rank-file text one block gathers before it is tokenised (a
#: single line longer than this still goes whole into one block).
BLOCK_BYTES = 256 * 1024

#: The bytes a canonical trace line may hold: keywords, ``p<rank>``
#: ids, volumes, single spaces and the newline.  Tabs, ``\r``, the
#: other separators ``str.split`` knows, ``#`` and non-ASCII bytes all
#: send a block to the per-line oracle.
_CANONICAL_BYTES = (b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
                    b"0123456789_.+- \n")

#: Keyword -> opcode of every fixed-arity row (allToAllv's split list
#: takes the per-line path).  Per opcode: tokens per line, the token
#: offset of each volume (0: none), and whether ``arg`` is a ``p<rank>``
#: peer or a communicator size (both at token offset 2).
_BLOCK_OPCODE: Dict[bytes, int] = {}
_ARITY = np.zeros(len(ACTION_TABLE) + 1, dtype=np.int64)
_VOL_AT = np.zeros(len(ACTION_TABLE) + 1, dtype=np.int64)
_VOL2_AT = np.zeros(len(ACTION_TABLE) + 1, dtype=np.int64)
_PEER_ARG = np.zeros(len(ACTION_TABLE) + 1, dtype=bool)
_SIZE_ARG = np.zeros(len(ACTION_TABLE) + 1, dtype=bool)
for _row in ACTION_TABLE:
    _uses_arg, _n_vols = SHAPE_LAYOUT[_row.shape]
    if _n_vols is None:
        continue
    _BLOCK_OPCODE[_row.keyword.encode("ascii")] = _row.opcode
    _ARITY[_row.opcode] = 2 + _uses_arg + _n_vols
    if _n_vols:
        _VOL_AT[_row.opcode] = 2 + _uses_arg
    if _n_vols == 2:
        _VOL2_AT[_row.opcode] = 3 + _uses_arg
    _PEER_ARG[_row.opcode] = _row.shape == PEER_VOL
    _SIZE_ARG[_row.opcode] = _uses_arg and _row.shape != PEER_VOL

#: Widest token the block path reads (the canonical volume text is at
#: most 24 bytes); a wider one sends its block to the oracle.
_MAX_TOKEN = 32


def _token_bytes(windows: np.ndarray, begin: np.ndarray,
                 length: np.ndarray) -> Optional[np.ndarray]:
    """The tokens at byte offsets ``begin`` as rows of a zero-padded
    uint8 matrix, or None if one is wider than :data:`_MAX_TOKEN`.
    ``windows`` views the block as its :data:`_MAX_TOKEN`-byte windows."""
    width = int(length.max()) if len(length) else 1
    if width > _MAX_TOKEN:
        return None
    rows = windows[begin, :width]
    rows *= np.arange(width) < length[:, None]
    return rows


def _as_text(rows: np.ndarray) -> np.ndarray:
    """Zero-padded token rows as a fixed-width bytes array."""
    return rows.view(f"S{rows.shape[1]}").ravel()


def _digits(rows: np.ndarray, length: np.ndarray,
            skip: int) -> Optional[np.ndarray]:
    """The integer each token spells after ``skip`` leading bytes, or
    None unless every one is ASCII digits only (the oracle's
    ``isdigit``; leading zeros allowed) and fits ``arg``'s int32."""
    digits = rows[:, skip:].astype(np.int64) - 48
    width = length - skip
    inside = np.arange(digits.shape[1]) < width[:, None]
    if (width < 1).any() or (width > 10).any() \
            or (inside & ((digits < 0) | (digits > 9))).any():
        return None
    value = np.zeros(len(rows), dtype=np.int64)
    for col in range(digits.shape[1]):
        value = np.where(inside[:, col], value * 10 + digits[:, col], value)
    return value if (value <= np.iinfo(np.int32).max).all() else None


def _tokenise_block(block: bytes, segments: List[Tuple[int, int]]):
    """The ``(ops, arg, vol, vol2)`` columns of a block of canonical
    lines, or None if any line is not canonical or fails a check of
    :func:`~.actions.decode_tokens` — the caller then compiles the
    block's files with the per-line oracle.  ``block`` ends with a
    newline; ``segments`` lists ``(rank, lines)`` in block order.

    No token becomes a Python object: separators, line ends and token
    widths are NumPy index arrays over the block's bytes, and each
    column is read as a fixed-width byte matrix."""
    if block.translate(None, _CANONICAL_BYTES):
        return None
    padded = np.frombuffer(block + bytes(_MAX_TOKEN), dtype=np.uint8)
    windows = np.lib.stride_tricks.sliding_window_view(padded, _MAX_TOKEN)
    raw = padded[:len(block)]
    sep = np.flatnonzero((raw == 32) | (raw == 10))  # each token's end
    begin = np.empty_like(sep)
    begin[0] = 0
    begin[1:] = sep[:-1] + 1
    length = sep - begin
    if length.min() < 1:        # a blank line, or a doubled separator
        return None
    ends = np.flatnonzero(raw[sep] == 10)           # each line's last token
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    arity = ends - starts + 1

    def field(at: np.ndarray) -> Optional[np.ndarray]:
        return _token_bytes(windows, begin[at], length[at])

    if arity.min() < 2:                             # a line without keyword
        return None
    first, keyword = field(starts), field(starts + 1)
    if first is None or keyword is None:
        return None
    ranks, lines = zip(*segments)
    prefixes = np.repeat(np.array([b"p%d" % rank for rank in ranks]), lines)
    if not (_as_text(first) == prefixes).all():
        return None
    keyword = _as_text(keyword)
    ops = np.zeros(len(starts), dtype=np.uint8)
    for word, op in _BLOCK_OPCODE.items():
        ops[keyword == word] = op
    if not (arity == _ARITY[ops]).all():            # unknown keywords too
        return None
    columns = [ops, np.zeros(len(ops), dtype=np.int32)]
    for where, skip in ((_PEER_ARG[ops], 1), (_SIZE_ARG[ops], 0)):
        at = starts[where] + 2
        rows = field(at)
        if rows is None or (skip and (rows[:, 0] != ord("p")).any()):
            return None
        value = _digits(rows, length[at], skip)
        if value is None or (not skip and (value < 1).any()):
            return None
        columns[1][where] = value
    for offset in (_VOL_AT[ops], _VOL2_AT[ops]):
        column = np.zeros(len(ops))
        used = offset > 0
        rows = field((starts + offset)[used])
        if rows is None:
            return None
        try:
            # NumPy parses bytes to float64 with Python's ``float``, as
            # the oracle does: ``1_0``, ``-0`` and ``nan`` read alike.
            column[used] = _as_text(rows).astype(np.float64)
        except ValueError:
            return None
        # The oracle's ``0.0 <= v < inf``: NaN fails both sides.
        if not ((column >= 0) & (column < np.inf)).all():
            return None
        columns.append(column)
    return columns


class _SourceDigest:
    """Byte count and SHA-256 of a source file, fed as it is read."""

    __slots__ = ("size", "sha")

    def __init__(self) -> None:
        self.size = 0
        self.sha = hashlib.sha256()

    def update(self, data: bytes) -> None:
        self.size += len(data)
        self.sha.update(data)

    def value(self) -> Tuple[int, bytes]:
        return self.size, self.sha.digest()


def _read_text(path: str, digest: Optional[_SourceDigest], size: int):
    """The (decompressed) bytes of one text rank file, in chunks of at
    most ``size``; ``digest`` is fed the file's bytes as they are read,
    so hashing costs no second pass.  Without a digest a ``.gz`` file is
    decompressed as it is read, never held whole."""
    with open(path, "rb", buffering=0) as handle:
        if path.endswith(".gz"):
            raw = handle
            if digest is not None:
                raw = io.BytesIO(handle.read())
                digest.update(raw.getvalue())
            with gzip.GzipFile(fileobj=raw) as text:
                yield from iter(lambda: text.read(size), b"")
            return
        chunks = iter(lambda: handle.read(size), b"")
        if digest is None:
            # Delegated, so that no local of this suspended generator
            # holds the chunk its caller is working on.
            yield from chunks
            return
        for chunk in chunks:
            digest.update(chunk)
            yield chunk


def _whole_lines(chunks):
    """Byte chunks re-cut at line ends; a final line without its newline
    gets one.  Suspended, it holds the carried partial line and the
    text it yielded, no other copy of the chunk: a windowed replay
    keeps one of these per rank."""
    carry = b""
    for data in chunks:
        if carry:
            data = carry + data
        cut = data.rfind(b"\n") + 1
        carry = data[cut:]
        if cut:
            data = data[:cut]
            yield data
    if carry:
        yield carry + b"\n"


def _compile_rank_files(paths: List[Tuple[int, str]], hashed: bool
                        ) -> Tuple[Dict[int, CompiledProgram],
                                   Dict[int, Tuple[int, bytes]]]:
    """Compile ``(rank, path)`` rank files, in order, through the block
    tokeniser.  Returns the programs and, if ``hashed``, each file's
    ``(size, SHA-256)`` taken from the same read.

    Text files are cut at line ends and gathered, across file
    boundaries, into blocks of about :data:`BLOCK_BYTES`.  A block that
    :func:`_tokenise_block` refuses, a file that cannot be read, and a
    ``.btrace`` file go to :func:`_compile_rank_file` (whole files, in
    rank order), so every error is the oracle's and comes in the order
    the oracle would raise it."""
    programs: Dict[int, CompiledProgram] = {}
    sources: Dict[int, Tuple[int, bytes]] = {}
    pieces: Dict[int, list] = {}        # rank -> its blocks' column slices
    read = set()                        # ranks whose file is fully read
    block: List[Tuple[int, bytes]] = []
    size = 0
    path_of = dict(paths)

    def by_oracle(rank: int) -> None:
        pieces.pop(rank, None)
        programs[rank] = _compile_rank_file(path_of[rank], rank)

    def finish(rank: int) -> None:
        # Copying the slices out frees each block's columns as soon as
        # its last file is done: peak memory stays about one block.
        parts = pieces.pop(rank, ())
        programs[rank] = CompiledProgram(rank, *(
            np.concatenate([part[i] for part in parts]) if parts
            else np.zeros(0, dtype)
            for i, dtype in enumerate((np.uint8, np.int32, np.float64,
                                       np.float64))))

    def add(rank: int, segment: bytes) -> None:
        nonlocal size
        block.append((rank, segment))
        size += len(segment)
        if size >= BLOCK_BYTES:
            flush()

    def flush() -> None:
        nonlocal size
        size = 0
        if not block:
            return
        segments = [(rank, seg.count(b"\n")) for rank, seg in block]
        columns = _tokenise_block(b"".join(seg for _, seg in block),
                                  segments)
        block.clear()
        if columns is None:
            for rank in dict.fromkeys(rank for rank, _ in segments):
                by_oracle(rank)
            return
        line = 0
        for rank, n in segments:
            pieces.setdefault(rank, []).append(
                [column[line:line + n] for column in columns])
            line += n
        for rank in dict.fromkeys(rank for rank, _ in segments):
            if rank in read:
                finish(rank)

    for rank, path in paths:
        if path.endswith(".btrace"):
            flush()
            by_oracle(rank)
            if hashed:
                sources[rank] = _digest_file(path)
            continue
        digest = _SourceDigest() if hashed else None
        chunks = _whole_lines(_read_text(path, digest, BLOCK_BYTES))
        while True:
            try:
                chunk = next(chunks, None)
            except (OSError, EOFError, zlib.error):
                # Unreadable here: the oracle raises (or, if the trouble
                # was transient, reads) it, after every earlier file.
                block[:] = [seg for seg in block if seg[0] != rank]
                flush()
                by_oracle(rank)
                digest = None
                break
            if chunk is None:
                break
            if rank not in programs:    # else the oracle has it; hash on
                add(rank, chunk)
        read.add(rank)
        if rank not in programs and not (block and block[-1][0] == rank):
            finish(rank)
        if hashed:
            sources[rank] = (digest.value() if digest is not None
                             else _digest_file(path))
    flush()
    return programs, sources


# ---------------------------------------------------------------------------
# Windows: a rank file compiled a bounded piece at a time
# ---------------------------------------------------------------------------
#: Bytes of rank-file text one window holds (a longer line goes whole
#: into one window); a ``.btrace`` window holds a sixteenth as many
#: records, about what that much text spells.
WINDOW_BYTES = 2 * 1024


def compile_windows(source) -> List[Iterator[CompiledProgram]]:
    """Per rank, a lazy run of unfused program windows: the replay
    loop's feed under ``compiled="never"``, where ingest stays bounded
    per rank however long the trace.  A trace directory's rank files
    compile :data:`WINDOW_BYTES` at a time, when the replay reaches
    them; merged files and in-memory traces compile whole.  No sidecar
    is read or written."""
    if isinstance(source, (str, os.PathLike)) and os.path.isdir(source):
        return [_rank_windows(path, rank) for rank, path
                in enumerate(discover_trace_paths(os.fspath(source)))]
    return [iter((prog,)) for prog in compile_source(source, cache=False)[0]]


def _rank_windows(path: str, rank: int) -> Iterator[CompiledProgram]:
    if path.endswith(".btrace"):
        records = map(fields_of, read_binary_trace(
            path, expect_rank=rank, chunk_size=WINDOW_BYTES))
        while True:
            window = list(islice(records, max(1, WINDOW_BYTES // 16)))
            if not window:
                return
            yield _compile_records(window, rank)
    for text in _whole_lines(_read_text(path, None, WINDOW_BYTES)):
        columns = _tokenise_block(text, [(rank, text.count(b"\n"))])
        if columns is not None:
            yield CompiledProgram(rank, *columns)
            continue
        lines = io.TextIOWrapper(io.BytesIO(text), encoding="ascii")
        try:    # the oracle, over the same lines
            window = _compile_records(
                map(decode_tokens, rank_line_tokens(lines, path, rank)),
                rank)
        except ValueError:
            # Raise what the oracle raises for the whole file: a decode
            # error's position then counts from the file, not the window.
            _compile_rank_file(path, rank)
            raise
        yield window


# ---------------------------------------------------------------------------
# Compute fusion
# ---------------------------------------------------------------------------
def fuse_computes(prog: CompiledProgram) -> CompiledProgram:
    """Collapse runs of consecutive ``compute`` ops into single ops.

    The fused op's volume is the run's sum and its ``nsrc`` the run
    length, so per-action-type telemetry totals are preserved exactly.
    Returns a program with an ``nsrc`` column even when nothing fused
    (all-ones), so the driver's accounting is uniform.
    """
    if prog.fused:
        return prog
    ops = prog.ops
    n = len(ops)
    if n == 0:
        return CompiledProgram(prog.rank, ops, prog.arg, prog.vol,
                               prog.vol2,
                               nsrc=np.zeros(0, dtype=np.uint32),
                               n_src=0, fused=True, aux=prog.aux)
    is_comp = ops == OP_COMPUTE
    prev_comp = np.empty(n, dtype=bool)
    prev_comp[0] = False
    prev_comp[1:] = is_comp[:-1]
    keep = np.nonzero(~(is_comp & prev_comp))[0]
    if len(keep) == n:
        nsrc = np.ones(n, dtype=np.uint32)
        return CompiledProgram(prog.rank, ops, prog.arg, prog.vol,
                               prog.vol2, nsrc=nsrc, n_src=n, fused=True,
                               aux=prog.aux)
    nsrc = np.diff(np.append(keep, n)).astype(np.uint32)
    # Aux keys index ops; re-address them through the keep map.  Every
    # aux op is a collective, never a compute, so each key survives in
    # keep and searchsorted (keep is sorted) finds its new position.
    aux = prog.aux
    if aux:
        aux = {int(np.searchsorted(keep, k)): v for k, v in aux.items()}
    return CompiledProgram(
        prog.rank,
        ops[keep],
        prog.arg[keep],
        np.add.reduceat(prog.vol, keep),
        prog.vol2[keep],
        nsrc=nsrc,
        n_src=n,
        fused=True,
        aux=aux,
    )


# ---------------------------------------------------------------------------
# Diagnostics: format one op back into trace-line tokens
# ---------------------------------------------------------------------------
def op_tokens(prog: CompiledProgram, index: int) -> List[str]:
    """The trace-line token list of op ``index`` — built lazily for
    deadlock/fault diagnostics only, never on the replay hot path.  A
    fused compute renders as the summed compute it executes as."""
    splits = (prog.aux or {}).get(index, ())
    return encode_tokens(prog.rank, int(prog.ops[index]),
                         int(prog.arg[index]), float(prog.vol[index]),
                         float(prog.vol2[index]), splits)


# ---------------------------------------------------------------------------
# .tic sidecar I/O
# ---------------------------------------------------------------------------
class _Row(NamedTuple):
    """One rank's entry in a sidecar's table (see docs/trace-format.md)."""

    rank: int
    size: int           # source file bytes
    sha: bytes          # source file SHA-256
    n_ops: int
    n_src: int
    n_aux: int
    offset: int         # the rank's planes, from the start of the file
    nbytes: int
    name_len: int       # the source file name follows the row


def sidecar_path(source) -> str:
    """Where :func:`compile_source` caches the programs of a path
    source: one ``programs.tic`` per trace directory, ``<file>.tic``
    next to a merged trace file."""
    path = os.fspath(source)
    if os.path.isdir(path):
        return os.path.join(path, DIR_SIDECAR)
    return path + TIC_SUFFIX


def _digest_file(path: str) -> Tuple[int, bytes]:
    digest = _SourceDigest()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.value()


def _seal(n_rows: int, table) -> bytes:
    """The header's check on the table: any damage to the row count,
    the table length or a row is a miss, not a mis-addressed plane."""
    sha = hashlib.sha256(struct.pack("<IQ", n_rows, len(table)))
    sha.update(table)
    return sha.digest()


#: Directories whose sidecar writes already failed once: the first
#: failure gets a debug-level note, the rest stay silent.
_TIC_WRITE_FAILED_DIRS: set = set()


def _write_tic(path: str,
               entries: List[Tuple[str, Tuple[int, bytes],
                                   CompiledProgram]]) -> bool:
    """Publish a sidecar holding ``(source name, (size, SHA-256),
    program)`` entries, atomically: it is written to a temporary file of
    its own (named ``.*.tic``, so tree digests skip it) and renamed into
    place.  Best-effort: a read-only trace directory just means no disk
    cache, never a failed replay — and never a fallback to the streamed
    feed; the compiled programs live in memory."""
    table = bytearray()
    planes = []
    offset = _TIC_HEADER.size + sum(
        _TIC_ROW.size + len(name.encode("utf-8")) for name, _, _ in entries)
    for name, (size, sha), prog in entries:
        aux = sorted((prog.aux or {}).items())
        nbytes = (1 + 4 + 8 + 8) * prog.n_ops + sum(   # ops, arg, vol, vol2
            _TIC_AUX.size + 8 * len(splits) for _, splits in aux)
        name_bytes = name.encode("utf-8")
        table += _TIC_ROW.pack(prog.rank, size, sha, prog.n_ops, prog.n_src,
                               len(aux), offset, nbytes, len(name_bytes))
        table += name_bytes
        offset += nbytes
        planes.append((prog, aux))
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".",
                                   suffix=TIC_SUFFIX)
        with os.fdopen(fd, "wb") as handle:
            handle.write(_TIC_HEADER.pack(
                _TIC_MAGIC, _TIC_VERSION, OPCODE_SPACE_VERSION,
                len(entries), len(table), _seal(len(entries), table)))
            handle.write(table)
            for prog, aux in planes:
                handle.write(np.ascontiguousarray(prog.ops, dtype=np.uint8))
                handle.write(np.ascontiguousarray(prog.arg, dtype="<i4"))
                handle.write(np.ascontiguousarray(prog.vol, dtype="<f8"))
                handle.write(np.ascontiguousarray(prog.vol2, dtype="<f8"))
                for index, splits in aux:
                    handle.write(_TIC_AUX.pack(index, len(splits)))
                    handle.write(np.ascontiguousarray(splits, dtype="<f8"))
        os.replace(tmp, path)
        return True
    except OSError as exc:
        if tmp is not None:
            try:
                os.unlink(tmp)
            except OSError:
                pass
        if directory not in _TIC_WRITE_FAILED_DIRS:
            _TIC_WRITE_FAILED_DIRS.add(directory)
            logging.getLogger(__name__).debug(
                "cannot cache compiled programs under %s (%s); replay "
                "proceeds compiled, recompiling on every run",
                directory, exc,
            )
        return False


def _load_tic(path: str) -> Optional[Tuple[object, Dict[str, List[_Row]]]]:
    """A sidecar opened for :func:`_program_at`, with its table rows by
    source name — or None if it is missing, foreign, of another layout
    or opcode space, truncated or damaged: a miss, never an error."""
    try:
        handle = open(path, "rb")
    except OSError:
        return None
    try:
        file_bytes = os.fstat(handle.fileno()).st_size
        header = handle.read(_TIC_HEADER.size)
        magic, version, opspace, n_rows, table_bytes, seal = \
            _TIC_HEADER.unpack(header)
        # A sidecar from an older layout *or* an older opcode space is
        # a silent miss: recompile rather than decode opcodes the writer
        # never knew about.
        if (magic != _TIC_MAGIC or version != _TIC_VERSION
                or opspace != OPCODE_SPACE_VERSION
                or _TIC_HEADER.size + table_bytes > file_bytes):
            raise ValueError("foreign or truncated sidecar")
        table = handle.read(table_bytes)
        if len(table) != table_bytes or _seal(n_rows, table) != seal:
            raise ValueError("damaged table")
        rows: Dict[str, List[_Row]] = {}
        pos = 0
        plane = _TIC_HEADER.size + table_bytes
        for _ in range(n_rows):
            row = _Row._make(_TIC_ROW.unpack_from(table, pos))
            pos += _TIC_ROW.size + row.name_len
            name = table[pos - row.name_len:pos].decode("utf-8")
            if row.offset != plane:
                raise ValueError("planes out of order")
            plane += row.nbytes
            rows.setdefault(name, []).append(row)
        if pos != table_bytes or plane != file_bytes:
            raise ValueError("table and planes disagree")
        return handle, rows
    except (OSError, struct.error, ValueError):
        # (UnicodeDecodeError is a ValueError.)
        handle.close()
        return None


def _program_at(handle, row: _Row, rank: int) -> Optional[CompiledProgram]:
    """The program a table row addresses, read on its own (so a warm
    load allocates per rank, as the compiler does), or None if its
    planes do not add up to the row's byte count."""
    handle.seek(row.offset)
    data = handle.read(row.nbytes)
    n, pos = row.n_ops, 0
    try:
        ops = np.frombuffer(data, dtype=np.uint8, count=n, offset=pos).copy()
        pos += n
        arg = np.frombuffer(data, dtype="<i4", count=n,
                            offset=pos).astype(np.int32, copy=False)
        pos += 4 * n
        vol = np.frombuffer(data, dtype="<f8", count=n,
                            offset=pos).astype(np.float64, copy=False)
        pos += 8 * n
        vol2 = np.frombuffer(data, dtype="<f8", count=n,
                             offset=pos).astype(np.float64, copy=False)
        pos += 8 * n
        aux: Optional[Dict[int, np.ndarray]] = None
        for _ in range(row.n_aux):
            index, count = _TIC_AUX.unpack_from(data, pos)
            pos += _TIC_AUX.size
            if index >= n:
                return None
            if aux is None:
                aux = {}
            aux[index] = np.frombuffer(data, dtype="<f8", count=count,
                                       offset=pos).astype(np.float64,
                                                          copy=False)
            pos += 8 * count
    except (struct.error, ValueError):
        return None
    if pos != row.nbytes:
        return None
    return CompiledProgram(rank, ops, arg, vol, vol2, n_src=row.n_src,
                           aux=aux)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------
def compile_source(source, cache: bool = True,
                   force: bool = False
                   ) -> Tuple[List[CompiledProgram], CompileReport]:
    """Compile a trace source into per-rank programs.

    ``source`` is an :class:`~repro.core.trace.InMemoryTrace`, a trace
    directory, or a merged trace file — the same sources
    :meth:`TraceReplayer.replay` accepts.  Path sources use the ``.tic``
    sidecar cache (unless ``cache`` is False); ``force`` recompiles even
    when a fresh sidecar exists (and refreshes it).
    """
    t0 = time.perf_counter()
    report = CompileReport()
    if isinstance(source, InMemoryTrace):
        ranks = source.ranks()
        if ranks != list(range(len(ranks))):
            raise ValueError(
                f"trace ranks are not contiguous: {ranks[:10]}"
            )
        programs = [
            _compile_records(map(fields_of, source.actions_of(rank)), rank)
            for rank in ranks]
        report.cache_misses = len(programs)
    elif isinstance(source, (str, os.PathLike)):
        path = os.fspath(source)
        if os.path.isdir(path):
            programs = _compile_dir(path, cache, force, report)
        else:
            programs = _compile_merged(path, cache, force, report)
    else:
        raise TypeError(
            f"unsupported trace source {type(source).__name__}; pass an "
            "InMemoryTrace, a trace directory, or a merged trace file"
        )
    report.n_ranks = len(programs)
    report.n_ops = sum(p.n_ops for p in programs)
    report.n_src = sum(p.n_src for p in programs)
    report.wall_seconds = time.perf_counter() - t0
    return programs, report


def _compile_dir(directory: str, cache: bool, force: bool,
                 report: CompileReport) -> List[CompiledProgram]:
    paths = discover_trace_paths(directory)
    names = [os.path.basename(path) for path in paths]
    sidecar = sidecar_path(directory)
    programs: List[Optional[CompiledProgram]] = [None] * len(paths)
    sources: Dict[int, Tuple[int, bytes]] = {}
    loaded = _load_tic(sidecar) if cache and not force else None
    if loaded is not None:
        handle, rows = loaded
        with handle:
            for rank, path in enumerate(paths):
                found = rows.get(names[rank], ())
                if len(found) == 1:
                    sources[rank] = _digest_file(path)
                    if (found[0].size, found[0].sha) == sources[rank]:
                        programs[rank] = _program_at(handle, found[0], rank)
    misses = [rank for rank, prog in enumerate(programs) if prog is None]
    report.cache_hits += len(paths) - len(misses)
    report.cache_misses += len(misses)
    if not misses:
        return programs
    compiled, fresh = _compile_rank_files(
        [(rank, paths[rank]) for rank in misses], cache)
    for rank, prog in compiled.items():
        programs[rank] = prog
    sources.update(fresh)
    if cache and _write_tic(sidecar, [
            (name, sources[rank], programs[rank])
            for rank, name in enumerate(names)]):
        report.artifacts.append(sidecar)
        _drop_rank_sidecars(directory, names)
    return programs


def _drop_rank_sidecars(directory: str, names: List[str]) -> None:
    """Delete the per-rank ``<source>.tic`` files older layouts left
    (best effort): the directory sidecar supersedes them."""
    try:
        present = set(os.listdir(directory))
    except OSError:
        return
    for name in names:
        if name + TIC_SUFFIX in present:
            try:
                os.unlink(os.path.join(directory, name + TIC_SUFFIX))
            except OSError:
                pass


def _compile_merged(path: str, cache: bool, force: bool,
                    report: CompileReport) -> List[CompiledProgram]:
    sidecar = sidecar_path(path)
    name = os.path.basename(path)
    source = _digest_file(path) if cache else None
    loaded = _load_tic(sidecar) if cache and not force else None
    if loaded is not None:
        handle, rows = loaded
        with handle:
            found = rows.get(name, ())
            programs = [_program_at(handle, row, rank)
                        for rank, row in enumerate(found)
                        if (row.size, row.sha) == source]
        if found and len(programs) == len(found) and None not in programs:
            report.cache_hits += len(programs)
            return programs
    builders: Dict[int, _Builder] = {}
    # One extend() per run of consecutive lines of the same rank.
    for rank, run in groupby(merged_file_tokens(path), key=itemgetter(0)):
        builder = builders.get(rank)
        if builder is None:
            builder = builders[rank] = _Builder()
        builder.extend(decode_tokens(tokens) for _, tokens in run)
    rank_list = sorted(builders)
    if rank_list != list(range(len(rank_list))):
        raise ValueError(
            f"{path}: ranks are not contiguous: {rank_list[:10]}"
        )
    programs = [builders[rank].finish(rank) for rank in rank_list]
    report.cache_misses += len(programs)
    if cache and _write_tic(sidecar,
                            [(name, source, prog) for prog in programs]):
        report.artifacts.append(sidecar)
    return programs
