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

Compiled programs are cached on disk as ``.tic`` sidecars next to the
trace files (``SG_process3.trace.tic``; a merged file gets one container
sidecar).  A sidecar embeds the SHA-256 of the source file's bytes and
is rebuilt automatically whenever the source changes — a ``.tic`` can
never go stale.  Sidecars are *derived* artifacts: the campaign cache's
tree digest skips them, so warming the compile cache does not change any
scenario's content address.

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

import hashlib
import logging
import os
import struct
import time
from dataclasses import dataclass, field
from itertools import groupby, repeat
from operator import itemgetter
from typing import Dict, List, Optional, Tuple

import numpy as np

from .actions import (
    ACTION_TABLE, OPCODE_SPACE_VERSION, decode_tokens, encode_tokens,
    fields_of,
)
from .binfmt import read_binary_trace
from .trace import (
    InMemoryTrace, discover_trace_paths, merged_file_tokens,
    rank_file_tokens,
)

# OP_COMPUTE, OP_SEND, ... OP_ALLTOALLV: one constant per table row.
_OP_NAMES = {f"OP_{row.keyword.upper()}": row.opcode for row in ACTION_TABLE}
globals().update(_OP_NAMES)

__all__ = [
    "CompiledProgram", "CompileReport", "compile_source", "fuse_computes",
    "op_tokens", "tic_path_for", "TIC_SUFFIX", *_OP_NAMES,
]

#: Compiled-program sidecar suffix, appended to the source file name.
TIC_SUFFIX = ".tic"

_TIC_MAGIC = b"TICP0001"
#: v2: per-rank aux blocks (allToAllv split tables) joined the layout,
#: and the header's flags field now carries the opcode-space version —
#: a sidecar compiled under an older opcode space is a cache miss, so
#: pre-existing ``.tic`` files recompile instead of being decoded with
#: opcodes they never knew.
_TIC_VERSION = 2
_TIC_HEADER = struct.Struct("<8sHHI")   # magic, version, opcode space, n_ranks
_TIC_BLOCK = struct.Struct("<IQQI")     # rank, n_ops, n_src, n_aux
_TIC_AUX = struct.Struct("<QI")         # op index, split count


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
        vol2, splits), nsrc)`` pair per op.  The columns become plain
        lists with one C-level ``.tolist()`` each — list iteration beats
        NumPy scalar extraction ~3x in a per-op loop."""
        splits = [None] * self.n_ops
        for index, table in (self.aux or {}).items():
            splits[index] = table.tolist()
        nsrc = repeat(1) if self.nsrc is None else self.nsrc.tolist()
        return zip(zip(self.ops.tolist(), self.arg.tolist(),
                       self.vol.tolist(), self.vol2.tolist(), splits), nsrc)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = "fused" if self.fused else "unfused"
        return (f"CompiledProgram(p{self.rank}, {self.n_ops} ops / "
                f"{self.n_src} actions, {tag})")


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
    if path.endswith(".btrace"):
        return _compile_records(
            map(fields_of, read_binary_trace(path, expect_rank=rank)), rank)
    return _compile_records(
        map(decode_tokens, rank_file_tokens(path, rank)), rank)


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
def tic_path_for(source_path: str) -> str:
    """Sidecar path of a trace file (``SG_process3.trace`` ->
    ``SG_process3.trace.tic``)."""
    return source_path + TIC_SUFFIX


def _digest_file(path: str) -> bytes:
    h = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            h.update(chunk)
    return h.digest()


#: Directories whose sidecar writes already failed once: the first
#: failure gets a debug-level note, the rest stay silent.  A read-only
#: 1024-rank trace directory would otherwise be 1024 chances to spam.
_TIC_WRITE_FAILED_DIRS: set = set()


def _write_tic(path: str, programs: List[CompiledProgram],
               source_digest: bytes) -> bool:
    """Write a sidecar (best-effort: a read-only trace directory just
    means no disk cache, never a failed replay — and never a fallback
    to the streamed feed; the compiled programs live in memory)."""
    try:
        tmp = path + ".tmp"
        with open(tmp, "wb") as handle:
            handle.write(_TIC_HEADER.pack(_TIC_MAGIC, _TIC_VERSION,
                                          OPCODE_SPACE_VERSION,
                                          len(programs)))
            handle.write(source_digest)
            for prog in programs:
                aux = prog.aux or {}
                handle.write(_TIC_BLOCK.pack(prog.rank, prog.n_ops,
                                             prog.n_src, len(aux)))
                handle.write(np.ascontiguousarray(prog.ops).tobytes())
                handle.write(np.ascontiguousarray(
                    prog.arg, dtype="<i4").tobytes())
                handle.write(np.ascontiguousarray(
                    prog.vol, dtype="<f8").tobytes())
                handle.write(np.ascontiguousarray(
                    prog.vol2, dtype="<f8").tobytes())
                for index in sorted(aux):
                    splits = np.ascontiguousarray(aux[index], dtype="<f8")
                    handle.write(_TIC_AUX.pack(index, len(splits)))
                    handle.write(splits.tobytes())
        os.replace(tmp, path)
        return True
    except OSError as exc:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        directory = os.path.dirname(os.path.abspath(path))
        if directory not in _TIC_WRITE_FAILED_DIRS:
            _TIC_WRITE_FAILED_DIRS.add(directory)
            logging.getLogger(__name__).debug(
                "cannot cache compiled programs under %s (%s); replay "
                "proceeds compiled, recompiling on every run",
                directory, exc,
            )
        return False


def _load_tic(path: str,
              source_digest: bytes) -> Optional[List[CompiledProgram]]:
    """Load a sidecar if it exists and matches the source bytes; any
    mismatch or corruption is a cache miss, never an error."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError:
        return None
    try:
        if len(data) < _TIC_HEADER.size + 32:
            return None
        magic, version, opspace, n_ranks = _TIC_HEADER.unpack_from(data, 0)
        if (magic != _TIC_MAGIC or version != _TIC_VERSION
                or opspace != OPCODE_SPACE_VERSION):
            # A sidecar from an older layout *or* an older opcode space
            # (pre-v2 files wrote 0 here) is a silent miss: recompile
            # rather than decode opcodes the writer never knew about.
            return None
        pos = _TIC_HEADER.size
        if data[pos:pos + 32] != source_digest:
            return None  # source bytes changed: rebuild
        pos += 32
        programs = []
        for _ in range(n_ranks):
            rank, n_ops, n_src, n_aux = _TIC_BLOCK.unpack_from(data, pos)
            pos += _TIC_BLOCK.size
            ops = np.frombuffer(data, dtype=np.uint8, count=n_ops,
                                offset=pos).copy()
            pos += n_ops
            arg = np.frombuffer(data, dtype="<i4", count=n_ops,
                                offset=pos).astype(np.int32, copy=False)
            pos += 4 * n_ops
            vol = np.frombuffer(data, dtype="<f8", count=n_ops,
                                offset=pos).astype(np.float64, copy=False)
            pos += 8 * n_ops
            vol2 = np.frombuffer(data, dtype="<f8", count=n_ops,
                                 offset=pos).astype(np.float64, copy=False)
            pos += 8 * n_ops
            aux: Optional[Dict[int, np.ndarray]] = None
            for _a in range(n_aux):
                index, count = _TIC_AUX.unpack_from(data, pos)
                pos += _TIC_AUX.size
                splits = np.frombuffer(data, dtype="<f8", count=count,
                                       offset=pos).astype(np.float64,
                                                          copy=False)
                if len(splits) != count:
                    return None
                pos += 8 * count
                if aux is None:
                    aux = {}
                aux[int(index)] = splits
            programs.append(CompiledProgram(rank, ops, arg, vol, vol2,
                                            n_src=n_src, aux=aux))
        return programs
    except (struct.error, ValueError):
        return None


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
    programs = []
    for rank, path in enumerate(discover_trace_paths(directory)):
        sidecar = tic_path_for(path)
        digest = _digest_file(path) if cache else b""
        loaded = None
        if cache and not force:
            loaded = _load_tic(sidecar, digest)
        if loaded is not None and len(loaded) == 1:
            report.cache_hits += 1
            prog = loaded[0]
            prog.rank = rank
        else:
            report.cache_misses += 1
            prog = _compile_rank_file(path, rank)
            if cache and _write_tic(sidecar, [prog], digest):
                report.artifacts.append(sidecar)
        programs.append(prog)
    return programs


def _compile_merged(path: str, cache: bool, force: bool,
                    report: CompileReport) -> List[CompiledProgram]:
    sidecar = tic_path_for(path)
    digest = _digest_file(path) if cache else b""
    if cache and not force:
        loaded = _load_tic(sidecar, digest)
        if loaded is not None:
            report.cache_hits += len(loaded)
            return loaded
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
    if cache and _write_tic(sidecar, programs, digest):
        report.artifacts.append(sidecar)
    return programs
