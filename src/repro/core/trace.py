"""Time-independent trace containers and I/O.

A *trace set* is the complete time-independent trace of one application
run: one action stream per MPI rank.  The paper stores either one file per
process (``SG_process<rank>.trace``, Fig. 2 — the layout produced by the
gathering step) or a single merged file (the Fig. 1 layout, handy for
small instances).  Both layouts are supported here, for reading and
writing.

Because trace size is itself an evaluation metric (Table 3, §6.5), writing
is routed through pluggable *sinks*; :class:`SizeAccountant` computes the
exact on-disk byte count and action count of a trace without writing it —
the byte layout is deterministic (see :func:`format_action`) — and tests
assert the accountant agrees with ``os.stat`` on really-written files.
"""

from __future__ import annotations

import gzip
import os
import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from .actions import (
    Action, action_of, decode_tokens, format_action, parse_process_id,
)
from .binfmt import read_binary_trace

__all__ = [
    "TraceSink",
    "InMemoryTrace",
    "FileTraceWriter",
    "SizeAccountant",
    "TeeSink",
    "SizeReport",
    "trace_file_name",
    "discover_trace_paths",
    "read_trace_file",
    "read_trace_dir",
    "stream_trace_dir",
    "read_merged_trace",
    "write_merged_trace",
    "rank_file_tokens",
    "rank_line_tokens",
    "merged_file_tokens",
    "estimate_gzip_ratio",
]


def trace_file_name(rank: int) -> str:
    """Per-process trace file name used throughout (paper Fig. 2)."""
    return f"SG_process{rank}.trace"


class TraceSink:
    """Receives the action stream of an application run."""

    def emit(self, action: Action) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Flush and release resources (idempotent)."""


class InMemoryTrace(TraceSink):
    """Keeps every action per rank; the workhorse for tests and replay."""

    def __init__(self) -> None:
        self.by_rank: Dict[int, List[Action]] = {}

    def emit(self, action: Action) -> None:
        self.by_rank.setdefault(action.rank, []).append(action)

    def ranks(self) -> List[int]:
        return sorted(self.by_rank)

    def actions_of(self, rank: int) -> List[Action]:
        return self.by_rank.get(rank, [])

    def n_actions(self) -> int:
        return sum(len(v) for v in self.by_rank.values())

    def lines_of(self, rank: int) -> List[str]:
        return [format_action(a) for a in self.actions_of(rank)]


@dataclass
class SizeReport:
    """Exact size/count of a time-independent trace set."""

    n_actions: int = 0
    n_bytes: int = 0
    per_rank_actions: Dict[int, int] = field(default_factory=dict)
    per_rank_bytes: Dict[int, int] = field(default_factory=dict)

    @property
    def mib(self) -> float:
        return self.n_bytes / (1024.0 * 1024.0)


class SizeAccountant(TraceSink):
    """Counts exactly what :class:`FileTraceWriter` would write.

    Each action costs ``len(format_action(a)) + 1`` bytes (the newline).
    """

    def __init__(self) -> None:
        self.report = SizeReport()

    def emit(self, action: Action) -> None:
        nbytes = len(format_action(action)) + 1
        rep = self.report
        rep.n_actions += 1
        rep.n_bytes += nbytes
        rep.per_rank_actions[action.rank] = (
            rep.per_rank_actions.get(action.rank, 0) + 1
        )
        rep.per_rank_bytes[action.rank] = (
            rep.per_rank_bytes.get(action.rank, 0) + nbytes
        )


class FileTraceWriter(TraceSink):
    """Writes one ``SG_process<rank>.trace`` per rank under ``directory``.

    With ``compress=True`` the files are gzip-compressed (the paper's
    future-work item on trace size; §6.5 reports the gzip ratio).
    """

    def __init__(self, directory: str, compress: bool = False) -> None:
        os.makedirs(directory, exist_ok=True)
        self.directory = directory
        self.compress = compress
        self._handles: Dict[int, object] = {}
        self.accountant = SizeAccountant()

    def path_of(self, rank: int) -> str:
        name = trace_file_name(rank) + (".gz" if self.compress else "")
        return os.path.join(self.directory, name)

    def _handle(self, rank: int):
        handle = self._handles.get(rank)
        if handle is None:
            path = self.path_of(rank)
            if self.compress:
                handle = gzip.open(path, "wt", encoding="ascii")
            else:
                handle = open(path, "w", encoding="ascii", buffering=1 << 16)
            self._handles[rank] = handle
        return handle

    def emit(self, action: Action) -> None:
        self._handle(action.rank).write(format_action(action) + "\n")
        self.accountant.emit(action)

    def close(self) -> None:
        for handle in self._handles.values():
            handle.close()
        self._handles.clear()

    @property
    def report(self) -> SizeReport:
        """Uncompressed size report (bytes as written without gzip)."""
        return self.accountant.report


class TeeSink(TraceSink):
    """Duplicates the action stream to several sinks."""

    def __init__(self, *sinks: TraceSink) -> None:
        self.sinks = list(sinks)

    def emit(self, action: Action) -> None:
        for sink in self.sinks:
            sink.emit(action)

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()


# ---------------------------------------------------------------------------
# Reading
# ---------------------------------------------------------------------------

#: A rank file name as :func:`trace_file_name` and
#: :func:`~.binfmt.binary_trace_file_name` spell it.
_RANK_FILE = re.compile(r"SG_process(0|[1-9][0-9]*)\.(trace|trace\.gz|btrace)")


def _open_maybe_gzip(path: str):
    if path.endswith(".gz"):
        return gzip.open(path, "rt", encoding="ascii")
    return open(path, "r", encoding="ascii")


def rank_line_tokens(lines: Iterable[str], path: str,
                     rank: int) -> Iterator[List[str]]:
    """The token lists of lines of ``path``, the text trace of one rank:
    blank and ``#`` lines skipped, every line checked to belong to
    ``p<rank>``."""
    prefix = f"p{rank}"
    for line in lines:
        tokens = line.split()
        if tokens and tokens[0] == prefix:
            yield tokens
        elif tokens and not tokens[0].startswith("#"):
            raise ValueError(
                f"{path}: line for {tokens[0]} in trace of p{rank}")


def rank_file_tokens(path: str, rank: int) -> Iterator[List[str]]:
    """:func:`rank_line_tokens` over a per-process text trace file."""
    with _open_maybe_gzip(path) as handle:
        yield from rank_line_tokens(handle, path, rank)


def merged_file_tokens(path: str) -> Iterator[Tuple[int, List[str]]]:
    """``(rank, tokens)`` per line of a merged (Fig. 1) trace file, with
    the process id strictly ``p<digits>``."""
    with _open_maybe_gzip(path) as handle:
        for line in handle:
            tokens = line.split()
            if not tokens or tokens[0].startswith("#"):
                continue
            try:
                rank = parse_process_id(tokens[0])
            except ValueError as exc:
                raise ValueError(
                    f"{path}: {exc} in trace line {line.strip()!r}"
                ) from None
            yield rank, tokens


def read_trace_file(path: str, expect_rank: Optional[int] = None
                    ) -> Iterator[Action]:
    """Stream the actions of one trace file: per-process with
    ``expect_rank``, any ranks (the merged layout) without."""
    if expect_rank is None:
        for rank, tokens in merged_file_tokens(path):
            yield action_of(rank, *decode_tokens(tokens))
    else:
        for tokens in rank_file_tokens(path, expect_rank):
            yield action_of(expect_rank, *decode_tokens(tokens))


def discover_trace_paths(directory: str,
                         binary: bool = True) -> List[str]:
    """Per-rank trace paths in ``directory``, indexed by rank.

    Ranks run densely from 0 (the Fig. 2 layout); each rank may be
    stored as ``SG_process<rank>.trace``, its ``.gz`` variant, or (with
    ``binary=True``) the ``.btrace`` binary format.  A rank file past a
    missing rank is a :class:`ValueError`, never a shorter trace set.
    Every reader and the replayer discover through here, so they can
    never disagree on which files make up a trace set.
    """
    paths: List[str] = []
    suffixes = (".trace", ".trace.gz") + ((".btrace",) if binary else ())
    while True:
        stem = os.path.join(directory, f"SG_process{len(paths)}")
        path = next((stem + suffix for suffix in suffixes
                     if os.path.exists(stem + suffix)), None)
        if path is None:
            break
        paths.append(path)
    if not paths:
        kinds = "[.gz|.btrace]" if binary else "[.gz]"
        raise FileNotFoundError(
            f"no {trace_file_name(0)}{kinds} found in {directory!r}"
        )
    for name in sorted(os.listdir(directory)):
        match = _RANK_FILE.fullmatch(name)
        if (match and int(match[1]) > len(paths)
                and "." + match[2] in suffixes):
            raise ValueError(
                f"{directory}: no trace file for p{len(paths)}, but "
                f"{name} exists; ranks must be contiguous from 0")
    return paths


def stream_trace_dir(directory: str) -> List[Iterator[Action]]:
    """One lazy action iterator per rank over a trace directory: each
    holds one open file and decodes on demand, so walking a trace set
    keeps O(ranks) state however many events the files hold."""
    def stream(path: str, rank: int) -> Iterator[Action]:
        if path.endswith(".btrace"):
            return read_binary_trace(path, expect_rank=rank)
        return read_trace_file(path, expect_rank=rank)

    return [stream(path, rank)
            for rank, path in enumerate(discover_trace_paths(directory))]


def read_trace_dir(directory: str) -> InMemoryTrace:
    """Load a directory of ``SG_process<rank>.trace[.gz]`` files."""
    trace = InMemoryTrace()
    for rank, path in enumerate(discover_trace_paths(directory,
                                                     binary=False)):
        for action in read_trace_file(path, expect_rank=rank):
            trace.emit(action)
    return trace


def read_merged_trace(path: str) -> InMemoryTrace:
    """Load a single merged trace file (the Fig. 1 layout)."""
    trace = InMemoryTrace()
    for action in read_trace_file(path):
        trace.emit(action)
    return trace


def write_merged_trace(trace: InMemoryTrace, path: str) -> int:
    """Write all ranks into one file, rank-major; returns bytes written."""
    nbytes = 0
    with open(path, "w", encoding="ascii") as handle:
        for rank in trace.ranks():
            for action in trace.actions_of(rank):
                line = format_action(action) + "\n"
                handle.write(line)
                nbytes += len(line)
    return nbytes


def estimate_gzip_ratio(
    lines: Iterable[str],
    sample_limit: int = 200_000,
    level: int = 6,
) -> float:
    """Compression ratio (plain/compressed) of a trace, from a sample.

    §6.5 reports the class-D trace compressing from 32.5 GiB to 1.2 GiB
    (ratio ~27).  Compressing tens of GiB to measure that is pointless:
    trace text is locally self-similar, so gzip's ratio on a large sample
    of lines converges to the full-file ratio.
    """
    sampled = []
    nbytes = 0
    for line in lines:
        sampled.append(line)
        nbytes += len(line) + 1
        if len(sampled) >= sample_limit:
            break
    if not sampled:
        raise ValueError("cannot estimate compression of an empty trace")
    blob = ("\n".join(sampled) + "\n").encode("ascii")
    compressed = gzip.compress(blob, compresslevel=level)
    return len(blob) / len(compressed)
