"""Time-independent trace containers and I/O.

A *trace set* is the complete time-independent trace of one application
run: one action stream per MPI rank.  The paper stores either one file per
process (``SG_process<rank>.trace``, Fig. 2 — the layout produced by the
gathering step) or a single merged file (the Fig. 1 layout, handy for
small instances).  A rank file may also be gzipped (``.trace.gz``) or in
the §7 binary format (``.btrace``).

This module is the only place that knows the per-process layout: every
generator, importer, extractor and converter writes rank files through
:func:`write_rank_file`, and every reader finds them through
:func:`discover_trace_paths`.
"""

from __future__ import annotations

import gzip
import os
import re
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from .actions import (
    Action, action_of, decode_tokens, format_action, parse_process_id,
)
from .binfmt import (
    binary_trace_file_name, read_binary_trace, write_binary_trace,
)

__all__ = [
    "InMemoryTrace",
    "trace_file_name",
    "write_rank_file",
    "discover_trace_paths",
    "is_rank_file",
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


class InMemoryTrace:
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


def write_rank_file(directory: str, rank: int, actions: Iterable[Action],
                    binary: bool = False) -> Tuple[int, int]:
    """Write ``rank``'s file of a per-process trace set in ``directory``
    (``SG_process<rank>.trace``, or ``.btrace`` with ``binary``) and
    return ``(n_actions, n_bytes)``.  Streams: one action is in memory
    at a time, however long ``actions`` runs."""
    if binary:
        return write_binary_trace(
            actions, rank,
            os.path.join(directory, binary_trace_file_name(rank)))
    n_actions = 0
    with open(os.path.join(directory, trace_file_name(rank)), "w",
              encoding="ascii", buffering=1 << 16) as handle:
        for n_actions, action in enumerate(actions, 1):
            handle.write(format_action(action) + "\n")
        return n_actions, handle.tell()


# ---------------------------------------------------------------------------
# Reading
# ---------------------------------------------------------------------------

#: A rank file name as :func:`trace_file_name` and
#: :func:`~.binfmt.binary_trace_file_name` spell it.
_RANK_FILE = re.compile(r"SG_process(0|[1-9][0-9]*)\.(trace|trace\.gz|btrace)")


def is_rank_file(name: str) -> bool:
    """Whether ``name`` names a rank file, in any of its encodings."""
    return _RANK_FILE.fullmatch(name) is not None


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


def discover_trace_paths(directory: str) -> List[str]:
    """Per-rank trace paths in ``directory``, indexed by rank.

    Ranks run densely from 0 (the Fig. 2 layout); each rank is stored
    once, as ``SG_process<rank>.trace``, its ``.gz`` variant, or the
    ``.btrace`` binary format, mixed freely.  A rank file past a missing
    rank is a :class:`ValueError`, never a shorter trace set, and so is
    a rank stored twice, never a silent pick of one file.  Every
    reader, the converter and the replayer discover through here, so
    they can never disagree on which files make up a trace set.
    """
    paths: List[str] = []
    while True:
        stem = os.path.join(directory, f"SG_process{len(paths)}")
        path = next((stem + suffix
                     for suffix in (".trace", ".trace.gz", ".btrace")
                     if os.path.exists(stem + suffix)), None)
        if path is None:
            break
        paths.append(path)
    if not paths:
        raise FileNotFoundError(
            f"no {trace_file_name(0)}[.gz|.btrace] found in {directory!r}"
        )
    for name in sorted(os.listdir(directory)):
        match = _RANK_FILE.fullmatch(name)
        if not match:
            continue
        rank = int(match[1])
        if rank > len(paths):
            raise ValueError(
                f"{directory}: no trace file for p{len(paths)}, but "
                f"{name} exists; ranks must be contiguous from 0")
        if rank < len(paths) and os.path.basename(paths[rank]) != name:
            raise ValueError(
                f"{directory}: p{rank} is stored twice, as "
                f"{os.path.basename(paths[rank])} and {name}; remove one")
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
    """Load a trace directory, in any layout :func:`stream_trace_dir`
    reads."""
    trace = InMemoryTrace()
    for rank, stream in enumerate(stream_trace_dir(directory)):
        trace.by_rank[rank] = list(stream)
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
