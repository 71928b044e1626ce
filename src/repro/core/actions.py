"""The time-independent trace actions: the paper's Table 1, written once.

Each line of a time-independent trace describes one action of one MPI
process: the id of the acting process (``p<rank>``, as in the paper's
Fig. 1), the action keyword, and volumes in flops or bytes — never a
time-stamp.  :data:`ACTION_TABLE` below is the one statement of that
action set — Table 1's eleven entries plus four collectives for
AI-training traffic (``allToAll``, ``allToAllv``, ``allGather``,
``reduceScatter``) — and :func:`decode_tokens` / :func:`encode_tokens` /
:func:`fields_of` / :func:`action_of` are the only code that switches on
an action's shape; every codec, the compiler and both replay drivers go
through them.  docs/trace-format.md is the prose version (MPI call per
row, what each volume means, the rejected-input contract).

Collectives involve all processes (MPI_Comm_split is not part of the
format) and are rooted at process 0; a ``comm_size`` action must precede
the first collective in every process's trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Tuple

__all__ = [
    "Action", "Compute", "Send", "Isend", "Recv", "Irecv", "Bcast",
    "Reduce", "AllReduce", "Barrier", "CommSize", "Wait",
    "AllToAll", "AllToAllv", "AllGather", "ReduceScatter",
    "ActionSpec", "ACTION_TABLE", "ACTION_NAMES", "OPCODE_OF",
    "NAME_OF_OPCODE", "OPCODE_SPACE_VERSION", "SHAPE_LAYOUT",
    "decode_tokens", "encode_tokens", "fields_of", "action_of",
    "parse_process_id", "check_splits", "MAX_ARG",
    "format_action", "parse_action", "format_volume",
]

#: Tolerance of the allToAllv split-sum consistency check: exact for the
#: integral volumes traces normally carry, forgiving only float rounding
#: for the escape-hatch non-integral ones.
SPLIT_SUM_ATOL = 1e-6
SPLIT_SUM_RTOL = 1e-9

#: Largest peer rank or communicator size: the compiled ``arg`` column
#: that carries them is int32.
MAX_ARG = 2 ** 31 - 1


def format_volume(value: float) -> str:
    """Canonical text form of a volume: integral values print as integers
    (``163840``), others in shortest float form.  Deterministic, so trace
    sizes are exactly reproducible."""
    integral = int(value)
    if value == integral and abs(value) < 1e16:
        return str(integral)
    return repr(float(value))


def check_splits(total: float, splits: Sequence[float]) -> None:
    """The allToAllv consistency contract: at least one split size, all
    of them and the total finite and non-negative, summing to the total."""
    if not splits:
        raise ValueError("allToAllv needs at least one split size")
    for s in splits:
        if not math.isfinite(s) or s < 0:
            raise ValueError(
                f"allToAllv split sizes must be >= 0 and finite, got {s}")
    if not math.isfinite(total) or total < 0:
        raise ValueError(f"allToAllv total must be >= 0, got {total}")
    s = math.fsum(splits)
    if abs(s - total) > SPLIT_SUM_ATOL + SPLIT_SUM_RTOL * abs(total):
        raise ValueError(
            f"allToAllv split sizes sum to {s:g} but the total says "
            f"{total:g} — inconsistent record")


@dataclass(frozen=True)
class Action:
    """Base class: every action belongs to one process ``rank``.  The
    trace keyword ``name`` of each concrete class comes from its
    :data:`ACTION_TABLE` row."""

    rank: int

    name = "?"

    def args(self) -> List[str]:
        """The trace-line tokens after the keyword."""
        return encode_tokens(self.rank, *fields_of(self))[2:]

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ValueError(f"rank must be >= 0, got {self.rank}")


@dataclass(frozen=True)
class _Volume(Action):
    volume: float  # flops (compute) or bytes

    def __post_init__(self) -> None:
        super().__post_init__()
        if not math.isfinite(self.volume) or self.volume < 0:
            raise ValueError(
                f"{self.name} volume must be >= 0, got {self.volume}")


class Compute(_Volume):
    """A CPU burst of ``volume`` flops."""


class Bcast(_Volume):
    """Broadcast of ``volume`` bytes from process 0."""


class AllToAll(_Volume):
    """Uniform all-to-all: every rank sends ``volume`` bytes to every
    other rank (the own-rank share stays local)."""


class AllGather(_Volume):
    """All-gather: every rank contributes ``volume`` bytes and ends up
    with all ``size * volume`` bytes."""


@dataclass(frozen=True)
class _PointToPoint(Action):
    peer: int      # destination (sends) or source (receives)
    volume: float  # bytes

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0 <= self.peer <= MAX_ARG:
            raise ValueError(
                f"peer rank must be in [0, {MAX_ARG}], got {self.peer}")
        if not math.isfinite(self.volume) or self.volume < 0:
            raise ValueError(f"message volume must be >= 0, got {self.volume}")


class Send(_PointToPoint):
    """Blocking send of ``volume`` bytes to ``peer``."""


class Isend(_PointToPoint):
    """Detached send of ``volume`` bytes to ``peer``."""


class Recv(_PointToPoint):
    """Blocking receive of ``volume`` bytes from ``peer``."""


class Irecv(_PointToPoint):
    """Posted receive from ``peer``; a later ``wait`` completes it."""


@dataclass(frozen=True)
class _ReduceLike(Action):
    vcomm: float  # bytes moved
    vcomp: float  # flops of the reduction operator

    def __post_init__(self) -> None:
        super().__post_init__()
        if (not math.isfinite(self.vcomm) or self.vcomm < 0
                or not math.isfinite(self.vcomp) or self.vcomp < 0):
            raise ValueError("reduce volumes must be >= 0 and finite")


class Reduce(_ReduceLike):
    """Reduce to process 0."""


class AllReduce(_ReduceLike):
    """Reduce to process 0, then broadcast the result."""


class ReduceScatter(_ReduceLike):
    """Reduce-scatter: ``vcomm`` bytes contributed per rank are reduced
    (``vcomp`` flops per contribution) and each rank keeps a
    ``vcomm / size`` share."""


@dataclass(frozen=True)
class AllToAllv(Action):
    """Vector all-to-all: ``splits[i]`` bytes go to process i (the
    own-rank slot stays local); the splits must sum to ``total``.

    Unlike every other collective, the volumes legitimately differ per
    rank — the validator checks split *count* agreement across ranks,
    and the replay's pairwise exchange takes each edge's volume from the
    sender's split, so asymmetric routing matrices replay exactly.
    """

    total: float            # sum of splits, bytes
    splits: Tuple[float, ...]  # per-destination bytes, len == comm size

    def __post_init__(self) -> None:
        super().__post_init__()
        splits = tuple(float(s) for s in self.splits)
        object.__setattr__(self, "splits", splits)
        check_splits(self.total, splits)


class Barrier(Action):
    """Synchronise all processes."""


@dataclass(frozen=True)
class CommSize(Action):
    size: int  # number of processes in the communicator

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 1 <= self.size <= MAX_ARG:
            raise ValueError(f"communicator size must be in [1, {MAX_ARG}], "
                             f"got {self.size}")


class Wait(Action):
    """Complete the oldest pending ``Irecv``."""


# ---------------------------------------------------------------------------
# The action table: the one place the format is written down
# ---------------------------------------------------------------------------
# Shapes: what follows the keyword on a trace line.  Every encoding (text,
# ``.btrace`` records, compiled ``.tic`` columns) carries the same five
# fields ``(op, arg, vol, vol2, splits)``; the shape says which are used.
NONE = "none"                  # <id> barrier
VOL = "vol"                    # <id> compute <vol>
PEER_VOL = "peer+vol"          # <id> send p<arg> <vol>
VOL_VOL2 = "vol+vol2"          # <id> reduce <vol> <vol2>
SIZE = "size"                  # <id> comm_size <arg>
TOTAL_SPLITS = "total+splits"  # <id> allToAllv <vol> <splits...>; arg = count

#: Per shape: whether ``arg`` is used, and how many volumes follow it
#: (``None``: the total plus ``arg`` split sizes).  What a shape-generic
#: codec needs to know; see :mod:`repro.core.binfmt`.
SHAPE_LAYOUT = {
    NONE: (False, 0), VOL: (False, 1), PEER_VOL: (True, 1),
    VOL_VOL2: (False, 2), SIZE: (True, 0), TOTAL_SPLITS: (True, None),
}


class ActionSpec(NamedTuple):
    keyword: str   # the trace-line keyword
    opcode: int    # the .btrace / .tic opcode — never renumbered
    cls: type      # the Action class
    shape: str


ACTION_TABLE = (
    ActionSpec("compute", 1, Compute, VOL),
    ActionSpec("send", 2, Send, PEER_VOL),
    ActionSpec("Isend", 3, Isend, PEER_VOL),
    ActionSpec("recv", 4, Recv, PEER_VOL),
    ActionSpec("Irecv", 5, Irecv, PEER_VOL),
    ActionSpec("bcast", 6, Bcast, VOL),
    ActionSpec("reduce", 7, Reduce, VOL_VOL2),
    ActionSpec("allReduce", 8, AllReduce, VOL_VOL2),
    ActionSpec("barrier", 9, Barrier, NONE),
    ActionSpec("comm_size", 10, CommSize, SIZE),
    ActionSpec("wait", 11, Wait, NONE),
    ActionSpec("allToAll", 12, AllToAll, VOL),
    ActionSpec("allGather", 13, AllGather, VOL),
    ActionSpec("reduceScatter", 14, ReduceScatter, VOL_VOL2),
    ActionSpec("allToAllv", 15, AllToAllv, TOTAL_SPLITS),
)

#: Version of the opcode *space* (which opcodes exist and what their
#: payloads mean), independent of the container formats that embed it.
#: v1: the original Table 1 set (opcodes 1-11).
#: v2: the AI-workload collectives allToAll/allGather/reduceScatter/
#: allToAllv (opcodes 12-15).  Derived caches (the ``.tic`` sidecars of
#: :mod:`repro.core.compile`) key on this so programs compiled under an
#: older space recompile instead of mis-decoding new opcodes.
OPCODE_SPACE_VERSION = 2

ACTION_NAMES = {row.keyword: row.cls for row in ACTION_TABLE}
OPCODE_OF = {row.keyword: row.opcode for row in ACTION_TABLE}
#: Inverse table, opcode -> keyword (list-indexable: opcodes are dense
#: from 1; slot 0 is unused).
NAME_OF_OPCODE = [""] * (len(ACTION_TABLE) + 1)
_BY_OPCODE: List[Optional[ActionSpec]] = [None] * (len(ACTION_TABLE) + 1)
_BY_KEYWORD = {row.keyword: (row.opcode, row.shape) for row in ACTION_TABLE}
for _row in ACTION_TABLE:
    _row.cls.name = _row.keyword
    NAME_OF_OPCODE[_row.opcode] = _row.keyword
    _BY_OPCODE[_row.opcode] = _row

_INF = math.inf


def parse_process_id(token: str) -> int:
    """``p<digits>`` -> rank; anything else is a :class:`ValueError`."""
    if not token.startswith("p") or not token[1:].isdigit():
        raise ValueError(f"bad process id {token!r}")
    return int(token[1:])


def decode_tokens(tokens: Sequence[str]) -> Tuple[int, int, float, float,
                                                  Optional[Tuple[float, ...]]]:
    """One trace line's tokens -> ``(op, arg, vol, vol2, splits)``.

    The format's one input contract, shared by every reader and both
    replay drivers: exact arity, ``p<digits>`` peers up to
    :data:`MAX_ARG`, finite volumes >= 0, an integer ``comm_size`` in
    ``[1, MAX_ARG]``, consistent allToAllv splits.
    Every violation is a :class:`ValueError` naming the process and the
    line.  ``tokens[0]`` is the caller's to check (it knows which rank
    it expects); it is only quoted here.
    """
    try:
        op, shape = _BY_KEYWORD[tokens[1]]
    except KeyError:
        raise ValueError(
            f"{tokens[0]}: unregistered action {tokens[1]!r}") from None
    except IndexError:
        raise _malformed(tokens, "no action keyword") from None
    n = len(tokens)
    why = "wrong number of arguments"
    try:
        if shape is VOL:
            if n == 3:
                vol = float(tokens[2])
                if 0.0 <= vol < _INF:
                    return op, 0, vol, 0.0, None
                why = "volumes must be finite and >= 0"
        elif shape is PEER_VOL:
            if n == 4:
                vol = float(tokens[3])
                why = "volumes must be finite and >= 0"
                if 0.0 <= vol < _INF:
                    peer = parse_process_id(tokens[2])
                    if peer <= MAX_ARG:
                        return op, peer, vol, 0.0, None
                    why = f"peer ranks must be <= p{MAX_ARG}"
        elif shape is VOL_VOL2:
            if n == 4:
                vol, vol2 = float(tokens[2]), float(tokens[3])
                if 0.0 <= vol < _INF and 0.0 <= vol2 < _INF:
                    return op, 0, vol, vol2, None
                why = "volumes must be finite and >= 0"
        elif shape is NONE:
            if n == 2:
                return op, 0, 0.0, 0.0, None
        elif shape is SIZE:
            if n == 3:
                if tokens[2].isdigit() and 1 <= int(tokens[2]) <= MAX_ARG:
                    return op, int(tokens[2]), 0.0, 0.0, None
                why = ("the communicator size must be an integer in "
                       f"[1, {MAX_ARG}]")
        elif shape is TOTAL_SPLITS:
            if n >= 4:
                total = float(tokens[2])
                splits = tuple(float(t) for t in tokens[3:])
                check_splits(total, splits)
                return op, n - 3, total, 0.0, splits
    except ValueError as exc:
        why = str(exc)
    raise _malformed(tokens, why)


def _malformed(tokens: Sequence[str], why: str) -> ValueError:
    return ValueError(f"{tokens[0]}: malformed trace line "
                      f"{' '.join(tokens)!r}: {why}")


def encode_tokens(rank: int, op: int, arg: int, vol: float, vol2: float,
                  splits: Optional[Sequence[float]]) -> List[str]:
    """The inverse of :func:`decode_tokens`: the canonical token list."""
    keyword, _, _, shape = _BY_OPCODE[op]
    tokens = [f"p{rank}", keyword]
    if shape is VOL:
        tokens.append(format_volume(vol))
    elif shape is PEER_VOL:
        tokens += [f"p{arg}", format_volume(vol)]
    elif shape is VOL_VOL2:
        tokens += [format_volume(vol), format_volume(vol2)]
    elif shape is SIZE:
        tokens.append(str(arg))
    elif shape is TOTAL_SPLITS:
        tokens.append(format_volume(vol))
        tokens += [format_volume(s) for s in splits]
    return tokens


def fields_of(action: Action) -> Tuple[int, int, float, float,
                                       Optional[Tuple[float, ...]]]:
    """An :class:`Action`'s ``(op, arg, vol, vol2, splits)``."""
    op, shape = _BY_KEYWORD[action.name]
    if shape is VOL:
        return op, 0, action.volume, 0.0, None
    if shape is PEER_VOL:
        return op, action.peer, action.volume, 0.0, None
    if shape is VOL_VOL2:
        return op, 0, action.vcomm, action.vcomp, None
    if shape is SIZE:
        return op, action.size, 0.0, 0.0, None
    if shape is TOTAL_SPLITS:
        return op, len(action.splits), action.total, 0.0, action.splits
    return op, 0, 0.0, 0.0, None


def action_of(rank: int, op: int, arg: int, vol: float, vol2: float,
              splits: Optional[Sequence[float]]) -> Action:
    """The inverse of :func:`fields_of` (the class validates)."""
    _, _, cls, shape = _BY_OPCODE[op]
    if shape is VOL:
        return cls(rank, vol)
    if shape is PEER_VOL:
        return cls(rank, arg, vol)
    if shape is VOL_VOL2:
        return cls(rank, vol, vol2)
    if shape is SIZE:
        return cls(rank, arg)
    if shape is TOTAL_SPLITS:
        return cls(rank, vol, splits)
    return cls(rank)


def format_action(action: Action) -> str:
    """One trace line, without the trailing newline: ``p1 send p0 163840``."""
    return " ".join(encode_tokens(action.rank, *fields_of(action)))


def parse_action(line: str) -> Action:
    """Parse one trace line back into an :class:`Action`."""
    tokens = line.split()
    try:
        rank = parse_process_id(tokens[0])
    except (IndexError, ValueError) as exc:
        raise ValueError(f"malformed trace line {line!r}: "
                         f"{exc if tokens else 'empty'}") from None
    return action_of(rank, *decode_tokens(tokens))
