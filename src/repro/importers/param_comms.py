"""PyTorch/param comms-trace importer.

The param benchmark suite (``commsTraceReplay``) records one JSON list
per rank describing every communication a training job issued: the
collective name, message sizes in *elements*, the element dtype, the
process-group ranks, and — for the v-variants — per-rank split sizes.
This importer normalizes those records into the time-independent action
format so an AI job's comms trace replays through the same pipeline as
an acquired MPI trace.

Volume mapping (``docs/importers.md`` carries the user-facing table):

* sizes are element counts; bytes = ``count * dtype_bytes``.
* ``all_reduce``    -> ``allReduce <bytes> <elements>`` (one reduction
  flop per element).
* ``all_gather``    -> ``allGather <bytes>`` (the per-rank contribution).
* ``reduce_scatter``-> ``reduceScatter <bytes> <elements>``.
* ``all_to_all``    -> ``allToAll <bytes / world_size>`` (uniform
  per-peer share of the total send buffer).
* ``all_to_allv``   -> ``allToAllv <total> <s0> ...`` from the *output*
  splits (what this rank sends to each peer); input splits are the
  receiver's view and are implied by the other ranks' rows.
* ``broadcast``     -> ``bcast <bytes>``; ``barrier`` -> ``barrier``.
* ``send/isend/recv/irecv/wait`` -> their point-to-point actions.

Unsupported-op policy: any record the format cannot express — a
sub-world process group, an unknown collective — raises ``ValueError``
naming the record, unless ``skip_unsupported=True``, which drops it and
counts it in the report (so a lossy import is always visible).
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.actions import (
    Action,
    AllGather,
    AllReduce,
    AllToAll,
    AllToAllv,
    Barrier,
    Bcast,
    CommSize,
    Irecv,
    Isend,
    Recv,
    ReduceScatter,
    Reduce,
    Send,
    Wait,
)
from ..core.trace import write_rank_file

__all__ = [
    "DTYPE_BYTES",
    "ImportReport",
    "import_param_comms",
    "normalize_comm_name",
    "parse_param_records",
]

#: Element sizes of the dtypes param traces carry.
DTYPE_BYTES = {
    "float": 4, "float32": 4, "int": 4, "int32": 4, "signed char": 1,
    "float16": 2, "half": 2, "bfloat16": 2,
    "float64": 8, "double": 8, "int64": 8, "long": 8, "unsigned long": 8,
    "int16": 2, "short": 2,
    "int8": 1, "uint8": 1, "byte": 1, "char": 1, "bool": 1,
}

#: Canonical collective names, keyed by the lowercased record name with
#: ``_``/``-`` stripped — param traces spell the same op several ways
#: (``all_reduce``, ``allreduce``, ``All_Reduce``).
_NAME_TABLE = {
    "allreduce": "allReduce",
    "allgather": "allGather",
    "allgatherbase": "allGather",
    "allgatherv": "allGather",
    "reducescatter": "reduceScatter",
    "reducescatterbase": "reduceScatter",
    "reducescatterv": "reduceScatter",
    "alltoall": "allToAll",
    "alltoallsingle": "allToAll",
    "alltoallbase": "allToAll",
    "alltoallv": "allToAllv",
    "broadcast": "bcast",
    "bcast": "bcast",
    "reduce": "reduce",
    "barrier": "barrier",
    "send": "send",
    "isend": "Isend",
    "recv": "recv",
    "irecv": "Irecv",
    "wait": "wait",
    "waitall": "wait",
}

_RANK_FILE_RE = re.compile(r"rank[._]?(\d+)\.json$")


@dataclass
class ImportReport:
    """What one import produced (and what it could not express)."""

    n_ranks: int = 0
    n_actions: int = 0
    n_records: int = 0
    n_skipped: int = 0
    skipped_ops: Dict[str, int] = field(default_factory=dict)
    n_bytes: int = 0          # size of the written TI trace files
    out_dir: str = ""

    def as_dict(self) -> dict:
        return {
            "n_ranks": self.n_ranks,
            "n_actions": self.n_actions,
            "n_records": self.n_records,
            "n_skipped": self.n_skipped,
            "skipped_ops": dict(sorted(self.skipped_ops.items())),
            "n_bytes": self.n_bytes,
            "out_dir": self.out_dir,
        }


def normalize_comm_name(name: str) -> Optional[str]:
    """The canonical action name of a param record's ``comms`` field, or
    None when the op has no time-independent counterpart."""
    key = str(name).lower().replace("_", "").replace("-", "").strip()
    return _NAME_TABLE.get(key)


def _get(record: dict, *keys, default=None):
    """First present key — param traces mix snake_case and camelCase
    (``in_msg_size`` vs ``inMsgSize``) across producer versions."""
    for key in keys:
        if key in record:
            return record[key]
    return default


def _dtype_bytes(record: dict, where: str) -> int:
    dtype = _get(record, "dtype", "data_type", default="float32")
    try:
        return DTYPE_BYTES[str(dtype).lower()]
    except KeyError:
        raise ValueError(
            f"{where}: unknown dtype {dtype!r} (known: "
            f"{sorted(set(DTYPE_BYTES))})"
        ) from None


def _elements(record: dict, where: str) -> float:
    count = _get(record, "in_msg_size", "inMsgSize", "msg_size", "msgSize",
                 "count")
    if count is None:
        raise ValueError(f"{where}: record carries no message size")
    count = float(count)
    if count < 0:
        raise ValueError(
            f"{where}: negative message size {count:g} — corrupt record")
    return count


def _peer(record: dict, rank: int, where: str) -> int:
    peer = _get(record, "dst_rank", "dstRank", "dst", "src_rank", "srcRank",
                "src", "remote_rank", "remoteRank", "root")
    if peer is None:
        raise ValueError(f"{where}: point-to-point record names no peer")
    peer = int(peer)
    if peer < 0:
        raise ValueError(f"{where}: negative peer rank {peer}")
    return peer


def _check_group(record: dict, world_size: int, where: str) -> None:
    """The time-independent format has no sub-communicators (§3): a
    record pinned to a smaller process group cannot be expressed."""
    ranks = _get(record, "pg_ranks", "pgRanks", "group_ranks", "groupRanks")
    if ranks is not None and len(ranks) not in (0, world_size):
        raise ValueError(
            f"{where}: process group of {len(ranks)} ranks != world size "
            f"{world_size}; sub-communicators are unsupported (the trace "
            "format roots every collective in the world communicator)"
        )
    pg_size = _get(record, "pg_size", "pgSize", "group_size", "groupSize")
    if pg_size is not None and int(pg_size) not in (0, world_size):
        raise ValueError(
            f"{where}: process group of {int(pg_size)} ranks != world "
            f"size {world_size}; sub-communicators are unsupported"
        )


def _record_to_action(record: dict, rank: int, world_size: int,
                      pending_irecvs: List[int], where: str
                      ) -> Optional[Action]:
    """One param record -> one action (None = no-op record)."""
    raw_name = _get(record, "comms", "comm", "name", "op")
    if raw_name is None:
        raise ValueError(f"{where}: record has no 'comms' field")
    name = normalize_comm_name(raw_name)
    if name is None:
        raise ValueError(
            f"{where}: unsupported op {raw_name!r} — no time-independent "
            "counterpart"
        )
    if name == "wait":
        if not pending_irecvs:
            # A wait on a send request has no TI counterpart (the
            # replayer treats Isend as a detached send) — drop it.
            return None
        pending_irecvs.pop(0)
        return Wait(rank)
    if name == "barrier":
        _check_group(record, world_size, where)
        return Barrier(rank)
    esize = _dtype_bytes(record, where)
    if name in ("send", "Isend", "recv", "Irecv"):
        peer = _peer(record, rank, where)
        if peer >= world_size:
            raise ValueError(
                f"{where}: peer rank {peer} outside world of {world_size}")
        nbytes = _elements(record, where) * esize
        cls = {"send": Send, "Isend": Isend,
               "recv": Recv, "Irecv": Irecv}[name]
        if name == "Irecv":
            pending_irecvs.append(len(pending_irecvs))
        return cls(rank, peer, nbytes)
    _check_group(record, world_size, where)
    elements = _elements(record, where)
    nbytes = elements * esize
    if name == "allReduce":
        return AllReduce(rank, nbytes, elements)
    if name == "reduce":
        return Reduce(rank, nbytes, elements)
    if name == "bcast":
        return Bcast(rank, nbytes)
    if name == "allGather":
        return AllGather(rank, nbytes)
    if name == "reduceScatter":
        return ReduceScatter(rank, nbytes, elements)
    if name == "allToAll":
        if world_size < 1:
            raise ValueError(f"{where}: world size {world_size} < 1")
        return AllToAll(rank, nbytes / world_size)
    if name == "allToAllv":
        splits = _get(record, "out_split", "outSplit", "out_split_sizes",
                      "outSplitSizes")
        if splits is None:
            splits = _get(record, "in_split", "inSplit", "in_split_sizes",
                          "inSplitSizes")
        if splits:
            if len(splits) != world_size:
                raise ValueError(
                    f"{where}: allToAllv carries {len(splits)} split "
                    f"sizes for a world of {world_size}"
                )
            byte_splits = tuple(float(s) * esize for s in splits)
            return AllToAllv(rank, sum(byte_splits), byte_splits)
        # No splits recorded: an even all_to_all_single in v clothing.
        share = nbytes / world_size
        return AllToAllv(rank, nbytes, tuple([share] * world_size))
    raise ValueError(f"{where}: unhandled op {name!r}")  # pragma: no cover


def parse_param_records(records: Sequence[dict], rank: int,
                        world_size: int, skip_unsupported: bool,
                        report: ImportReport, where: str) -> List[Action]:
    """Normalize one rank's record list into its action list."""
    actions: List[Action] = [CommSize(rank, world_size)]
    pending_irecvs: List[int] = []
    for index, record in enumerate(records):
        if not isinstance(record, dict):
            raise ValueError(
                f"{where}: record #{index} is {type(record).__name__}, "
                "expected an object"
            )
        report.n_records += 1
        site = f"{where}: record #{index}"
        try:
            action = _record_to_action(record, rank, world_size,
                                       pending_irecvs, site)
        except ValueError as exc:
            if not skip_unsupported:
                raise
            op = str(_get(record, "comms", "comm", "name", "op",
                          default="?"))
            report.n_skipped += 1
            report.skipped_ops[op] = report.skipped_ops.get(op, 0) + 1
            del exc
            continue
        if action is not None:
            actions.append(action)
    return actions


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            # json.JSONDecodeError subclasses ValueError, so a corrupt
            # file surfaces the same exception family as a corrupt
            # time-independent trace (the fuzz sweep's contract).
            return json.load(handle)
    except OSError as exc:
        raise ValueError(f"{path}: cannot read trace file: {exc}") from None


def _discover_rank_files(directory: str) -> List[Tuple[int, str]]:
    found = {}
    for entry in sorted(os.listdir(directory)):
        match = _RANK_FILE_RE.search(entry)
        if match is None:
            continue
        rank = int(match.group(1))
        if rank in found:
            raise ValueError(
                f"{directory}: both {found[rank]!r} and {entry!r} claim "
                f"rank {rank}"
            )
        found[rank] = entry
    if not found:
        raise ValueError(
            f"{directory}: no per-rank param trace files (rank<k>.json)")
    ranks = sorted(found)
    if ranks != list(range(len(ranks))):
        raise ValueError(
            f"{directory}: rank files are not contiguous from 0: "
            f"{ranks[:10]}"
        )
    return [(rank, os.path.join(directory, found[rank])) for rank in ranks]


def _extract_records(doc, where: str) -> Sequence[dict]:
    if isinstance(doc, dict):
        # Execution-trace containers wrap the list under a key.
        for key in ("traceEvents", "trace_events", "comms", "entries"):
            if key in doc and isinstance(doc[key], list):
                return doc[key]
        raise ValueError(
            f"{where}: JSON object has no record list (looked for "
            "'traceEvents'/'comms'/'entries')"
        )
    if isinstance(doc, list):
        return doc
    raise ValueError(
        f"{where}: expected a JSON list of records, got "
        f"{type(doc).__name__}"
    )


def import_param_comms(
    source: str,
    out_dir: str,
    world_size: Optional[int] = None,
    skip_unsupported: bool = False,
    binary: bool = False,
) -> ImportReport:
    """Import a param comms trace into a time-independent trace set.

    ``source`` is either a directory of per-rank files (``rank0.json``,
    ``rank1.json``, ...; each rank replays its own record list) or a
    single JSON file of collective records, which requires
    ``world_size`` and replicates the collectives symmetrically across
    all ranks (the single-file form cannot carry point-to-point traffic
    — whose per-rank streams differ — and refuses it).

    Writes ``SG_process<rank>.trace`` files (or ``.btrace`` with
    ``binary=True``) under ``out_dir`` and returns an
    :class:`ImportReport`.
    """
    report = ImportReport(out_dir=out_dir)
    per_rank: List[List[Action]] = []
    if os.path.isdir(source):
        rank_files = _discover_rank_files(source)
        n_ranks = len(rank_files)
        if world_size is not None and world_size != n_ranks:
            raise ValueError(
                f"{source}: --world-size {world_size} but the directory "
                f"holds {n_ranks} rank files"
            )
        for rank, path in rank_files:
            records = _extract_records(_load_json(path), path)
            per_rank.append(parse_param_records(
                records, rank, n_ranks, skip_unsupported, report, path))
    else:
        if world_size is None or world_size < 1:
            raise ValueError(
                "a single-file param trace needs world_size >= 1 (the "
                "file carries one symmetric record list, not per-rank "
                "streams)"
            )
        records = _extract_records(_load_json(source), source)
        for index, record in enumerate(records):
            if isinstance(record, dict):
                raw = _get(record, "comms", "comm", "name", "op")
                name = normalize_comm_name(raw) if raw is not None else None
                if name in ("send", "Isend", "recv", "Irecv"):
                    raise ValueError(
                        f"{source}: record #{index} is point-to-point "
                        f"({raw!r}); per-rank streams differ, so a "
                        "single-file import cannot replicate it — use "
                        "the per-rank directory form"
                    )
        for rank in range(world_size):
            rank_report = ImportReport()
            per_rank.append(parse_param_records(
                records, rank, world_size, skip_unsupported, rank_report,
                source))
            if rank == 0:
                report.n_records = rank_report.n_records
                report.n_skipped = rank_report.n_skipped
                report.skipped_ops = rank_report.skipped_ops

    os.makedirs(out_dir, exist_ok=True)
    n_bytes = sum(write_rank_file(out_dir, rank, actions, binary)[1]
                  for rank, actions in enumerate(per_rank))
    report.n_ranks = len(per_rank)
    report.n_actions = sum(len(a) for a in per_rank)
    report.n_bytes = n_bytes
    return report
