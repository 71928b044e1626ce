"""K-nomial tree gathering of trace files (§4.3's fourth step).

After extraction, per-process time-independent traces sit on the nodes
that ran the instrumented application; the replay needs them on a single
node.  The paper gathers them over a K-nomial tree — ``log_{K+1}(N)``
rounds for N files, with the arity configurable against the node count.

Two entry points:

* :func:`simulate_gather` — simulated transfer time of the tree reduction
  over the acquisition platform (the 'Gathering' bars of Fig. 7).
* :func:`gather_files` — actually move per-node trace files into one
  directory (the real-file analogue used by the end-to-end pipeline).
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..simkernel import CommSystem, Engine, Host, Platform
from ..simkernel.pwl import IDENTITY_MODEL
from .trace import _RANK_FILE

__all__ = ["knomial_rounds", "knomial_schedule", "simulate_gather",
           "GatherResult", "gather_files"]


def knomial_rounds(n_nodes: int, arity: int) -> int:
    """Number of rounds: ``ceil(log_{K+1} N)`` (§4.3)."""
    if n_nodes < 1:
        raise ValueError("need at least one node")
    if arity < 1:
        raise ValueError("arity must be >= 1")
    rounds = 0
    span = 1
    while span < n_nodes:
        span *= arity + 1
        rounds += 1
    return rounds


def knomial_schedule(n_nodes: int, arity: int
                     ) -> List[List[Tuple[int, int]]]:
    """Per-round (sender, receiver) pairs of the K-nomial gather to node 0.

    In round ``r`` (0-based), node ``i`` with ``i % (K+1)^(r+1) == 0``
    receives from ``i + j*(K+1)^r`` for ``j = 1..K`` (those that exist).
    Every sender ships everything it has accumulated so far.
    """
    schedule: List[List[Tuple[int, int]]] = []
    step = 1
    while step < n_nodes:
        round_pairs = []
        block = step * (arity + 1)
        for recv in range(0, n_nodes, block):
            for j in range(1, arity + 1):
                sender = recv + j * step
                if sender < n_nodes:
                    round_pairs.append((sender, recv))
        schedule.append(round_pairs)
        step = block
    return schedule


@dataclass
class GatherResult:
    """Simulated cost of one tree gather."""

    time: float
    n_rounds: int
    total_bytes: float
    arity: int


def simulate_gather(
    platform: Platform,
    node_hosts: Sequence[Host],
    node_bytes: Sequence[float],
    arity: int = 4,
) -> GatherResult:
    """Simulated time to funnel ``node_bytes[i]`` from ``node_hosts[i]``
    to ``node_hosts[0]`` over a K-nomial tree (default 4-nomial, as the
    paper's experiments).  Transfers within a round run concurrently and
    contend on the links; rounds synchronise (each node forwards only what
    it has fully received)."""
    if len(node_hosts) != len(node_bytes):
        raise ValueError("one byte count per node is required")
    n = len(node_hosts)
    if n == 0:
        raise ValueError("need at least one node")
    schedule = knomial_schedule(n, arity)
    engine = Engine()
    comms = CommSystem(engine, platform, dict(enumerate(node_hosts)),
                       comm_model=IDENTITY_MODEL,
                       eager_threshold=0)  # file copies are synchronous
    accumulated = [float(b) for b in node_bytes]

    def node_proc(idx: int):
        for round_pairs in schedule:
            sends = [(s, r) for (s, r) in round_pairs if s == idx]
            recvs = [(s, r) for (s, r) in round_pairs if r == idx]
            if sends:
                (_, dst) = sends[0]
                yield from comms.send(idx, dst, accumulated[idx])
                return  # a sender is done after forwarding its subtree
            # Post every receive of the round before waiting on any:
            # same-round uploads run concurrently and contend on the
            # links (serialising them inflates the Fig. 7 gathering bars).
            reqs = [comms.irecv(idx, src=src) for (src, _) in recvs]
            for req in reqs:
                yield req
                accumulated[idx] += req.size

    for idx in range(n):
        engine.add_process(f"node{idx}", node_proc(idx))
    makespan = engine.run()
    return GatherResult(
        time=makespan,
        n_rounds=len(schedule),
        total_bytes=sum(node_bytes),
        arity=arity,
    )


def gather_files(node_dirs: Sequence[str], dest_dir: str) -> int:
    """Physically collect per-rank trace files into ``dest_dir``.

    All three representations the replayer accepts are gathered: plain
    ``SG_process*.trace``, gzipped ``.trace.gz``, and binary ``.btrace``.
    Returns the number of files moved.  Duplicated rank files across
    source directories are an error — each rank's trace must live on
    exactly one acquisition node.
    """
    os.makedirs(dest_dir, exist_ok=True)
    moved = 0
    seen: Dict[str, str] = {}
    for directory in node_dirs:
        for name in sorted(os.listdir(directory)):
            if not _RANK_FILE.fullmatch(name):
                continue
            if name in seen:
                raise ValueError(
                    f"rank trace {name} present in both {seen[name]!r} "
                    f"and {directory!r}"
                )
            seen[name] = directory
            shutil.move(os.path.join(directory, name),
                        os.path.join(dest_dir, name))
            moved += 1
    return moved
