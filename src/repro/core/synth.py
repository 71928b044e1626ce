"""Synthetic time-independent traces with the LU action mix.

The rank-scaling benchmarks (and the CI smoke job) need traces far
larger than anything worth acquiring through the full simulated runtime:
a 1024-rank replay input.  Acquisition cost is O(simulated run); this
module instead *writes the trace directly* — per rank, the ghost-cell
exchange / compute / periodic-allReduce skeleton of an NPB LU SSOR
iteration (reusing :class:`~repro.apps.lu.LuGrid` for the 2-D pencil
decomposition and the real class B/C face volumes), shaped exactly like
what acquisition of LU produces but generated in O(actions) time with
O(1) memory per rank.

The per-iteration pattern mirrors ``exchange_3`` + the triangular
sweeps, flattened to the blocking-replay action set (Table 1): post
``Irecv`` for every neighbour, pack + ``send`` each face, ``wait`` the
receives, one fused compute burst, and every ``inorm`` iterations an
``allReduce`` — deadlock-free under the replayer's oldest-pending-wait
semantics because every rank posts its receives before its sends.

Determinism contract (what ``repro.campaign`` builds its cache keys on):
the generator is a pure function of its parameters.  The only source of
randomness — the optional per-burst compute ``jitter`` that mimics the
hardware-counter wobble of acquired traces — draws from an *explicit*
``seed`` through a per-rank ``numpy`` generator, so the same
``(n_ranks, iterations, cls, inorm, seed, jitter)`` tuple yields
byte-identical traces in any process (no interpreter hash randomisation,
no global RNG state).  :func:`write_synthetic_lu_trace` records that
tuple in a ``synth_meta.json`` sidecar next to the trace files, which is
exactly the content address of the trace set.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterator, List, Optional

import numpy as np

from ..apps.classes import lu_class
from ..apps.lu import (
    FLOPS_ADD,
    FLOPS_LOWER,
    FLOPS_RHS,
    FLOPS_UPPER,
    LuGrid,
    NORM_BYTES,
    NORM_FLOPS,
    PACK_FLOPS_PER_BYTE,
)
from .actions import (
    Action,
    AllReduce,
    Compute,
    Irecv,
    CommSize,
    Send,
    Wait,
)
from .trace import write_rank_file

__all__ = [
    "SYNTH_META_FILE",
    "synthetic_lu_actions",
    "synth_metadata",
    "read_synth_metadata",
    "write_synthetic_lu_trace",
]

#: Sidecar file recording the generator parameters of a synthetic trace
#: directory — the content address campaign cache keys digest.
SYNTH_META_FILE = "synth_meta.json"


def synth_metadata(
    n_ranks: int,
    iterations: int,
    cls: str = "B",
    inorm: int = 8,
    seed: int = 0,
    jitter: float = 0.0,
    compute_split: int = 1,
) -> Dict[str, object]:
    """The full parameter tuple that determines a synthetic trace set.

    Two directories written with equal metadata hold byte-identical
    traces; any single differing field yields a different trace — with
    one deliberate exception: when ``jitter`` is 0 the RNG is never
    drawn from, so the seed cannot influence the trace and is
    normalised to 0 here (and in the campaign cache's trace address) to
    keep equal traces under equal keys.  ``repro.campaign.cache``
    digests this dict.
    """
    return {
        "generator": "lu-synth",
        "version": 1,
        "n_ranks": int(n_ranks),
        "iterations": int(iterations),
        "cls": str(cls),
        "inorm": int(inorm),
        "seed": int(seed) if float(jitter) > 0.0 else 0,
        "jitter": float(jitter),
        "compute_split": int(compute_split),
    }


def read_synth_metadata(directory: str) -> Optional[Dict[str, object]]:
    """The ``synth_meta.json`` of a trace directory, or None when the
    directory was not written by :func:`write_synthetic_lu_trace`."""
    path = os.path.join(directory, SYNTH_META_FILE)
    if not os.path.exists(path):
        return None
    with open(path, "r", encoding="ascii") as handle:
        return json.load(handle)


def synthetic_lu_actions(
    rank: int,
    n_ranks: int,
    iterations: int,
    cls: str = "B",
    inorm: int = 8,
    seed: int = 0,
    jitter: float = 0.0,
    compute_split: int = 1,
) -> Iterator[Action]:
    """One rank's synthetic LU-mix action stream (lazy).

    ``jitter`` perturbs each sweep's compute burst by a uniform factor in
    ``[1 - jitter, 1 + jitter]`` — the synthetic analogue of the <1 %
    hardware-counter wobble acquired traces carry (§6.2).  The draws come
    from ``default_rng(seed + 7919 * rank)``: explicit, per-rank, and
    deterministic across processes.

    ``compute_split`` controls the granularity of the sweep burst: 1
    (default) aggregates each SSOR sweep's flops into one ``compute``
    record — the shape of traces instrumented at MPI-call boundaries —
    while k > 1 emits k consecutive ``compute`` records of flops/k,
    the shape function-level instrumentation produces (one record per
    traced routine: rhs, jacld/blts, jacu/buts, ...).  The total flop
    volume is unchanged.
    """
    config = lu_class(cls)
    grid = LuGrid.build(config, n_ranks, rank)
    neighbours: List[int] = [
        p for p in (grid.north, grid.south, grid.west, grid.east)
        if p is not None
    ]
    face_bytes = {
        grid.north: grid.ns_face_bytes, grid.south: grid.ns_face_bytes,
        grid.west: grid.ew_face_bytes, grid.east: grid.ew_face_bytes,
    }
    sweep_flops = float(
        (FLOPS_RHS + FLOPS_LOWER + FLOPS_UPPER + FLOPS_ADD) * grid.points
    )
    rng = np.random.default_rng(seed + 7919 * rank) if jitter > 0.0 else None
    yield CommSize(rank, n_ranks)
    for istep in range(1, iterations + 1):
        for peer in neighbours:
            yield Irecv(rank, peer, face_bytes[peer])
        for peer in neighbours:
            nbytes = face_bytes[peer]
            yield Compute(rank, nbytes * PACK_FLOPS_PER_BYTE)
            yield Send(rank, peer, nbytes)
        for _ in neighbours:
            yield Wait(rank)
        if rng is None:
            burst = sweep_flops
        else:
            factor = 1.0 + jitter * float(rng.uniform(-1.0, 1.0))
            burst = sweep_flops * factor
        if compute_split <= 1:
            yield Compute(rank, burst)
        else:
            part = burst / compute_split
            for _ in range(compute_split):
                yield Compute(rank, part)
        if istep % inorm == 0:
            yield AllReduce(rank, NORM_BYTES, NORM_FLOPS)


def write_synthetic_lu_trace(
    directory: str,
    n_ranks: int,
    iterations: int,
    cls: str = "B",
    inorm: int = 8,
    binary: bool = False,
    seed: int = 0,
    jitter: float = 0.0,
    compute_split: int = 1,
) -> int:
    """Write a per-process (Fig. 2) synthetic trace set; returns the
    total action count.  Streams straight to disk — generating a
    1024-rank trace never holds more than one action in memory.  The
    generator parameters (seed included) land in ``synth_meta.json``
    alongside the traces."""
    os.makedirs(directory, exist_ok=True)
    n_actions = 0
    for rank in range(n_ranks):
        n_actions += write_rank_file(
            directory, rank,
            synthetic_lu_actions(rank, n_ranks, iterations, cls, inorm,
                                 seed=seed, jitter=jitter,
                                 compute_split=compute_split),
            binary)[0]
    meta = synth_metadata(n_ranks, iterations, cls, inorm, seed, jitter,
                          compute_split)
    meta["n_actions"] = n_actions
    meta["binary"] = bool(binary)
    with open(os.path.join(directory, SYNTH_META_FILE), "w",
              encoding="ascii") as handle:
        json.dump(meta, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return n_actions
