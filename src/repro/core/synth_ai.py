"""Synthetic time-independent traces with AI-training action mixes.

:mod:`repro.core.synth` generates the LU stencil mix; this module adds
the three communication shapes a distributed training stack produces
(the ATLAHS-style workload taxonomy), each a pure function of
``(n_ranks, params, seed)``:

* **Data parallel** (:func:`synthetic_dp_actions`) — the
  allreduce-dominant shape of gradient exchange: one fused compute
  burst per step followed by bucketed ``allReduce`` calls (DDP-style
  gradient buckets), or ``reduceScatter`` + ``allGather`` pairs when
  ``algo="zero"`` (ZeRO/FSDP-style sharded optimizers).
* **Pipeline parallel** (:func:`synthetic_pp_actions`) — send/recv
  chains along the rank axis: per microbatch a forward activation hop
  ``rank -> rank+1`` and a backward gradient hop ``rank -> rank-1``,
  closed by a per-step ``allReduce`` for tied weights.  The chains are
  deadlock-free under blocking replay semantics (each hop's receive
  precedes the dependent send; there are no cycles).
* **MoE expert parallel** (:func:`synthetic_moe_actions`) — per layer a
  gate compute, an uneven ``allToAllv`` token dispatch, the expert
  compute, and the mirror ``allToAllv`` combine; a per-step
  ``allReduce`` covers the dense/shared parameters.

Determinism contract (what ``repro.campaign`` builds cache keys on):
same parameters, byte-identical traces.  DP and PP touch their RNG only
when ``jitter > 0`` (so the seed normalises to 0 at jitter 0, exactly
like the LU generator); MoE's routing splits are *always* a function of
the seed — ``(seed, step, layer, src)`` feeds a ``SeedSequence``, so
any rank can recompute any other rank's dispatch row without global
RNG state, which is how the combine's return splits (dispatch's matrix
transpose) are generated rank-locally.  The dispatch volumes are
integer-rounded by largest remainder so every ``allToAllv`` line's
splits sum *exactly* to its total.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterator, List, Optional

import numpy as np

from .actions import (
    Action,
    AllGather,
    AllReduce,
    AllToAllv,
    CommSize,
    Compute,
    Irecv,
    Recv,
    ReduceScatter,
    Send,
    Wait,
)
from .synth import SYNTH_META_FILE
from .trace import write_rank_file

__all__ = [
    "AI_FAMILIES",
    "synthetic_dp_actions",
    "synthetic_pp_actions",
    "synthetic_moe_actions",
    "synth_dp_metadata",
    "synth_pp_metadata",
    "synth_moe_metadata",
    "write_synthetic_dp_trace",
    "write_synthetic_pp_trace",
    "write_synthetic_moe_trace",
    "write_synthetic_ai_trace",
    "moe_dispatch_splits",
]

#: The generator families this module adds beside synth.py's "lu".
AI_FAMILIES = ("dp", "pp", "moe")

#: Reduction-operator flops charged per 4 bytes reduced (one fp32 add).
_FLOPS_PER_REDUCED_BYTE = 0.25


def _jitter_rng(seed: int, rank: int, jitter: float):
    """The LU generator's RNG convention: per-rank, explicit, and only
    instantiated when jitter actually draws from it."""
    if jitter > 0.0:
        return np.random.default_rng(seed + 7919 * rank)
    return None


def _jittered(volume: float, rng, jitter: float) -> float:
    if rng is None:
        return volume
    return volume * (1.0 + jitter * float(rng.uniform(-1.0, 1.0)))


# ---------------------------------------------------------------------------
# Data parallel
# ---------------------------------------------------------------------------
def synth_dp_metadata(
    n_ranks: int,
    steps: int,
    bucket_bytes: float = 25 << 20,
    n_buckets: int = 4,
    step_flops: float = 2e9,
    algo: str = "allreduce",
    seed: int = 0,
    jitter: float = 0.0,
) -> Dict[str, object]:
    """Content address of a DP synthetic trace set (seed normalises to 0
    at jitter 0 — the RNG is never drawn from then)."""
    return {
        "generator": "dp-synth",
        "version": 1,
        "n_ranks": int(n_ranks),
        "steps": int(steps),
        "bucket_bytes": float(bucket_bytes),
        "n_buckets": int(n_buckets),
        "step_flops": float(step_flops),
        "algo": str(algo),
        "seed": int(seed) if float(jitter) > 0.0 else 0,
        "jitter": float(jitter),
    }


def synthetic_dp_actions(
    rank: int,
    n_ranks: int,
    steps: int,
    bucket_bytes: float = 25 << 20,
    n_buckets: int = 4,
    step_flops: float = 2e9,
    algo: str = "allreduce",
    seed: int = 0,
    jitter: float = 0.0,
) -> Iterator[Action]:
    """One rank's data-parallel action stream (lazy).

    Per step: one backward-pass compute burst, then ``n_buckets``
    gradient buckets of ``bucket_bytes`` each — exchanged as
    ``allReduce`` (``algo="allreduce"``, the DDP shape) or as a
    ``reduceScatter`` + ``allGather`` pair (``algo="zero"``, the
    sharded-optimizer shape; the allgather re-collects each rank's
    ``bucket_bytes / n_ranks`` updated shard).
    """
    if algo not in ("allreduce", "zero"):
        raise ValueError(
            f"unknown DP algo {algo!r}; expected 'allreduce' or 'zero'")
    rng = _jitter_rng(seed, rank, jitter)
    reduce_flops = bucket_bytes * _FLOPS_PER_REDUCED_BYTE
    yield CommSize(rank, n_ranks)
    for _step in range(steps):
        yield Compute(rank, _jittered(step_flops, rng, jitter))
        for _bucket in range(n_buckets):
            if algo == "allreduce":
                yield AllReduce(rank, bucket_bytes, reduce_flops)
            else:
                yield ReduceScatter(rank, bucket_bytes, reduce_flops)
                yield AllGather(rank, bucket_bytes / n_ranks)


# ---------------------------------------------------------------------------
# Pipeline parallel
# ---------------------------------------------------------------------------
def synth_pp_metadata(
    n_ranks: int,
    steps: int,
    microbatches: int = 4,
    activation_bytes: float = 8 << 20,
    stage_flops: float = 5e8,
    grad_bytes: float = 1 << 20,
    seed: int = 0,
    jitter: float = 0.0,
) -> Dict[str, object]:
    """Content address of a PP synthetic trace set."""
    return {
        "generator": "pp-synth",
        "version": 1,
        "n_ranks": int(n_ranks),
        "steps": int(steps),
        "microbatches": int(microbatches),
        "activation_bytes": float(activation_bytes),
        "stage_flops": float(stage_flops),
        "grad_bytes": float(grad_bytes),
        "seed": int(seed) if float(jitter) > 0.0 else 0,
        "jitter": float(jitter),
    }


def synthetic_pp_actions(
    rank: int,
    n_ranks: int,
    steps: int,
    microbatches: int = 4,
    activation_bytes: float = 8 << 20,
    stage_flops: float = 5e8,
    grad_bytes: float = 1 << 20,
    seed: int = 0,
    jitter: float = 0.0,
) -> Iterator[Action]:
    """One rank's pipeline-parallel action stream (lazy).

    Each rank is one pipeline stage.  Per step: every microbatch flows
    forward down the chain (receive the previous stage's activations,
    compute, send to the next stage), then backward up it (receive the
    next stage's gradients, compute, send to the previous stage); the
    step closes with an ``allReduce`` of ``grad_bytes`` for tied
    embeddings.  Forward receives are posted as ``Irecv`` before the
    compute so a stage's send to its successor can overlap the
    successor's previous-microbatch compute — the pipelining that makes
    this family's replay interesting.
    """
    rng = _jitter_rng(seed, rank, jitter)
    prev_rank = rank - 1 if rank > 0 else None
    next_rank = rank + 1 if rank < n_ranks - 1 else None
    yield CommSize(rank, n_ranks)
    for _step in range(steps):
        # Forward: activations ripple rank -> rank+1, one microbatch at
        # a time.  Post the receive early, compute only after it lands.
        for _mb in range(microbatches):
            if prev_rank is not None:
                yield Irecv(rank, prev_rank, activation_bytes)
                yield Wait(rank)
            yield Compute(rank, _jittered(stage_flops, rng, jitter))
            if next_rank is not None:
                yield Send(rank, next_rank, activation_bytes)
        # Backward: gradients ripple rank -> rank-1, reversed order.
        for _mb in range(microbatches):
            if next_rank is not None:
                yield Recv(rank, next_rank, activation_bytes)
            yield Compute(rank, _jittered(2.0 * stage_flops, rng, jitter))
            if prev_rank is not None:
                yield Send(rank, prev_rank, activation_bytes)
        yield AllReduce(rank, grad_bytes,
                        grad_bytes * _FLOPS_PER_REDUCED_BYTE)


# ---------------------------------------------------------------------------
# MoE expert parallel
# ---------------------------------------------------------------------------
def moe_dispatch_splits(
    n_ranks: int,
    tokens_bytes: int,
    seed: int,
    step: int,
    layer: int,
    src: int,
) -> List[float]:
    """Rank ``src``'s dispatch row for one (step, layer): how many token
    bytes it routes to each expert rank.

    Pure function of its arguments — any rank recomputes any row, which
    is how the combine's splits (the dispatch matrix's transpose column)
    are built without communication.  Largest-remainder rounding makes
    the row sum *exactly* ``tokens_bytes``.
    """
    ss = np.random.SeedSequence([int(seed), int(step), int(layer), int(src)])
    rng = np.random.default_rng(ss)
    weights = rng.random(n_ranks) + 1e-3  # never all-zero
    raw = weights / weights.sum() * float(int(tokens_bytes))
    floors = np.floor(raw)
    shortfall = int(round(int(tokens_bytes) - floors.sum()))
    if shortfall > 0:
        order = np.argsort(-(raw - floors), kind="stable")
        floors[order[:shortfall]] += 1.0
    return [float(v) for v in floors]


def synth_moe_metadata(
    n_ranks: int,
    steps: int,
    layers: int = 2,
    tokens_bytes: int = 4 << 20,
    gate_flops: float = 1e7,
    expert_flops: float = 5e8,
    dense_bytes: float = 4 << 20,
    seed: int = 0,
    jitter: float = 0.0,
) -> Dict[str, object]:
    """Content address of an MoE synthetic trace set.

    Unlike DP/PP (and LU), the seed is *never* normalised away: the
    routing splits draw from it regardless of jitter, so two seeds give
    genuinely different traces even at jitter 0.
    """
    return {
        "generator": "moe-synth",
        "version": 1,
        "n_ranks": int(n_ranks),
        "steps": int(steps),
        "layers": int(layers),
        "tokens_bytes": int(tokens_bytes),
        "gate_flops": float(gate_flops),
        "expert_flops": float(expert_flops),
        "dense_bytes": float(dense_bytes),
        "seed": int(seed),
        "jitter": float(jitter),
    }


def synthetic_moe_actions(
    rank: int,
    n_ranks: int,
    steps: int,
    layers: int = 2,
    tokens_bytes: int = 4 << 20,
    gate_flops: float = 1e7,
    expert_flops: float = 5e8,
    dense_bytes: float = 4 << 20,
    seed: int = 0,
    jitter: float = 0.0,
) -> Iterator[Action]:
    """One rank's MoE expert-parallel action stream (lazy).

    Per step and layer: the gate compute, the ``allToAllv`` dispatch of
    ``tokens_bytes`` routed unevenly across expert ranks, the expert
    compute, and the ``allToAllv`` combine sending every token back
    where it came from — rank r's combine row is column r of the
    layer's dispatch matrix, recomputed locally from the seed.  Each
    step closes with an ``allReduce`` over the dense parameters.
    """
    rng = _jitter_rng(seed, rank, jitter)
    yield CommSize(rank, n_ranks)
    for step in range(steps):
        for layer in range(layers):
            yield Compute(rank, _jittered(gate_flops, rng, jitter))
            dispatch = moe_dispatch_splits(
                n_ranks, tokens_bytes, seed, step, layer, rank)
            yield AllToAllv(rank, float(sum(dispatch)), tuple(dispatch))
            yield Compute(rank, _jittered(expert_flops, rng, jitter))
            combine = [
                moe_dispatch_splits(n_ranks, tokens_bytes, seed, step,
                                    layer, dst)[rank]
                for dst in range(n_ranks)
            ]
            yield AllToAllv(rank, float(sum(combine)), tuple(combine))
        yield AllReduce(rank, dense_bytes,
                        dense_bytes * _FLOPS_PER_REDUCED_BYTE)


# ---------------------------------------------------------------------------
# Trace-set writers
# ---------------------------------------------------------------------------
_FAMILY_TABLE = {
    "dp": (synthetic_dp_actions, synth_dp_metadata),
    "pp": (synthetic_pp_actions, synth_pp_metadata),
    "moe": (synthetic_moe_actions, synth_moe_metadata),
}


def write_synthetic_ai_trace(
    family: str,
    directory: str,
    n_ranks: int,
    steps: int,
    binary: bool = False,
    **params,
) -> int:
    """Write a per-process (Fig. 2) synthetic trace set of one AI
    family; returns the total action count.  Streams straight to disk
    and records the full parameter tuple (the content address) in
    ``synth_meta.json``, exactly like the LU writer."""
    try:
        generate, metadata = _FAMILY_TABLE[family]
    except KeyError:
        raise ValueError(
            f"unknown AI workload family {family!r}; expected one of "
            f"{sorted(_FAMILY_TABLE)}"
        ) from None
    os.makedirs(directory, exist_ok=True)
    n_actions = 0
    for rank in range(n_ranks):
        n_actions += write_rank_file(
            directory, rank, generate(rank, n_ranks, steps, **params),
            binary)[0]
    meta = metadata(n_ranks, steps, **params)
    meta["n_actions"] = n_actions
    meta["binary"] = bool(binary)
    with open(os.path.join(directory, SYNTH_META_FILE), "w",
              encoding="ascii") as handle:
        json.dump(meta, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return n_actions


def write_synthetic_dp_trace(directory: str, n_ranks: int, steps: int,
                             binary: bool = False, **params) -> int:
    return write_synthetic_ai_trace("dp", directory, n_ranks, steps,
                                    binary=binary, **params)


def write_synthetic_pp_trace(directory: str, n_ranks: int, steps: int,
                             binary: bool = False, **params) -> int:
    return write_synthetic_ai_trace("pp", directory, n_ranks, steps,
                                    binary=binary, **params)


def write_synthetic_moe_trace(directory: str, n_ranks: int, steps: int,
                              binary: bool = False, **params) -> int:
    return write_synthetic_ai_trace("moe", directory, n_ranks, steps,
                                    binary=binary, **params)
