"""Descriptive statistics of time-independent traces.

Before replaying (or buying hardware for) an unfamiliar trace, one wants
its shape: how much computation and communication it carries, who talks
to whom, and how message sizes distribute across the piece-wise-linear
model's segments.  This module computes those aggregates in one pass —
the trace-side complement of :mod:`repro.analysis.profile`, which needs a
replay first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..core.actions import Compute, Irecv, Isend, Recv, Send, fields_of
from ..core.trace import InMemoryTrace

__all__ = ["TraceStats", "compute_trace_stats"]

#: Message-size class boundaries: the default MPI model's segments.
SIZE_CLASSES = [
    ("< 1 KiB (eager, single frame)", 0.0, 1024.0),
    ("1-64 KiB (eager, buffered)", 1024.0, 65536.0),
    (">= 64 KiB (rendezvous)", 65536.0, float("inf")),
]


@dataclass
class TraceStats:
    """Whole-trace aggregates."""

    n_ranks: int = 0
    n_actions: int = 0
    actions_by_kind: Dict[str, int] = field(default_factory=dict)
    total_flops: float = 0.0
    p2p_bytes: float = 0.0
    p2p_messages: int = 0
    collective_bytes: float = 0.0
    collective_flops: float = 0.0
    traffic: Dict[Tuple[int, int], float] = field(default_factory=dict)
    size_histogram: Dict[str, int] = field(default_factory=dict)
    flops_per_rank: Dict[int, float] = field(default_factory=dict)

    @property
    def mean_message_bytes(self) -> float:
        if not self.p2p_messages:
            return 0.0
        return self.p2p_bytes / self.p2p_messages

    @property
    def compute_comm_ratio(self) -> float:
        """Flops per byte moved point-to-point (inf for pure compute)."""
        if self.p2p_bytes == 0:
            return float("inf")
        return self.total_flops / self.p2p_bytes

    def heaviest_pairs(self, top: int = 5) -> List[Tuple[int, int, float]]:
        ranked = sorted(self.traffic.items(), key=lambda kv: -kv[1])[:top]
        return [(src, dst, volume) for (src, dst), volume in ranked]

    def report(self) -> str:
        lines = [
            f"Trace statistics: {self.n_ranks} ranks, "
            f"{self.n_actions:,} actions",
            f"  computation: {self.total_flops:,.0f} flops",
            f"  point-to-point: {self.p2p_messages:,} messages, "
            f"{self.p2p_bytes:,.0f} B "
            f"(mean {self.mean_message_bytes:,.0f} B)",
            f"  collectives:  {self.collective_bytes:,.0f} B, "
            f"{self.collective_flops:,.0f} operator flops",
            f"  flops per p2p byte: {self.compute_comm_ratio:,.1f}",
            "  message sizes:",
        ]
        for label, _, _ in SIZE_CLASSES:
            count = self.size_histogram.get(label, 0)
            share = 100 * count / max(1, self.p2p_messages)
            lines.append(f"    {label:<32} {count:>10,}  ({share:5.1f}%)")
        lines.append("  actions by kind:")
        for kind, count in sorted(self.actions_by_kind.items(),
                                  key=lambda kv: -kv[1]):
            lines.append(f"    {kind:<12} {count:>12,}")
        lines.append("  heaviest sender->receiver pairs:")
        for src, dst, volume in self.heaviest_pairs():
            lines.append(f"    p{src} -> p{dst}: {volume:,.0f} B")
        imbalance = self._flops_imbalance()
        lines.append(f"  compute-load imbalance: {100 * imbalance:.1f}%")
        return "\n".join(lines)

    def _flops_imbalance(self) -> float:
        loads = list(self.flops_per_rank.values())
        peak = max(loads, default=0.0)
        if peak <= 0:
            return 0.0
        return (peak - sum(loads) / len(loads)) / peak


def _size_class(volume: float) -> str:
    for label, lower, upper in SIZE_CLASSES:
        if lower <= volume < upper:
            return label
    return SIZE_CLASSES[-1][0]  # pragma: no cover - unreachable


def compute_trace_stats(trace: InMemoryTrace) -> TraceStats:
    """One-pass aggregation over a trace set."""
    stats = TraceStats(n_ranks=len(trace.ranks()))
    for rank in trace.ranks():
        for action in trace.actions_of(rank):
            stats.n_actions += 1
            stats.actions_by_kind[action.name] = (
                stats.actions_by_kind.get(action.name, 0) + 1
            )
            if isinstance(action, Compute):
                stats.total_flops += action.volume
                stats.flops_per_rank[rank] = (
                    stats.flops_per_rank.get(rank, 0.0) + action.volume
                )
            elif isinstance(action, (Send, Isend)):
                stats.p2p_messages += 1
                stats.p2p_bytes += action.volume
                key = (rank, action.peer)
                stats.traffic[key] = stats.traffic.get(key, 0.0) + action.volume
                label = _size_class(action.volume)
                stats.size_histogram[label] = (
                    stats.size_histogram.get(label, 0) + 1
                )
            elif isinstance(action, (Recv, Irecv)):
                pass  # counted on the sender side
            else:
                # Every other row of the action table is a collective (or
                # carries no volume at all): book its nominal bytes and
                # operator flops straight from the table's fields.
                _, _, vol, vol2, _ = fields_of(action)
                stats.collective_bytes += vol
                stats.collective_flops += vol2
    return stats
