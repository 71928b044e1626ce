"""Application profiles from simulated timed traces.

The paper's Fig. 4 lists three possible outputs of an off-line
simulation: the simulated execution time, a *timed trace*, and — "it
would also be interesting" — an application *profile* derived from that
timed trace, deferred to TAU/Scalasca-class tools.  This module is that
third output: aggregate the replayer's timed trace (one
``(rank, action, start, end)`` record per replayed action) into the
per-rank, per-action-kind breakdown a performance analyst expects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple

from ..simkernel.telemetry import ACTION_CATEGORIES

__all__ = ["RankProfile", "ApplicationProfile", "build_profile"]

#: Action kinds that represent communication or synchronisation: the
#: telemetry's "comm" and "wait" categories.
COMM_KINDS = frozenset(name for name, category in ACTION_CATEGORIES.items()
                       if category in ("comm", "wait"))


@dataclass
class RankProfile:
    """Time breakdown of one rank."""

    rank: int
    total_time: float = 0.0
    by_kind: Dict[str, float] = field(default_factory=dict)
    calls_by_kind: Dict[str, int] = field(default_factory=dict)

    @property
    def compute_time(self) -> float:
        return self.by_kind.get("compute", 0.0)

    @property
    def comm_time(self) -> float:
        return sum(t for kind, t in self.by_kind.items()
                   if kind in COMM_KINDS)

    @property
    def idle_time(self) -> float:
        """Span not covered by any action (scheduling gaps)."""
        return max(0.0, self.total_time - sum(self.by_kind.values()))


@dataclass
class ApplicationProfile:
    """The whole application's profile (all ranks)."""

    ranks: List[RankProfile]
    makespan: float

    @property
    def n_ranks(self) -> int:
        return len(self.ranks)

    def total_by_kind(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for rank_profile in self.ranks:
            for kind, value in rank_profile.by_kind.items():
                totals[kind] = totals.get(kind, 0.0) + value
        return totals

    @property
    def parallel_efficiency(self) -> float:
        """Aggregate compute time over (makespan x ranks): 1.0 means every
        rank computed wall-to-wall."""
        if self.makespan <= 0 or not self.ranks:
            return 0.0
        busy = sum(r.compute_time for r in self.ranks)
        return busy / (self.makespan * len(self.ranks))

    @property
    def load_imbalance(self) -> float:
        """(max - mean) / max of per-rank compute time (0 = balanced)."""
        loads = [r.compute_time for r in self.ranks]
        peak = max(loads, default=0.0)
        if peak <= 0:
            return 0.0
        return (peak - sum(loads) / len(loads)) / peak

    def report(self) -> str:
        """A human-readable profile, one block per aggregate."""
        lines = [
            f"Application profile: {self.n_ranks} ranks, "
            f"makespan {self.makespan:.4f} s",
            f"parallel efficiency {100 * self.parallel_efficiency:.1f} %, "
            f"compute-load imbalance {100 * self.load_imbalance:.1f} %",
            "",
            f"{'action':>10} {'total time':>12} {'share':>7} {'calls':>10}",
        ]
        totals = self.total_by_kind()
        wall = sum(totals.values()) or 1.0
        calls: Dict[str, int] = {}
        for rank_profile in self.ranks:
            for kind, count in rank_profile.calls_by_kind.items():
                calls[kind] = calls.get(kind, 0) + count
        for kind, value in sorted(totals.items(), key=lambda kv: -kv[1]):
            lines.append(
                f"{kind:>10} {value:>11.4f}s {100 * value / wall:>6.1f}% "
                f"{calls.get(kind, 0):>10}"
            )
        return "\n".join(lines)


def build_profile(
    timed_trace: Iterable[Tuple[int, str, float, float]],
) -> ApplicationProfile:
    """Aggregate a replayer timed trace into an application profile."""
    per_rank: Dict[int, RankProfile] = {}
    makespan = 0.0
    for rank, kind, start, end in timed_trace:
        if end < start:
            raise ValueError(
                f"timed-trace record for p{rank}/{kind} ends before it "
                f"starts ({start} > {end})"
            )
        profile = per_rank.get(rank)
        if profile is None:
            profile = per_rank[rank] = RankProfile(rank)
        duration = end - start
        profile.by_kind[kind] = profile.by_kind.get(kind, 0.0) + duration
        profile.calls_by_kind[kind] = profile.calls_by_kind.get(kind, 0) + 1
        profile.total_time = max(profile.total_time, end)
        makespan = max(makespan, end)
    ranks = [per_rank[rank] for rank in sorted(per_rank)]
    return ApplicationProfile(ranks=ranks, makespan=makespan)
