"""Campaign-level observability: the ``metrics`` block of a manifest.

One :class:`CampaignMetrics` covers one job — one ``run_campaign``
invocation or one service job; both build it with
:meth:`CampaignMetrics.of_job` when the job settles, so the block has
one key set whoever ran the campaign.  ``worker_utilization``, busy
seconds against the ``jobs x wall`` capacity, is the number that says
whether a sweep was starved by stragglers.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Sequence

from .queue import LOCAL_WORKER, UNIT_DONE, UNIT_STATES, WorkUnit
from .spec import CampaignSpec
from .store import STATUS_TIMEOUT, RunRecord

__all__ = ["CampaignMetrics"]


@dataclass
class CampaignMetrics:
    """Counters for one campaign job."""

    scenarios_total: int
    completed: int              # scenarios that ended with a result
    failed: int                 # scenarios that exhausted their attempts
    cached_hits: int            # served without executing anything
    cached_from_store: int      # of those, served by --resume's store
    replays_executed: int       # attempts launched
    retries: int                # re-executions after a lost attempt
    timeouts: int               # attempts terminated at timeout_s
    worker_busy_seconds: float  # wall of every attempt that reported
    wall_seconds: float         # fan-out to finish
    worker_utilization: float   # busy / (jobs x wall)
    jobs: int                   # units the job ran at once
    units: Dict[str, int]       # units by state
    workers: List[str]          # who won the DONE units
    distributed: bool           # a remote worker won one

    @classmethod
    def of_job(cls, spec: CampaignSpec, records: Sequence[RunRecord],
               units: Sequence[WorkUnit],
               wall_seconds: float) -> "CampaignMetrics":
        """The metrics of a settled job from its run records and units;
        history entries tagged ``resumed`` (carried over by ``--resume``
        or swept at a restart) do not count."""
        own = [entry for unit in units for entry in unit.retry_history
               if not entry.get("resumed")]
        busy = (sum(u.duration or 0.0 for u in units if u.state == UNIT_DONE)
                + sum(entry.get("wall_seconds", 0.0) for entry in own))
        states = dict.fromkeys(UNIT_STATES, 0)
        for unit in units:
            states[unit.state] += 1
        workers = sorted({u.winner for u in units if u.winner})
        capacity = spec.jobs * wall_seconds
        return cls(
            scenarios_total=len(spec.scenarios),
            completed=sum(1 for r in records if r.ok),
            failed=sum(1 for r in records if not r.ok),
            cached_hits=sum(1 for r in records if r.cache_hit),
            cached_from_store=sum(1 for r in records
                                  if r.cache_source == "store"),
            replays_executed=sum(u.attempts for u in units),
            retries=sum(max(0, u.attempts - 1) for u in units),
            timeouts=sum(1 for entry in own
                         if entry.get("status") == STATUS_TIMEOUT),
            worker_busy_seconds=round(busy, 6),
            wall_seconds=round(wall_seconds, 6),
            worker_utilization=busy / capacity if capacity > 0 else 0.0,
            jobs=spec.jobs, units=states, workers=workers,
            distributed=any(w != LOCAL_WORKER for w in workers),
        )

    def as_dict(self) -> Dict[str, Any]:
        return asdict(self)
