"""Replay observability: cheap, always-consistent counters.

Each counter is kept once, by the layer that counts it.  The engine
and the communication layer always hold their counter object (the one
a replay's :class:`Telemetry` passes in, or their own), and each
counting site adds to its field directly, so the two layers execute the
same arithmetic whether a replay collects metrics or not.  What
``collect_metrics`` adds is the replay layer's per-action cells and the
document on the result.  The per-event cost stays a few integer
increments, which holds the Fig. 9 replay-time overhead under the 5%
budget (``benchmarks/bench_fig9_replay_time.py::test_fig9_metrics_overhead``):

* the engine counts events in ``run()``-local integers and adds them to
  :class:`EngineMetrics` once, when the loop exits; its solver and
  sharing-topology counters are added where the work is done;
* the communication layer counts transfers, bytes, eager transfers and
  route/factor cache misses where they happen, and keeps the
  match-queue high-water marks;
* the replay loop charges each action to a per-(rank, opcode) *cell*
  ``[count, volume, time]``, found by list index on the opcode the loop
  already switches on.

Three counter groups mirror the three layers of the replay pipeline:

* :class:`EngineMetrics` — the discrete-event loop: events popped (and
  how many of them shared an instant's batch), stale calendar entries
  skipped, calendar rebuilds, sharing-component sizes, and max-min
  filling iterations.
* :class:`CommMetrics` — the matching/transfer layer: transfers and
  bytes split by eager vs. rendezvous protocol, match-queue depths, and
  route/model-factor cache hit rates.
* :class:`ReplayMetrics` — the action layer: per-rank and per-action-type
  counts and volumes, plus simulated-time attribution (compute vs. comm
  vs. wait).

:class:`Telemetry` bundles one of each and renders the JSON-friendly
document surfaced as ``ReplayResult.metrics`` and by
``repro-replay --metrics``.
"""

from __future__ import annotations

from typing import Dict, List

__all__ = ["EngineMetrics", "CommMetrics", "ReplayMetrics", "FaultMetrics",
           "Telemetry", "ACTION_CATEGORIES", "action_category"]

# Simulated-time attribution buckets, one per action-table keyword
# (repro.core.actions.ACTION_TABLE); a keyword missing here would be
# charged to "other".  ``wait`` is pure waiting; collectives and
# point-to-point are communication (their embedded reduction flops are
# negligible next to the transfers they synchronise on).
ACTION_CATEGORIES: Dict[str, str] = {
    "compute": "compute",
    "wait": "wait",
    "send": "comm", "Isend": "comm", "recv": "comm", "Irecv": "comm",
    "bcast": "comm", "reduce": "comm", "allReduce": "comm",
    "allToAll": "comm", "allToAllv": "comm", "allGather": "comm",
    "reduceScatter": "comm",
    "barrier": "comm",
    "comm_size": "other",
}

_CATEGORY_KEYS = ("compute", "comm", "wait", "other")

def action_category(name: str) -> str:
    """The attribution bucket of a trace action keyword."""
    return ACTION_CATEGORIES.get(name, "other")


class EngineMetrics:
    """Counters for the lazy discrete-event loop.

    Every ``Engine`` holds one and adds to each field where the work is
    done, so the solver and sharing-topology counters are current
    mid-run.  The per-event counters (``events_popped``,
    ``same_instant_events``, ``stale_skipped``, the recompute and
    component counts) are kept in ``run()``'s locals and added here when
    it exits (including on deadlock), so mid-run they only reflect
    completed ``run()`` calls.
    """

    __slots__ = ("events_popped", "same_instant_events", "stale_skipped",
                 "fastpath_recomputes", "generic_recomputes",
                 "component_acts", "max_component_acts",
                 "maxmin_iterations", "vectorized_recomputes",
                 "single_bottleneck_rerates", "idle_advances",
                 "incremental_patches", "patch_fallbacks", "full_resolves",
                 "calendar_rebuilds", "group_merges", "vector_attaches",
                 "vector_demotions", "level_hist")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.events_popped = 0        # valid completion events processed
        self.same_instant_events = 0  # of those, applied inside a batch
        #                               after its first (same instant)
        self.stale_skipped = 0        # lazy-deleted calendar entries dropped
        self.fastpath_recomputes = 0  # single-constraint fast path taken
        self.generic_recomputes = 0   # every other recompute: scalar
        #                               filling, array fill or patch, or
        #                               an inline-completion wave
        self.component_acts = 0       # total activities settled+re-rated
        self.max_component_acts = 0   # largest sharing component seen
        self.maxmin_iterations = 0    # filling levels across all fillings
        self.vectorized_recomputes = 0  # array-backed group full solves
        self.single_bottleneck_rerates = 0  # of those, one common share
        #                               and no filling (lmm.single_bottleneck)
        self.idle_advances = 0        # solo activities advanced with no
        #                               recompute at all (fast path)
        self.incremental_patches = 0  # certified incremental patches applied
        self.patch_fallbacks = 0      # patch attempts that fell back to a
        #                               full solve (loud, never silent)
        self.full_resolves = 0        # full progressive fillings of a group
        self.calendar_rebuilds = 0    # event-calendar compaction sweeps
        self.group_merges = 0         # sharing-group unions
        self.vector_attaches = 0      # groups switched to array-backed
        #                               state (never by a merge)
        self.vector_demotions = 0     # array-backed groups handed back to
        #                               scalar state once they shrank
        # Per-solve filling-level histogram {levels: solves} over the
        # generic solves (scalar, vectorized and certified patches; the
        # single-constraint fast path is not a filling and is excluded).
        self.level_hist: Dict[int, int] = {}

    def as_dict(self) -> Dict[str, float]:
        fast = self.fastpath_recomputes
        generic = self.generic_recomputes
        recomputes = fast + generic
        return {
            "events_popped": self.events_popped,
            # Events applied in a same-instant batch after its first:
            # each one shares the batch's single re-rate of its group.
            "same_instant_events": self.same_instant_events,
            "stale_heap_entries_skipped": self.stale_skipped,
            "sharing_recomputes": recomputes,
            "fastpath_recomputes": fast,
            "component_activities_total": self.component_acts,
            "component_activities_max": self.max_component_acts,
            "component_activities_mean": (
                self.component_acts / recomputes if recomputes else 0.0
            ),
            # The generic path runs one progressive filling per recompute.
            "maxmin_calls": generic,
            "maxmin_iterations": self.maxmin_iterations,
            # How many full solves were of array-backed groups instead of
            # the pure-Python oracle — the component-size cutoff in
            # action (docs/replay-performance.md) — and how many of those
            # found a single bottleneck, so every row took one share with
            # no filling.
            "vectorized_recomputes": self.vectorized_recomputes,
            "single_bottleneck_rerates": self.single_bottleneck_rerates,
            # Solo activities started/completed on an otherwise-idle
            # constraint without any sharing recompute — the compiled
            # replay's fused-compute fast path.
            "idle_advances": self.idle_advances,
            # Incremental-solver provenance: certified patches applied,
            # patch attempts that (loudly) fell back to a full solve,
            # and full group solves.  patches + fallbacks bounds the
            # attempt count; full_resolves = fallbacks + never-attempted.
            "incremental_patches": self.incremental_patches,
            "patch_fallbacks": self.patch_fallbacks,
            "full_resolves": self.full_resolves,
            # Event-calendar compaction sweeps.
            "calendar_rebuilds": self.calendar_rebuilds,
            # Sharing-topology provenance: group unions, groups
            # switched to array-backed state, and array-backed groups
            # demoted back to scalar state below the cut.  A merge never
            # re-attaches (the array-backed side absorbs the other in
            # place), so attaches stay a handful however many merges
            # there are: each one is a group's first growth past the
            # threshold or its regrowth after a demotion.
            "group_merges": self.group_merges,
            "vector_attaches": self.vector_attaches,
            "vector_demotions": self.vector_demotions,
            # {filling levels -> solve count}, string keys for JSON;
            # shard/batch merges sum these per-bucket.
            "filling_level_histogram": {
                str(k): v for k, v in sorted(self.level_hist.items())
            },
        }


class CommMetrics:
    """Counters for the matching and eager/rendezvous transfer layer.

    ``CommSystem`` adds to each field where it happens, so every total
    is current mid-run: a transfer when its flow starts, a cache miss
    when a route or model factor is first computed and cached.  Cache
    *hits* follow from the identity one-route-lookup-and-one-factor-
    lookup-per-transfer: ``hits = transfers - misses``.
    """

    __slots__ = ("transfers", "bytes", "eager_transfers",
                 "max_pending_sends", "max_pending_recvs",
                 "route_cache_misses", "factor_cache_misses")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.transfers = 0
        self.bytes = 0.0
        self.eager_transfers = 0
        self.max_pending_sends = 0   # deepest unmatched-send queue
        self.max_pending_recvs = 0   # deepest unmatched-recv queue
        self.route_cache_misses = 0
        self.factor_cache_misses = 0

    @staticmethod
    def _rate(hits: int, misses: int) -> float:
        total = hits + misses
        return hits / total if total else 0.0

    def as_dict(self) -> Dict[str, float]:
        transfers = self.transfers
        route_hits = transfers - self.route_cache_misses
        factor_hits = transfers - self.factor_cache_misses
        return {
            "transfers": transfers,
            "bytes": self.bytes,
            "eager_transfers": self.eager_transfers,
            "rendezvous_transfers": transfers - self.eager_transfers,
            "max_pending_sends": self.max_pending_sends,
            "max_pending_recvs": self.max_pending_recvs,
            "route_cache_hits": route_hits,
            "route_cache_misses": self.route_cache_misses,
            "route_cache_hit_rate": self._rate(route_hits,
                                               self.route_cache_misses),
            "factor_cache_hits": factor_hits,
            "factor_cache_misses": self.factor_cache_misses,
            "factor_cache_hit_rate": self._rate(factor_hits,
                                                self.factor_cache_misses),
        }


class ReplayMetrics:
    """Per-rank and per-action-type counters for the replayer.

    The replay loop charges each action through a mutable cell
    ``[count, volume, time]``, so with metrics enabled each action
    touches exactly one extra object.  ``volume`` stays ``None`` until
    an action reports one (actions without a volume never do);
    per-category time splits are derived from the cells at
    :meth:`as_dict` time via :data:`ACTION_CATEGORIES`.
    """

    __slots__ = ("n_ranks", "rank_cells", "ops_compiled", "computes_fused",
                 "phase_advances", "shard_merges")

    def __init__(self) -> None:
        self.n_ranks = 0
        # Per rank: {action name: [count, volume, time]}.
        self.rank_cells: List[Dict[str, list]] = []
        # Compiled-feed provenance: how many compiled ops drove this
        # replay (0: the source was streamed) and how many source
        # compute actions were absorbed into fused ops.
        self.ops_compiled = 0
        self.computes_fused = 0
        # Phase-batched/sharded driver provenance: how many synchronizing
        # collectives were advanced as one batched dependency graph
        # (0: every collective ran through the per-rank generator
        # protocol) and how many cross-shard window merges the parallel
        # driver performed (0: single-process replay).
        self.phase_advances = 0
        self.shard_merges = 0

    def reset(self, n_ranks: int) -> None:
        self.n_ranks = n_ranks
        self.rank_cells = [{} for _ in range(n_ranks)]
        self.ops_compiled = 0
        self.computes_fused = 0
        self.phase_advances = 0
        self.shard_merges = 0

    def new_cell(self, rank: int, name: str) -> list:
        """Build (and register) the counting cell for one (rank, action)."""
        cell = [0, None, 0.0]
        self.rank_cells[rank][name] = cell
        return cell

    @property
    def total_actions(self) -> int:
        return sum(cell[0] for cells in self.rank_cells
                   for cell in cells.values())

    def as_dict(self) -> Dict[str, object]:
        action_counts: Dict[str, int] = {}
        action_volumes: Dict[str, float] = {}
        time_totals = {cat: 0.0 for cat in _CATEGORY_KEYS}
        per_rank = []
        for rank in range(self.n_ranks):
            cells = self.rank_cells[rank]
            rank_counts = {}
            times = {cat: 0.0 for cat in _CATEGORY_KEYS}
            for name, (count, volume, seconds) in cells.items():
                rank_counts[name] = count
                action_counts[name] = action_counts.get(name, 0) + count
                if volume is not None:
                    action_volumes[name] = (action_volumes.get(name, 0.0)
                                            + volume)
                times[ACTION_CATEGORIES.get(name, "other")] += seconds
            for cat, value in times.items():
                time_totals[cat] += value
            per_rank.append({
                "rank": rank,
                "actions": rank_counts,
                "n_actions": sum(rank_counts.values()),
                "time": times,
            })
        return {
            "n_ranks": self.n_ranks,
            "n_actions": sum(action_counts.values()),
            "actions_by_type": action_counts,
            "volumes_by_type": action_volumes,
            "time_by_category": time_totals,
            "ops_compiled": self.ops_compiled,
            "computes_fused": self.computes_fused,
            "phase_advances": self.phase_advances,
            "shard_merges": self.shard_merges,
            "per_rank": per_rank,
        }


class FaultMetrics:
    """Counters for the fault-injection layer (see :mod:`repro.faults`).

    All zero in fault-free runs — the injector, which is the only writer,
    simply never exists then.
    """

    __slots__ = ("events_applied", "host_crashes", "link_downs", "link_ups",
                 "link_degrades", "activities_failed", "requests_failed",
                 "processes_killed", "queue_entries_purged")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.events_applied = 0        # fault-plan events executed
        self.host_crashes = 0          # hosts taken down
        self.link_downs = 0            # links taken down
        self.link_ups = 0              # links restored (LinkDown t_up)
        self.link_degrades = 0         # capacity degradations applied
        self.activities_failed = 0     # kernel activities moved to FAILED
        self.requests_failed = 0       # comm requests failed (both sides)
        self.processes_killed = 0      # rank processes killed outright
        self.queue_entries_purged = 0  # match-queue entries of dead ranks

    def as_dict(self) -> Dict[str, int]:
        return {
            "events_applied": self.events_applied,
            "host_crashes": self.host_crashes,
            "link_downs": self.link_downs,
            "link_ups": self.link_ups,
            "link_degrades": self.link_degrades,
            "activities_failed": self.activities_failed,
            "requests_failed": self.requests_failed,
            "processes_killed": self.processes_killed,
            "queue_entries_purged": self.queue_entries_purged,
        }


class Telemetry:
    """One replay's worth of counters, across all layers."""

    __slots__ = ("engine", "comm", "replay", "faults")

    def __init__(self) -> None:
        self.engine = EngineMetrics()
        self.comm = CommMetrics()
        self.replay = ReplayMetrics()
        self.faults = FaultMetrics()

    def as_dict(self) -> Dict[str, object]:
        replay = self.replay.as_dict()
        per_rank = replay.pop("per_rank")
        return {
            "engine": self.engine.as_dict(),
            "comm": self.comm.as_dict(),
            "replay": replay,
            "per_rank": per_rank,
            "faults": self.faults.as_dict(),
        }
