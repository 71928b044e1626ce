"""Human-readable rendering of a replay telemetry document.

Input: the dict surfaced as ``ReplayResult.metrics`` (and emitted as JSON
by ``repro-replay --metrics``) — sections ``engine``, ``comm``,
``replay``, ``per_rank``.  Output: a fixed-width report, used by the
examples and handy in notebooks:

    >>> result = replayer.replay(trace)        # collect_metrics=True
    >>> print(format_metrics_report(result.metrics))
"""

from __future__ import annotations

from typing import Dict, List, Optional

__all__ = ["format_metrics_report"]


def _fmt_count(value: float) -> str:
    if isinstance(value, float) and not value.is_integer():
        return f"{value:,.2f}"
    return f"{int(value):,}"


def _fmt_bytes(value: float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024 or unit == "GiB":
            return f"{value:,.1f} {unit}"
        value /= 1024
    return f"{value:,.1f} GiB"  # pragma: no cover - loop always returns


def format_metrics_report(metrics: Optional[Dict],
                          max_ranks: int = 16) -> str:
    """Render a replay telemetry document as a readable report.

    ``max_ranks`` caps the per-rank table (the totals always cover every
    rank); pass ``None``/0 for no cap.
    """
    if not metrics:
        return ("no metrics collected "
                "(build the TraceReplayer with collect_metrics=True)")
    lines: List[str] = []
    replay = metrics.get("replay", {})
    engine = metrics.get("engine", {})
    comm = metrics.get("comm", {})
    per_rank = metrics.get("per_rank", [])

    lines.append("=== replay ===")
    lines.append(f"ranks:   {_fmt_count(replay.get('n_ranks', 0))}")
    lines.append(f"actions: {_fmt_count(replay.get('n_actions', 0))}")
    by_type = replay.get("actions_by_type", {})
    volumes = replay.get("volumes_by_type", {})
    for name in sorted(by_type):
        volume = volumes.get(name)
        unit = "flops" if name == "compute" else "B"
        extra = f"  ({volume:,.0f} {unit})" if volume is not None else ""
        lines.append(f"  {name:<10} x{by_type[name]:,}{extra}")
    times = replay.get("time_by_category", {})
    if times:
        total = sum(times.values()) or 1.0
        lines.append("simulated time attribution (summed over ranks):")
        for key in ("compute", "comm", "wait", "other"):
            value = times.get(key, 0.0)
            lines.append(f"  {key:<8} {value:12.6f} s "
                         f"({100.0 * value / total:5.1f}%)")

    lines.append("=== comm ===")
    lines.append(
        f"transfers: {_fmt_count(comm.get('transfers', 0))} "
        f"({_fmt_count(comm.get('eager_transfers', 0))} eager, "
        f"{_fmt_count(comm.get('rendezvous_transfers', 0))} rendezvous), "
        f"{_fmt_bytes(comm.get('bytes', 0.0))}"
    )
    lines.append(
        f"match queues: <= {_fmt_count(comm.get('max_pending_sends', 0))} "
        f"unmatched sends, "
        f"<= {_fmt_count(comm.get('max_pending_recvs', 0))} unmatched recvs"
    )
    lines.append(
        f"caches: route {100.0 * comm.get('route_cache_hit_rate', 0.0):.1f}% "
        f"hit, model factors "
        f"{100.0 * comm.get('factor_cache_hit_rate', 0.0):.1f}% hit"
    )

    lines.append("=== engine ===")
    lines.append(
        f"events: {_fmt_count(engine.get('events_popped', 0))} popped "
        f"({_fmt_count(engine.get('same_instant_events', 0))} same-instant), "
        f"{_fmt_count(engine.get('stale_heap_entries_skipped', 0))} stale "
        f"skipped, {_fmt_count(engine.get('calendar_rebuilds', 0))} "
        f"calendar rebuilds"
    )
    lines.append(
        f"sharing: {_fmt_count(engine.get('sharing_recomputes', 0))} "
        f"recomputes ({_fmt_count(engine.get('fastpath_recomputes', 0))} "
        f"fast path), component size "
        f"mean {engine.get('component_activities_mean', 0.0):.1f} / "
        f"max {_fmt_count(engine.get('component_activities_max', 0))}"
    )
    lines.append(
        f"max-min: {_fmt_count(engine.get('maxmin_calls', 0))} fillings "
        f"({_fmt_count(engine.get('vectorized_recomputes', 0))} "
        f"vectorized, "
        f"{_fmt_count(engine.get('single_bottleneck_rerates', 0))} of "
        f"them single-bottleneck), "
        f"{_fmt_count(engine.get('maxmin_iterations', 0))} levels"
    )
    patches = engine.get("incremental_patches", 0)
    fallbacks = engine.get("patch_fallbacks", 0)
    attempts = patches + fallbacks
    lines.append(
        f"incremental: {_fmt_count(patches)} patches applied / "
        f"{_fmt_count(attempts)} attempts "
        f"({_fmt_count(fallbacks)} fallbacks), "
        f"{_fmt_count(engine.get('full_resolves', 0))} full solves"
    )
    lines.append(
        f"groups: {_fmt_count(engine.get('group_merges', 0))} merges, "
        f"{_fmt_count(engine.get('vector_attaches', 0))} array-backed "
        f"attaches, {_fmt_count(engine.get('vector_demotions', 0))} "
        f"demotions"
    )
    hist = engine.get("filling_level_histogram") or {}
    if hist:
        body = ", ".join(
            f"{k}:{_fmt_count(v)}"
            for k, v in sorted(hist.items(), key=lambda kv: int(kv[0])))
        lines.append(f"filling levels: {body}")

    if per_rank:
        lines.append("=== per rank ===")
        lines.append(f"{'rank':>6} {'actions':>9} {'compute(s)':>12} "
                     f"{'comm(s)':>12} {'wait(s)':>12}")
        shown = per_rank if not max_ranks else per_rank[:max_ranks]
        for entry in shown:
            time = entry.get("time", {})
            lines.append(
                f"{entry.get('rank', '?'):>6} "
                f"{entry.get('n_actions', 0):>9,} "
                f"{time.get('compute', 0.0):>12.6f} "
                f"{time.get('comm', 0.0):>12.6f} "
                f"{time.get('wait', 0.0):>12.6f}"
            )
        if max_ranks and len(per_rank) > max_ranks:
            lines.append(f"  ... {len(per_rank) - max_ranks} more ranks")
    return "\n".join(lines)
