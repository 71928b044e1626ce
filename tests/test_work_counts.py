"""Exact work counts: a noise-free witness for performance changes.

Two replays whose work is large enough to matter and whose counts are
exact: the 64-rank MoE layer over one shared backbone (the shape of the
``moe-congested-64`` ledger row, built here from ``repro.core.synth_ai``
and an inline cluster) and the 256-rank congested synthetic LU that CI's
``replay-scale-smoke`` job replays.  Every integer counter of the
engine and of the mailbox (``metrics["comm"]``), the number of
``fill_vectorized`` calls, the makespan and each rank's finish time are
compared with ``tests/work_counts.json``.  Any difference fails,
whichever way it goes: a change that moves a count regenerates the file
and says which count moved and why.

Regenerate with::

    PYTHONPATH=src python -m tests.test_work_counts
"""

import json
import os
import sys
import tempfile

import pytest

from repro.core.replay import TraceReplayer
from repro.core.synth import write_synthetic_lu_trace
from repro.core.synth_ai import write_synthetic_moe_trace
from repro.simkernel import Platform
from repro.simkernel import engine as engine_mod
from repro.smpi import round_robin_deployment

COUNTS_PATH = os.path.join(os.path.dirname(__file__), "work_counts.json")
TIME_RTOL = 1e-12


def _moe(directory):
    write_synthetic_moe_trace(directory, 64, 1, layers=1, seed=1,
                              jitter=0.01)
    return 64


def _lu_congested(directory):
    write_synthetic_lu_trace(directory, 256, iterations=4, cls="B", inorm=2)
    return 256


RUNS = {"moe-congested-64": _moe, "lu-congested-256": _lu_congested}


def measure(name):
    """Replay one run and return its counts and times."""
    calls = [0]
    fill = engine_mod.fill_vectorized

    def counted(*args, **kwargs):
        calls[0] += 1
        return fill(*args, **kwargs)

    with tempfile.TemporaryDirectory() as directory:
        n_ranks = RUNS[name](directory)
        platform = Platform()
        platform.add_cluster(
            "c", n_ranks, speed=1e9, link_bw=1.25e9, link_lat=1e-6,
            backbone_bw=1.25e10, backbone_lat=1e-6,
            backbone_sharing="shared")
        engine_mod.fill_vectorized = counted
        try:
            result = TraceReplayer(
                platform, round_robin_deployment(platform, n_ranks),
                collect_metrics=True).replay(directory)
        finally:
            engine_mod.fill_vectorized = fill
    metrics = result.metrics
    return {
        "engine": {k: v for k, v in metrics["engine"].items()
                   if isinstance(v, (int, dict))},
        "mailbox": {k: v for k, v in metrics["comm"].items()
                    if isinstance(v, int)},
        "fill_vectorized_calls": calls[0],
        "makespan": result.simulated_time,
        "per_rank_time": result.per_rank_time,
    }


def _load():
    with open(COUNTS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_work_counts_are_pinned(name):
    pinned = _load()[name]
    got = measure(name)
    assert got["makespan"] == pytest.approx(pinned["makespan"],
                                            rel=TIME_RTOL, abs=0.0)
    assert len(got["per_rank_time"]) == len(pinned["per_rank_time"])
    for rank, (a, b) in enumerate(zip(got["per_rank_time"],
                                      pinned["per_rank_time"])):
        assert a == pytest.approx(b, rel=TIME_RTOL, abs=0.0), rank
    moved = {
        f"{section}.{key}": (pinned[section].get(key), value)
        for section in ("engine", "mailbox")
        for key, value in got[section].items()
        if pinned[section].get(key) != value
    }
    moved.update({f"{section}.{key}": (value, None)
                  for section in ("engine", "mailbox")
                  for key, value in pinned[section].items()
                  if key not in got[section]})
    if got["fill_vectorized_calls"] != pinned["fill_vectorized_calls"]:
        moved["fill_vectorized_calls"] = (pinned["fill_vectorized_calls"],
                                          got["fill_vectorized_calls"])
    assert not moved, f"counts moved (pinned, now): {moved}"


def main(argv):
    """Rewrite ``work_counts.json`` from the current tree."""
    counts = {name: measure(name) for name in sorted(RUNS)}
    with open(COUNTS_PATH, "w", encoding="utf-8") as handle:
        json.dump(counts, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {COUNTS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
