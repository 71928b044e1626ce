"""Exact work counts: a noise-free witness for performance changes.

Replays whose work is large enough to matter and whose counts are
exact, each built here from ``src/`` generators and an inline platform:

* the 64-rank MoE layer over one shared backbone (the shape of the
  ``moe-congested-64`` ledger row);
* the 256-rank congested synthetic LU that CI's ``replay-scale-smoke``
  job replays;
* a 64-rank synthetic LU 2-D pencil on a fat-pipe cluster (the small
  twin of ``lu2d-fatpipe-1024``);
* the timed-trace replay of an acquired LU class S on 8 ranks, Regular
  mode, no counter jitter (the small twin of ``lu-acquire-token-32``),
  with the acquisition's TAU record count and TI action count.

Every integer counter of the engine, of the mailbox
(``metrics["comm"]``) and of the replay layer (``n_actions``,
``ops_compiled``, ``computes_fused``), the number of
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
from dataclasses import replace

import pytest

from repro.apps import LuWorkload, lu_class
from repro.core.acquisition import acquire
from repro.core.replay import TraceReplayer
from repro.core.synth import write_synthetic_lu_trace
from repro.core.synth_ai import write_synthetic_moe_trace
from repro.platforms import bordereau
from repro.simkernel import Platform
from repro.simkernel import engine as engine_mod
from repro.smpi import round_robin_deployment

COUNTS_PATH = os.path.join(os.path.dirname(__file__), "work_counts.json")
TIME_RTOL = 1e-12
REPLAY_KEYS = ("n_actions", "ops_compiled", "computes_fused")
SECTIONS = ("engine", "mailbox", "replay", "acquisition")


def _cluster(n_ranks, backbone_sharing):
    platform = Platform()
    platform.add_cluster(
        "c", n_ranks, speed=1e9, link_bw=1.25e9, link_lat=1e-6,
        backbone_bw=1.25e10, backbone_lat=1e-6,
        backbone_sharing=backbone_sharing)
    return platform


def _moe(directory):
    write_synthetic_moe_trace(directory, 64, 1, layers=1, seed=1,
                              jitter=0.01)
    return directory, _cluster(64, "shared"), 64, {}, None


def _lu_congested(directory):
    write_synthetic_lu_trace(directory, 256, iterations=4, cls="B", inorm=2)
    return directory, _cluster(256, "shared"), 256, {}, None


def _lu2d_fatpipe(directory):
    write_synthetic_lu_trace(directory, 64, iterations=1, cls="B", inorm=1,
                             seed=1, jitter=0.01)
    return directory, _cluster(64, "fatpipe"), 64, {}, None


def _lu_acquired(directory):
    config = replace(lu_class("S"), itmax=1, inorm=1)
    result = acquire(LuWorkload(config, 8).program, bordereau(), 8,
                     workdir=directory, measure_application=False)
    acquisition = {"tau_records": result.tau_archive.n_records,
                   "ti_actions": result.extraction.n_actions}
    return (result.trace_dir, bordereau(ground_truth=False, speed=4e8), 8,
            {"record_timed_trace": True}, acquisition)


RUNS = {"moe-congested-64": _moe, "lu-congested-256": _lu_congested,
        "lu2d-fatpipe-64": _lu2d_fatpipe, "lu-acquire-8": _lu_acquired}


def measure(name):
    """Replay one run and return its counts and times."""
    calls = [0]
    fill = engine_mod.fill_vectorized

    def counted(*args, **kwargs):
        calls[0] += 1
        return fill(*args, **kwargs)

    with tempfile.TemporaryDirectory() as directory:
        trace_dir, platform, n_ranks, kwargs, acquisition = \
            RUNS[name](directory)
        engine_mod.fill_vectorized = counted
        try:
            result = TraceReplayer(
                platform, round_robin_deployment(platform, n_ranks),
                collect_metrics=True, **kwargs).replay(trace_dir)
        finally:
            engine_mod.fill_vectorized = fill
    metrics = result.metrics
    counts = {
        "engine": {k: v for k, v in metrics["engine"].items()
                   if isinstance(v, (int, dict))},
        "mailbox": {k: v for k, v in metrics["comm"].items()
                    if isinstance(v, int)},
        "replay": {k: metrics["replay"][k] for k in REPLAY_KEYS},
        "fill_vectorized_calls": calls[0],
        "makespan": result.simulated_time,
        "per_rank_time": result.per_rank_time,
    }
    if acquisition is not None:
        counts["acquisition"] = acquisition
    return counts


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
        f"{section}.{key}": (pinned.get(section, {}).get(key), value)
        for section in SECTIONS
        for key, value in got.get(section, {}).items()
        if pinned.get(section, {}).get(key) != value
    }
    moved.update({f"{section}.{key}": (value, None)
                  for section in SECTIONS
                  for key, value in pinned.get(section, {}).items()
                  if key not in got.get(section, {})})
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
