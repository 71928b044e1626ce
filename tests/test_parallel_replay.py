"""The parallel replay paths' own behaviour: gates, fallbacks, halo and
metrics merging, and the refusals of sharding.

Phase batching (one dependency graph per synchronizing collective) and
sharded replay (contiguous rank bands in forked workers) are exactness
features, not approximations: that they reproduce the oracle to 1e-9,
and that a fault plan pins them off with byte-identical reports, is
tests/test_differential.py's.
"""

import pytest

from repro.core.replay import TraceReplayer
from repro.core.synth import write_synthetic_lu_trace
from repro.smpi import round_robin_deployment

from .lattice import (
    assert_equivalent, fatpipe_platform, make_replayer, replay,
    shared_platform, write_program,
)


# ----------------------------------------------------------------------
# Phase batching
# ----------------------------------------------------------------------
def test_batching_ineligible_host_models_falls_back_silently(tmp_path):
    # An efficiency model on any replay host makes the batched graph
    # inexact, so the gate quietly keeps the generator path.
    write_synthetic_lu_trace(str(tmp_path), 4, 2, inorm=1)
    platform = shared_platform(4)
    for host in platform.host_list():
        host.efficiency_model = lambda kind, amount: 1.0
    batched = make_replayer(platform, 4, batch_phases=True,
                            collect_metrics=True).replay(str(tmp_path))
    assert batched.metrics["replay"]["phase_advances"] == 0
    assert_equivalent(replay(str(tmp_path), 4, collect_metrics=True),
                      batched)


# ----------------------------------------------------------------------
# Sharded replay
# ----------------------------------------------------------------------
def test_sharded_explicit_halo_and_metrics_merge(tmp_path):
    write_synthetic_lu_trace(str(tmp_path), 16, 2, inorm=1)
    a, b = (replay(str(tmp_path), 16, fatpipe_platform, collect_metrics=True,
                   **kw) for kw in ({}, {"shards": 2, "shard_halo": 16}))
    assert_equivalent(a, b)
    # Merged worker counters are aggregates over overlapping sim sets,
    # flagged as such; per-rank cells are not deduplicatable.
    assert b.metrics["engine"]["aggregated_over_shards"] == 2
    assert b.metrics["per_rank"] == []
    assert b.metrics["replay"]["n_actions"] == a.metrics["replay"]["n_actions"]
    # Sharing-topology counters are per-engine events and sum over the
    # shard engines (each full-halo worker builds the point-to-point
    # groups itself; the collectives' merges stay with the coordinator).
    merges = a.metrics["engine"]["group_merges"]
    assert 0 < merges < b.metrics["engine"]["group_merges"] <= 2 * merges
    assert b.metrics["engine"]["vector_attaches"] == 0   # 16 ranks: scalar


def test_sharded_metrics_sum_each_engines_demotions(tmp_path):
    """Vector threshold 8 (demotion cut 2): every worker engine attaches
    and demotes its own groups, and the merge sums them like the other
    sharing-topology counters."""
    from repro.core.shard import _merge_counters
    from repro.simkernel.telemetry import EngineMetrics

    write_synthetic_lu_trace(str(tmp_path), 16, 2, inorm=1)
    a, b = (replay(str(tmp_path), 16, fatpipe_platform, collect_metrics=True,
                   vector_threshold=8, **kw)
            for kw in ({}, {"shards": 2, "shard_halo": 16}))
    assert_equivalent(a, b)
    assert 0 < a.metrics["engine"]["vector_demotions"] \
        < b.metrics["engine"]["vector_demotions"]
    blobs = []
    for demotions in (2, 3):
        metrics = EngineMetrics()
        metrics.vector_demotions = demotions
        blobs.append({"engine": metrics.as_dict(), "comm": {}})
    assert _merge_counters(blobs)["engine"]["vector_demotions"] == 5


# ----------------------------------------------------------------------
# Option and platform gates
# ----------------------------------------------------------------------
def test_sharding_option_conflicts_raise():
    platform = fatpipe_platform(4)
    deployment = round_robin_deployment(platform, 4)
    with pytest.raises(ValueError, match="record_timed_trace"):
        TraceReplayer(platform, deployment, shards=2,
                      record_timed_trace=True)
    with pytest.raises(ValueError, match="compiled"):
        TraceReplayer(platform, deployment, shards=2, compiled="never")
    with pytest.raises(ValueError, match="binomial"):
        TraceReplayer(platform, deployment, shards=2,
                      collective_algorithm="flat")
    with pytest.raises(ValueError):
        TraceReplayer(platform, deployment, shards=-1)
    with pytest.raises(ValueError):
        TraceReplayer(platform, deployment, shard_halo=-1)


def test_sharding_refuses_shared_backbone(tmp_path):
    write_synthetic_lu_trace(str(tmp_path), 4, 2, inorm=1)
    replayer = make_replayer(shared_platform(4), 4, shards=2)
    with pytest.raises(ValueError, match="decoupled platform"):
        replayer.replay(str(tmp_path))


def test_sharding_refuses_traces_without_windows(tmp_path):
    lines = {r: [f"p{r} comm_size 4", f"p{r} compute 1e6"]
             for r in range(4)}
    write_program(str(tmp_path), lines)
    replayer = make_replayer(fatpipe_platform(4), 4, shards=2)
    with pytest.raises(ValueError, match="synchronizing collective"):
        replayer.replay(str(tmp_path))


def test_sharding_refuses_standalone_bcast(tmp_path):
    lines = {r: [f"p{r} comm_size 4", f"p{r} bcast 1e5", f"p{r} barrier"]
             for r in range(4)}
    write_program(str(tmp_path), lines)
    replayer = make_replayer(fatpipe_platform(4), 4, shards=2)
    with pytest.raises(ValueError, match="bcast/reduce"):
        replayer.replay(str(tmp_path))


def test_single_shard_degrades_to_sequential(tmp_path):
    write_synthetic_lu_trace(str(tmp_path), 4, 2, inorm=1)
    assert_equivalent(replay(str(tmp_path), 4, fatpipe_platform),
                      replay(str(tmp_path), 4, fatpipe_platform, shards=1))
