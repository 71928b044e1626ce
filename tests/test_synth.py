"""Tests for the synthetic LU-mix trace generator."""

import pytest

from repro.core.replay import TraceReplayer
from repro.core.synth import synthetic_lu_actions, write_synthetic_lu_trace
from repro.core.trace import read_trace_dir
from repro.simkernel import Platform
from repro.smpi import round_robin_deployment


def small_platform(n_ranks):
    platform = Platform("t")
    platform.add_cluster(
        "c", n_ranks, speed=1e9, link_bw=1.25e9, link_lat=1e-6,
        backbone_bw=1.25e10, backbone_lat=1e-6, backbone_sharing="shared",
    )
    return platform


def test_written_trace_matches_generator(tmp_path):
    n_ranks, iters = 8, 3
    n_actions = write_synthetic_lu_trace(str(tmp_path), n_ranks, iters,
                                         cls="B", inorm=2)
    trace = read_trace_dir(str(tmp_path))
    assert trace.n_actions() == n_actions
    for rank in range(n_ranks):
        expected = list(synthetic_lu_actions(rank, n_ranks, iters,
                                             cls="B", inorm=2))
        assert trace.actions_of(rank) == expected


def test_sends_and_recvs_pair_up(tmp_path):
    """Every send must have a matching Irecv on the peer (the ghost-cell
    exchange is symmetric), otherwise the replay deadlocks."""
    from repro.core.actions import Irecv, Send

    n_ranks = 32  # non-square pencil split (8x4)
    streams = [list(synthetic_lu_actions(r, n_ranks, 2, inorm=1))
               for r in range(n_ranks)]
    sends = {}
    recvs = {}
    for rank, actions in enumerate(streams):
        for act in actions:
            if isinstance(act, Send):
                key = (rank, act.peer, act.volume)
                sends[key] = sends.get(key, 0) + 1
            elif isinstance(act, Irecv):
                key = (act.peer, rank, act.volume)
                recvs[key] = recvs.get(key, 0) + 1
    assert sends == recvs


@pytest.mark.parametrize("binary", [False, True])
def test_synthetic_trace_replays_without_deadlock(tmp_path, binary):
    n_ranks = 8
    n_actions = write_synthetic_lu_trace(str(tmp_path), n_ranks, 3,
                                         cls="B", inorm=2, binary=binary)
    platform = small_platform(n_ranks)
    replayer = TraceReplayer(platform,
                             round_robin_deployment(platform, n_ranks))
    result = replayer.replay(str(tmp_path))
    assert result.n_actions == n_actions
    assert result.simulated_time > 0


def test_lmm_modes_agree_on_synthetic_trace(tmp_path):
    """End-to-end oracle check on a real congested replay, not just the
    solver in isolation."""
    n_ranks = 16
    write_synthetic_lu_trace(str(tmp_path), n_ranks, 2, cls="B", inorm=1)
    times = {}
    # "vectorized": the array filling on every multi-constraint group.
    for mode, lmm_mode, threshold in (("auto", "auto", None),
                                      ("reference", "reference", None),
                                      ("vectorized", "auto", 1)):
        platform = small_platform(n_ranks)
        replayer = TraceReplayer(
            platform, round_robin_deployment(platform, n_ranks),
            lmm_mode=lmm_mode,
        )
        if threshold is not None:
            replayer.engine.vector_threshold = threshold
        times[mode] = replayer.replay(str(tmp_path)).simulated_time
    assert times["auto"] == pytest.approx(times["reference"], abs=1e-9)
    assert times["vectorized"] == pytest.approx(times["reference"], abs=1e-9)


def test_seed_perturbs_only_with_jitter():
    """The seed is inert at jitter=0 (the default path stays exactly the
    analytic volumes) and deterministic when jitter is on."""
    base = list(synthetic_lu_actions(0, 8, 3, cls="B", inorm=2))
    reseeded = list(synthetic_lu_actions(0, 8, 3, cls="B", inorm=2, seed=5))
    assert base == reseeded

    jittered = list(synthetic_lu_actions(0, 8, 3, cls="B", inorm=2,
                                         seed=5, jitter=0.01))
    again = list(synthetic_lu_actions(0, 8, 3, cls="B", inorm=2,
                                      seed=5, jitter=0.01))
    other_seed = list(synthetic_lu_actions(0, 8, 3, cls="B", inorm=2,
                                           seed=6, jitter=0.01))
    assert jittered == again          # same seed -> byte-identical
    assert jittered != other_seed     # different seed -> different bursts
    assert jittered != base           # jitter actually perturbed something


def test_metadata_sidecar_roundtrip(tmp_path):
    from repro.core.synth import read_synth_metadata, synth_metadata

    n_actions = write_synthetic_lu_trace(str(tmp_path), 4, 2, cls="S",
                                         inorm=1, seed=7, jitter=0.01)
    meta = read_synth_metadata(str(tmp_path))
    assert meta["generator"] == "lu-synth"
    assert meta["seed"] == 7 and meta["jitter"] == 0.01
    assert meta["n_actions"] == n_actions
    expected = synth_metadata(4, 2, cls="S", inorm=1, seed=7, jitter=0.01)
    assert {k: meta[k] for k in expected} == expected
    assert read_synth_metadata(str(tmp_path / "nowhere")) is None


def test_metadata_sidecar_does_not_break_replay(tmp_path):
    """The sidecar lives next to SG_process*.trace; the trace-directory
    reader must ignore it."""
    n_ranks = 4
    n_actions = write_synthetic_lu_trace(str(tmp_path), n_ranks, 2,
                                         cls="S", inorm=1, seed=3,
                                         jitter=0.02)
    platform = small_platform(n_ranks)
    replayer = TraceReplayer(platform,
                             round_robin_deployment(platform, n_ranks))
    result = replayer.replay(str(tmp_path))
    assert result.n_actions == n_actions
    assert result.simulated_time > 0
