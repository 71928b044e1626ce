"""Tests for the NPB CG skeleton and its full pipeline behaviour."""

import pytest

from repro.apps import CgWorkload, cg_class, cg_grid
from repro.apps.cg import _row_exchange_peers
from repro.core.acquisition import acquire
from repro.core.replay import TraceReplayer
from repro.core.trace import read_trace_dir
from repro.platforms import bordereau
from repro.simkernel import Platform
from repro.simkernel.pwl import IDENTITY_MODEL
from repro.smpi import MpiRuntime, round_robin_deployment


def run(program, n_ranks):
    platform = Platform("t")
    platform.add_cluster("c", n_ranks, speed=1e9, link_bw=1.25e8,
                         link_lat=1e-5, backbone_bw=1.25e9, backbone_lat=1e-5)
    runtime = MpiRuntime(platform, round_robin_deployment(platform, n_ranks),
                         comm_model=IDENTITY_MODEL)
    return runtime.run(program)


def test_cg_class_table():
    assert cg_class("S").na == 1400
    assert cg_class("B").na == 75000 and cg_class("B").niter == 75
    with pytest.raises(KeyError):
        cg_class("Q")


def test_cg_grid_layouts():
    assert cg_grid(1) == (1, 1)
    assert cg_grid(2) == (2, 1)
    assert cg_grid(4) == (2, 2)
    assert cg_grid(8) == (4, 2)
    assert cg_grid(64) == (8, 8)
    with pytest.raises(ValueError):
        cg_grid(6)


def test_row_exchange_peers_symmetric():
    """If a exchanges with b in round r, b exchanges with a in round r."""
    npcols, nprows = 4, 2
    for rank in range(8):
        for i, peer in enumerate(_row_exchange_peers(rank, npcols, nprows)):
            back = _row_exchange_peers(peer, npcols, nprows)
            assert back[i] == rank


def test_cg_runs_and_is_allreduce_heavy(tmp_path):
    result = acquire(CgWorkload("S", 4).program, bordereau(4), 4,
                     workdir=str(tmp_path), measure_application=False)
    trace = read_trace_dir(result.trace_dir)
    names = {}
    for rank in trace.ranks():
        for action in trace.actions_of(rank):
            names[action.name] = names.get(action.name, 0) + 1
    # 15 outer x 25 inner x 2 allreduces (+ norm) per rank.
    assert names["allReduce"] == 4 * (15 * 25 * 2 + 15)
    assert names["send"] == names["Irecv"] == names["wait"]
    assert names["compute"] > 0


def test_cg_trace_replays_consistently(tmp_path):
    platform = bordereau(4, ground_truth=False, speed=5e8)
    result = acquire(CgWorkload("S", 4).program, platform, 4,
                     workdir=str(tmp_path))
    replayer = TraceReplayer(platform, round_robin_deployment(platform, 4))
    replay = replayer.replay(result.trace_dir)
    assert replay.simulated_time == pytest.approx(
        result.application_time, rel=1e-12
    )


def test_cg_scales_with_class():
    t_s = run(CgWorkload("S", 4).program, 4).time
    t_w = run(CgWorkload("W", 4).program, 4).time
    assert t_w > 2 * t_s


def test_cg_single_rank():
    result = run(CgWorkload("S", 1).program, 1)
    assert result.n_transfers == 0
    assert result.time > 0
