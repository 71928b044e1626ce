"""Integration tests for the acquisition pipeline and its modes (§4)."""

import hashlib
import os

import pytest

from repro.apps import LuWorkload, ring_program
from repro.core.acquisition import (
    AcquisitionMode,
    acquire,
    build_deployment,
)
from repro.core.trace import read_trace_dir
from repro.platforms import bordereau, grid5000


def test_mode_labels_roundtrip():
    cases = {
        "R": AcquisitionMode(),
        "F-8": AcquisitionMode(folding=8),
        "S-2": AcquisitionMode(sites=2),
        "SF-(2,16)": AcquisitionMode(sites=2, folding=16),
    }
    for label, mode in cases.items():
        assert mode.label == label
        assert AcquisitionMode.parse(label) == mode
    with pytest.raises(ValueError):
        AcquisitionMode.parse("X-3")
    with pytest.raises(ValueError):
        AcquisitionMode(folding=0)


def test_build_deployment_regular():
    platform = bordereau(8)
    deployment = build_deployment(platform, 8)
    assert len(deployment) == 8
    assert len({h.name for h in deployment}) == 8


def test_build_deployment_folding():
    platform = bordereau(8)
    deployment = build_deployment(platform, 8, AcquisitionMode(folding=4))
    assert len({h.name for h in deployment}) == 2
    assert deployment[0] is deployment[3]
    assert deployment[4] is deployment[7]


def test_build_deployment_scattering():
    platform = grid5000(8, 8)
    deployment = build_deployment(platform, 8, AcquisitionMode(sites=2))
    clusters = [h.cluster.name for h in deployment]
    assert clusters[:4] == ["bordereau"] * 4
    assert clusters[4:] == ["gdx"] * 4


def test_build_deployment_scatter_fold():
    platform = grid5000(8, 8)
    deployment = build_deployment(
        platform, 8, AcquisitionMode(sites=2, folding=2)
    )
    assert len({h.name for h in deployment}) == 4
    assert deployment[0] is deployment[1]


def test_build_deployment_errors():
    platform = bordereau(4)
    with pytest.raises(ValueError):
        build_deployment(platform, 8)  # too few hosts
    with pytest.raises(ValueError):
        build_deployment(platform, 4, AcquisitionMode(sites=2))  # 1 cluster


def test_acquire_full_pipeline_writes_everything(tmp_path):
    platform = bordereau(4)
    result = acquire(ring_program, platform, 4, workdir=str(tmp_path))
    assert result.mode_label == "R"
    assert result.application_time is not None
    assert result.execution_time > result.application_time
    assert result.tracing_overhead > 0
    assert result.tau_archive.n_records > 0
    assert result.extraction.n_actions == 48  # 4 ranks x 4 laps x 3 actions
    assert result.gather.time > 0
    trace = read_trace_dir(result.trace_dir)
    assert trace.n_actions() == 48
    # The TAU files really exist with the paper's naming.
    assert os.path.exists(os.path.join(str(tmp_path), "tau",
                                       "tautrace.0.0.0.trc"))
    assert os.path.exists(os.path.join(str(tmp_path), "tau", "events.0.edf"))


def test_acquire_size_accounting_mode():
    platform = bordereau(4)
    result = acquire(ring_program, platform, 4, workdir=None,
                     measure_application=False)
    assert result.application_time is None
    assert result.tracing_overhead is None
    assert result.extraction is None
    assert result.tau_archive.n_records > 0


def test_folding_slows_execution_roughly_linearly(tmp_path):
    """Table 2's phenomenon on a small instance."""
    wl = LuWorkload("S", 4)
    platform = bordereau(8)
    regular = acquire(wl.program, platform, 4, measure_application=False)
    folded = acquire(wl.program, platform, 4,
                     mode=AcquisitionMode(folding=4),
                     measure_application=False)
    ratio = folded.execution_time / regular.execution_time
    # Class S is tiny and wavefront-dependency-limited, so folded ranks
    # often compute alone and the ratio sits below the folding factor;
    # the Table 2 bench shows the ~x ratio at realistic classes.
    assert 1.7 < ratio < 6.0


def test_scattering_slows_execution(tmp_path):
    wl = LuWorkload("S", 4)
    platform = grid5000(8, 8)
    regular = acquire(wl.program, platform, 4, measure_application=False)
    scattered = acquire(wl.program, platform, 4,
                        mode=AcquisitionMode(sites=2),
                        measure_application=False)
    assert scattered.execution_time > regular.execution_time


def test_trace_invariance_across_modes(tmp_path):
    """§6.2's key property: the time-independent trace does not depend on
    the acquisition scenario (identical without counter jitter, within
    1% with it)."""
    wl = LuWorkload("S", 4)
    platform = grid5000(8, 8)
    traces = {}
    for label in ("R", "F-4", "S-2", "SF-(2,2)"):
        workdir = tmp_path / label.replace("(", "_").replace(")", "_")
        result = acquire(wl.program, platform, 4,
                         mode=AcquisitionMode.parse(label),
                         workdir=str(workdir),
                         measure_application=False)
        traces[label] = read_trace_dir(result.trace_dir)
    reference = traces["R"]
    for label, trace in traces.items():
        assert trace.by_rank == reference.by_rank, (
            f"mode {label} produced a different trace"
        )


def test_acquisition_times_differ_but_jittered_traces_stay_close(tmp_path):
    wl = LuWorkload("S", 2)
    platform = bordereau(4)
    res_a = acquire(wl.program, platform, 2, workdir=str(tmp_path / "a"),
                    papi_jitter=0.004, papi_seed=1,
                    measure_application=False)
    res_b = acquire(wl.program, platform, 2, workdir=str(tmp_path / "b"),
                    mode=AcquisitionMode(folding=2),
                    papi_jitter=0.004, papi_seed=2,
                    measure_application=False)
    trace_a = read_trace_dir(res_a.trace_dir)
    trace_b = read_trace_dir(res_b.trace_dir)
    # Same action structure...
    assert trace_a.n_actions() == trace_b.n_actions()
    # ...and compute volumes within the <1% counter-accuracy band.
    for rank in trace_a.ranks():
        for action_a, action_b in zip(trace_a.actions_of(rank),
                                      trace_b.actions_of(rank)):
            assert action_a.name == action_b.name
            if action_a.name == "compute":
                rel = abs(action_a.volume - action_b.volume) / action_a.volume
                assert rel < 0.01


# SHA-256 over the sorted files (name, NUL, bytes) of the archives that
# acquire(LU class S, 8 ranks, bordereau, papi_jitter=0.01, papi_seed=1)
# leaves behind, computed at the commit before the tracer/reader were
# touched for speed: neither may move one byte of either archive.
_PINNED_TAU_SHA256 = \
    "670cd0ddc84e5b971c1c95bc591de357a9b1c714730212b5e7155eddd0494bae"
_PINNED_TI_SHA256 = \
    "0f93651d0e77cdbdac75819d1c95dd56f718bef73aba389f2ca7c9cbabc84f6c"


def _tree_sha256(root):
    digest = hashlib.sha256()
    for name in sorted(os.listdir(root)):
        digest.update(name.encode() + b"\0")
        with open(os.path.join(root, name), "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def test_acquired_archives_are_pinned_byte_for_byte(tmp_path):
    result = acquire(LuWorkload("S", 8).program, bordereau(), 8,
                     workdir=str(tmp_path), papi_jitter=0.01, papi_seed=1)
    assert result.extraction.n_actions == 39447
    assert _tree_sha256(str(tmp_path / "tau")) == _PINNED_TAU_SHA256
    assert _tree_sha256(str(tmp_path / "ti")) == _PINNED_TI_SHA256
