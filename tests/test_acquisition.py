"""Integration tests for the acquisition pipeline and its modes (§4)."""

import hashlib
import os
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

from repro.apps import (
    CgWorkload,
    LuWorkload,
    MgWorkload,
    pingpong_program,
    ring_program,
)
from repro.core.acquisition import (
    AcquisitionMode,
    acquire,
    build_deployment,
)
from repro.core.gather import simulate_gather
from repro.core.trace import read_trace_dir
from repro.faults import FaultPlan, LinkDegrade
from repro.platforms import bordereau, grid5000
from repro.smpi import MpiRuntime, api, round_robin_deployment
from repro.tracer import Tracer, VirtualCounterBank
from repro.tracer.tracefile import HEADER_BYTES


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


def test_gather_moves_each_rank_exact_ti_bytes(tmp_path):
    platform = bordereau(4)
    result = acquire(LuWorkload("S", 4).program, platform, 4,
                     workdir=str(tmp_path), measure_application=False)
    report = result.extraction
    sizes = [os.path.getsize(os.path.join(result.trace_dir,
                                          f"SG_process{rank}.trace"))
             for rank in range(4)]
    assert report.per_rank_bytes == sizes
    assert sum(report.per_rank_bytes) == report.n_bytes
    # Regular mode: one rank per node, so the gathered volumes are the
    # files themselves.
    exact = simulate_gather(platform, build_deployment(platform, 4),
                            [float(size) for size in sizes])
    assert result.gather.time == exact.time


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
# touched for speed: neither may move one byte of either archive.  The
# tau/ pin was re-derived once, when tracing overhead started riding on
# compute bursts: every record kept its id and param, and time stamps
# moved by at most 1.5e-13 relative (docs/acquisition.md).
_PINNED_TAU_SHA256 = \
    "5b30fba1a3ef920a9c3a994e3f1ee771204741509b68909cfd4e282fc975a738"
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


# ---------------------------------------------------------------------------
# Owed tracing time: folded into compute bursts == paid burst by burst
# ---------------------------------------------------------------------------

_FOLD_APPS = {
    "lu": (lambda: LuWorkload("S", 8).program, 8),
    "cg": (lambda: CgWorkload("S", 8).program, 8),
    "mg": (lambda: MgWorkload("S", 8).program, 8),
    "ring": (lambda: ring_program, 4),
}
# label -> (cores per host, ranks per host).  F-2 on one core shares the
# CPU, so it never folds; on two cores each rank has a core and does.
_FOLD_DEPLOYMENTS = {"R": (1, 1), "F-2": (1, 2), "F-2-cores2": (2, 2)}


def _pay_every_burst(monkeypatch):
    """Force the burst-by-burst path, whatever the deployment."""
    monkeypatch.setattr(api, "_owed_time_is_delay",
                        lambda runtime, host: False)


def _tree_bytes(root):
    return {name: open(os.path.join(root, name), "rb").read()
            for name in sorted(os.listdir(root))}


_TRC_RECORD = np.dtype([("event_id", "<u4"), ("nid", "<u2"), ("tid", "<u2"),
                        ("param", "<i8"), ("time_us", "<f8")])


def _assert_same_records(tau_a, tau_b):
    """Same files, record counts, event ids and params (counter values,
    GET_TIME_OF_DAY included); time stamps within 1e-12 relative."""
    files_a, files_b = _tree_bytes(tau_a), _tree_bytes(tau_b)
    assert files_a.keys() == files_b.keys()
    for name, blob in files_a.items():
        if not name.endswith(".trc"):
            assert blob == files_b[name], name
            continue
        assert len(blob) == len(files_b[name]), name
        recs_a = np.frombuffer(blob, _TRC_RECORD, offset=HEADER_BYTES)
        recs_b = np.frombuffer(files_b[name], _TRC_RECORD,
                               offset=HEADER_BYTES)
        for field in ("event_id", "nid", "tid", "param"):
            assert np.array_equal(recs_a[field], recs_b[field]), name
        times_a, times_b = recs_a["time_us"], recs_b["time_us"]
        assert np.all(np.abs(times_a - times_b)
                      <= 1e-12 * np.abs(times_b)), name


@pytest.mark.parametrize("deployment", sorted(_FOLD_DEPLOYMENTS))
@pytest.mark.parametrize("app", sorted(_FOLD_APPS))
def test_folded_overhead_matches_burst_by_burst(tmp_path, monkeypatch, app,
                                                 deployment):
    build, ranks = _FOLD_APPS[app]
    cores, folding = _FOLD_DEPLOYMENTS[deployment]

    def run(workdir):
        return acquire(build(), bordereau(cores=cores), ranks,
                       mode=AcquisitionMode(folding=folding),
                       workdir=str(workdir), measure_application=False,
                       papi_jitter=0.01, papi_seed=1)

    folded = run(tmp_path / "folded")
    _pay_every_burst(monkeypatch)
    per_burst = run(tmp_path / "per_burst")
    assert _tree_bytes(folded.trace_dir) == _tree_bytes(per_burst.trace_dir)
    tau_folded, tau_per_burst = (str(tmp_path / "folded" / "tau"),
                                 str(tmp_path / "per_burst" / "tau"))
    _assert_same_records(tau_folded, tau_per_burst)
    assert folded.execution_time == pytest.approx(per_burst.execution_time,
                                                  rel=1e-12, abs=0)
    if cores < folding:   # shared CPU: nothing folds, not one byte moves
        assert _tree_bytes(tau_folded) == _tree_bytes(tau_per_burst)
        assert folded.execution_time == per_burst.execution_time


def _traced_run(program, platform, ranks, monkeypatch=None, **kwargs):
    if monkeypatch is not None:
        _pay_every_burst(monkeypatch)
    tracer = Tracer(None)
    runtime = MpiRuntime(platform, round_robin_deployment(platform, ranks),
                         hooks=tracer, **kwargs)
    return runtime.run(program), tracer.archive


def test_fault_plan_runs_pay_every_burst(tmp_path, monkeypatch):
    """A fault can fail or slow a CPU mid-debt, so a run with a fault plan
    never folds: forcing the burst-by-burst path changes nothing."""
    plan = FaultPlan(events=(LinkDegrade("bordereau.bb", 1e-3, 0.25),))
    program = LuWorkload("S", 4).program
    base, base_archive = _traced_run(program, bordereau(4), 4,
                                     fault_plan=plan)
    forced, forced_archive = _traced_run(program, bordereau(4), 4,
                                         monkeypatch, fault_plan=plan)
    assert base.time == forced.time
    assert base.per_rank_time == forced.per_rank_time
    assert base.fault_report == forced.fault_report
    assert base_archive.records_per_rank == forced_archive.records_per_rank


def test_wtime_reads_the_rank_clock(monkeypatch):
    """MPI_Wtime counts owed tracing time: ping-pong round trips timed
    with it match the burst-by-burst run's."""
    sizes = [1, 4096, 200000]

    def measured(patch):
        results = {}
        _traced_run(lambda mpi: pingpong_program(mpi, sizes, 3, results),
                    bordereau(2), 2, patch)
        return results

    folded = measured(None)
    per_burst = measured(monkeypatch)
    assert folded.keys() == per_burst.keys() == set(sizes)
    for size in sizes:
        assert folded[size] == pytest.approx(per_burst[size], rel=1e-12,
                                             abs=0)


def test_isend_posted_while_owing_time_goes_out_at_its_instant(monkeypatch):
    """A rank that ends owing time with an un-waited Isend: the Isend is
    posted when the rank's clock reaches it, and the rank finishes when
    its debt is paid — as when every burst is paid on the spot."""
    def program(mpi):
        if mpi.rank == 0:
            yield from mpi.compute(1e6)
            mpi.isend(1, 1000, tag=3)
            yield from mpi.comm_size()
        else:
            req = yield from mpi.recv(src=0, tag=3)
            return mpi.wtime(), req.size

    folded, _ = _traced_run(program, bordereau(2), 2)
    per_burst, _ = _traced_run(program, bordereau(2), 2, monkeypatch)
    for got, want in zip(folded.per_rank_time, per_burst.per_rank_time):
        assert got == pytest.approx(want, rel=1e-12, abs=0)
    (t_got, size_got), (t_want, size_want) = (folded.rank_results[1],
                                              per_burst.rank_results[1])
    assert size_got == size_want == 1000
    assert t_got == pytest.approx(t_want, rel=1e-12, abs=0)


# ---------------------------------------------------------------------------
# The bare application run, forked beside the instrumented one
# ---------------------------------------------------------------------------

def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("label", ["R", "F-2"])
@pytest.mark.parametrize("app", ["lu", "ring"])
def test_forked_application_run_matches_inline_runs(app, label):
    build, ranks = _FOLD_APPS[app]
    mode = AcquisitionMode.parse(label)
    result = acquire(build(), bordereau(), ranks, mode=mode,
                     papi_jitter=0.01, papi_seed=1)
    _assert_no_child_left()

    def inline(**kwargs):
        platform = bordereau()
        deployment = build_deployment(platform, ranks, mode)
        return MpiRuntime(platform, deployment, **kwargs).run(build()).time

    assert result.application_time == inline(papi=VirtualCounterBank(ranks))
    assert result.execution_time == inline(
        hooks=Tracer(None),
        papi=VirtualCounterBank(ranks, jitter=0.01, seed=1))


def _stuck_untraced(mpi):
    """Ring, except that untraced rank 0 first waits on a receive no
    rank ever matches: only the bare run deadlocks."""
    if mpi.runtime.hooks is None and mpi.rank == 0:
        yield from mpi.recv(src=1, tag=99)
    yield from ring_program(mpi)


def test_a_failed_application_run_raises_the_inline_error(tmp_path):
    platform = bordereau(4)
    with pytest.raises(Exception) as inline:
        MpiRuntime(platform, build_deployment(platform, 4),
                   papi=VirtualCounterBank(4)).run(_stuck_untraced)
    with pytest.raises(Exception) as forked:
        acquire(_stuck_untraced, bordereau(4), 4, workdir=str(tmp_path))
    assert type(forked.value) is type(inline.value)
    assert str(forked.value) == str(inline.value)
    _assert_no_child_left()


def test_a_failed_instrumented_half_kills_the_application_run():
    def sleeps_untraced(mpi):
        if mpi.runtime.hooks is None and mpi.rank == 0:
            time.sleep(60)
        yield from ring_program(mpi)

    def broken_tracer(tau_dir):
        raise RuntimeError("no tracer today")

    start = time.monotonic()
    with pytest.raises(RuntimeError, match="no tracer today"):
        acquire(sleeps_untraced, bordereau(4), 4,
                tracer_factory=broken_tracer)
    assert time.monotonic() - start < 30
    _assert_no_child_left()


_KILLED_CALLER = textwrap.dedent("""
    import ctypes, os, signal, time
    from repro.apps import ring_program
    from repro.core.acquisition import acquire
    from repro.platforms import bordereau

    def program(mpi):
        if mpi.runtime.hooks is None and mpi.rank == 0:
            os.write(ready_w, str(os.getpid()).encode())
            time.sleep(60)
        yield from ring_program(mpi)

    # Adopt the caller's orphans, so the bare run can be reaped here.
    ctypes.CDLL(None).prctl(36, 1)          # PR_SET_CHILD_SUBREAPER
    ready_r, ready_w = os.pipe()
    caller = os.fork()
    if caller == 0:
        acquire(program, bordereau(4), 4)
        os._exit(0)
    bare = int(os.read(ready_r, 32))
    os.kill(caller, signal.SIGKILL)
    os.waitpid(caller, 0)
    deadline = time.monotonic() + 10
    while os.waitpid(bare, os.WNOHANG)[0] == 0:
        if time.monotonic() > deadline:
            os.kill(bare, signal.SIGKILL)
            os.waitpid(bare, 0)
            print("outlived")
            break
        time.sleep(0.02)
    else:
        print("died with its caller")
""")


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="parent-death signal is Linux-only")
def test_a_killed_acquisition_leaves_no_application_run():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [p for p in sys.path if p]))
    done = subprocess.run([sys.executable, "-c", _KILLED_CALLER], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "died with its caller"
