"""A run leaves its platform as it found it.

Replay maps a trace, a platform and a deployment to a simulated time
(§5, Fig. 4), so a platform that has carried runs must give the same
answers as a fresh one: no fault state, resident-rank count or sharing
group outlives the run that made it.  The pins hold the fault reports of
the fault-injecting entry points byte for byte (SHA-256 of
``FaultReport.to_json()``).
"""

import hashlib
import os
from dataclasses import replace

import pytest

from repro.apps import LuWorkload, lu_class
from repro.core.acquisition import acquire
from repro.core.replay import TraceReplayer
from repro.core.synth import write_synthetic_lu_trace
from repro.faults import (
    CheckpointModel, FaultPlan, HostCrash, LinkDegrade, LinkDown,
)
from repro.platforms import bordereau
from repro.simkernel import Constraint, DeadlockError, Engine
from repro.smpi import MpiRuntime, round_robin_deployment

from .lattice import make_replayer, shared_platform
from .test_faults import ring_trace

RANKS = 8


def digest(report):
    return hashlib.sha256(report.to_json().encode()).hexdigest()


@pytest.fixture(scope="module")
def lu_dir(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("lu"))
    write_synthetic_lu_trace(path, RANKS, 2, cls="S", inorm=1)
    return path


def _lu_report(lu_dir, plan, **kwargs):
    t = make_replayer(shared_platform(RANKS), RANKS).replay(
        lu_dir).simulated_time
    return make_replayer(shared_platform(RANKS), RANKS,
                         fault_plan=plan(t), **kwargs).replay(
        lu_dir).fault_report


def ring_crash():
    n = 8
    t = make_replayer(shared_platform(n), n).replay(
        ring_trace(n, 6)).simulated_time
    plan = FaultPlan(events=(HostCrash("c-3", 0.5 * t),))
    report = make_replayer(shared_platform(n), n, fault_plan=plan).replay(
        ring_trace(n, 6)).fault_report
    assert report.failed_ranks == [3] and report.casualties
    return report


def lu_link_down(lu_dir):
    report = _lu_report(lu_dir, lambda t: FaultPlan(
        events=(LinkDown("c-5.up", 0.3 * t, t_up=0.6 * t),)))
    assert report.failures
    return report


def lu_link_degrade(lu_dir):
    report = _lu_report(lu_dir, lambda t: FaultPlan(events=(
        LinkDegrade("c-1.up", 0.0, factor=0.1),
        LinkDegrade("c.bb", 0.2 * t, factor=0.25))))
    assert len(report.events_applied) == 2 and not report.failures
    return report


def checkpoint_restart(lu_dir):
    report = _lu_report(lu_dir, lambda t: FaultPlan(
        events=(LinkDegrade("c.bb", 0.2 * t, factor=0.5),
                HostCrash("c-3", 0.4 * t),
                LinkDegrade("c.bb", 10 * t, factor=1.0)),
        checkpoint=CheckpointModel(interval=0.25 * t, cost=0.01 * t,
                                   restart=0.02 * t)),
        fault_mode="checkpoint-restart")
    assert report.checkpoint["n_restarts"] == 1
    return report


def runtime_host_crash(_):
    program = LuWorkload(replace(lu_class("S"), itmax=1, inorm=1),
                         4).program
    platform = bordereau(8)
    deployment = round_robin_deployment(platform, 4)
    t = MpiRuntime(platform, deployment).run(program).time
    platform = bordereau(8)
    deployment = round_robin_deployment(platform, 4)
    plan = FaultPlan(events=(HostCrash(deployment[1].name, 0.5 * t),))
    report = MpiRuntime(platform, deployment,
                        fault_plan=plan).run(program).fault_report
    assert report.failed_ranks == [1]
    return report


#: case -> (run returning its FaultReport, SHA-256 of the report's JSON).
PINNED = {
    "ring-rank3-crash": (lambda _: ring_crash(),
        "4ee4baea459dfef4f791b73ad783a327bcf4e09cc80d632b8c2473da40b18f89"),
    "lu-link-down": (lu_link_down,
        "0d79d714dfc0d7561d046ea19216adad09ab0b8f2e559db0db26c5d669fc02a2"),
    "lu-link-degrade": (lu_link_degrade,
        "eb13b81f971e4c51ebbeda1d74c341d2d2e9897e89545435b01fbb0e2d6f103f"),
    "checkpoint-restart": (checkpoint_restart,
        "2b5a92a5f443acddabdae71aa0d1546e93eb8839d53d76454966de4f7de10c7f"),
    "runtime-host-crash": (runtime_host_crash,
        "70897605c72b23d347a2e9f02cec0e5b562f0ec1128ece746fce003e5e48bec3"),
}


@pytest.mark.parametrize("case", sorted(PINNED))
def test_fault_report_is_pinned(case, lu_dir):
    run, want = PINNED[case]
    assert digest(run(lu_dir)) == want


# ---------------------------------------------------------------------------
# Reuse: the same Platform object across runs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def lu_s8(tmp_path_factory):
    """LU class S on 8 ranks, acquired on bordereau."""
    workdir = str(tmp_path_factory.mktemp("lu_s8"))
    return acquire(LuWorkload("S", RANKS).program, bordereau(RANKS), RANKS,
                   workdir=workdir, measure_application=False).trace_dir


def replay(platform, source, **kwargs):
    return TraceReplayer(platform, round_robin_deployment(platform, RANKS),
                         **kwargs).replay(source)


def assert_as_built(platform):
    """No constraint keeps a run's sharing state or a changed capacity."""
    for host in platform.hosts.values():
        assert (host.cpu.users, host.cpu.group) == ({}, None), host.name
    for link in platform.iter_links():
        cons = link.constraint
        assert (cons.users, cons.group) == ({}, None), link.name
        assert cons.capacity == link.bandwidth, link.name


def host_of_rank(platform, rank):
    return round_robin_deployment(platform, RANKS)[rank].name


def test_a_fault_free_replay_after_a_degraded_one_reads_as_fresh(lu_s8):
    fresh = replay(bordereau(RANKS, ground_truth=False), lu_s8)
    assert fresh.simulated_time == pytest.approx(0.06626, abs=5e-6)
    platform = bordereau(RANKS, ground_truth=False)
    plan = FaultPlan(events=(
        LinkDegrade(host_of_rank(platform, 1) + ".up", 0.0, factor=0.01),))
    degraded = replay(platform, lu_s8, fault_plan=plan)
    assert degraded.simulated_time > 10 * fresh.simulated_time
    assert_as_built(platform)
    assert replay(platform, lu_s8).simulated_time == fresh.simulated_time


def test_a_crash_plan_strikes_every_run(lu_s8):
    platform = bordereau(RANKS, ground_truth=False)
    t = replay(platform, lu_s8).simulated_time
    plan = FaultPlan(events=(HostCrash(host_of_rank(platform, 3), 0.5 * t),))
    first = replay(platform, lu_s8, fault_plan=plan).fault_report
    second = replay(platform, lu_s8, fault_plan=plan).fault_report
    assert first.failed_ranks == second.failed_ranks == [3]
    assert first.to_json() == second.to_json()
    assert_as_built(platform)


def test_a_regular_replay_after_a_folded_run_reads_as_fresh(lu_s8):
    fresh = replay(bordereau(RANKS), lu_s8)
    assert fresh.simulated_time == pytest.approx(0.09244, abs=5e-6)
    platform = bordereau(RANKS)
    MpiRuntime(platform, round_robin_deployment(
        platform, RANKS, ranks_per_host=2)).run(
        LuWorkload("S", RANKS).program)
    assert_as_built(platform)
    assert replay(platform, lu_s8).simulated_time == fresh.simulated_time


def _damaged(lu_dir, tmp_path, rank, edit):
    """A copy of ``lu_dir`` with ``edit`` applied to ``rank``'s file."""
    for name in os.listdir(lu_dir):
        with open(os.path.join(lu_dir, name), "rb") as handle:
            data = handle.read()
        if name == f"SG_process{rank}.trace":
            data = edit(data)
        with open(tmp_path / name, "wb") as handle:
            handle.write(data)
    return str(tmp_path)


def _truncated(data):
    """Rank 1 loses its tail: its peers deadlock."""
    return b"\n".join(data.splitlines()[:-5]) + b"\n"


def _bad_wait(data):
    """Rank 2 waits on no Irecv: its process raises out of the run."""
    return b"p2 wait\n" + data


#: ending -> (replayer keywords, the fault plan for a fault-free
#: makespan, (rank, edit) damaging the trace, the error the replay
#: raises).
ENDINGS = {
    "completion": ({}, None, None, None),
    "deadlock": ({}, None, (1, _truncated), DeadlockError),
    "process-exception": ({}, None, (2, _bad_wait), ValueError),
    "link-down": ({}, lambda t: FaultPlan(
        events=(LinkDown("c-5.up", 0.3 * t),)), None, None),
    "checkpoint-restart": ({"fault_mode": "checkpoint-restart"},
                           lambda t: FaultPlan(
        events=(LinkDegrade("c.bb", 0.2 * t, factor=0.5),
                HostCrash("c-3", 0.4 * t),
                LinkDegrade("c-2.up", 10 * t, factor=0.5)),
        checkpoint=CheckpointModel(interval=0.25 * t)), None, None),
}


@pytest.mark.parametrize("ending", sorted(ENDINGS))
def test_every_way_a_replay_ends_releases_the_platform(ending, lu_dir,
                                                        tmp_path):
    kwargs, plan, damage, error = ENDINGS[ending]
    fresh = replay(shared_platform(RANKS), lu_dir).simulated_time
    if plan is not None:
        kwargs = dict(kwargs, fault_plan=plan(fresh))
    platform = shared_platform(RANKS)
    if damage is None:
        replay(platform, lu_dir, **kwargs)
    else:
        with pytest.raises(error):
            replay(platform, _damaged(lu_dir, tmp_path, *damage), **kwargs)
    assert_as_built(platform)
    assert replay(platform, lu_dir).simulated_time == fresh


def test_an_application_run_under_a_crash_releases_the_platform():
    program = LuWorkload(replace(lu_class("S"), itmax=1, inorm=1),
                         4).program
    platform = bordereau(8)
    t = MpiRuntime(platform, round_robin_deployment(platform, 4)).run(
        program).time
    assert_as_built(platform)
    plan = FaultPlan(events=(HostCrash(host_of_rank(platform, 1), 0.5 * t),
                             LinkDegrade(host_of_rank(platform, 2) + ".up",
                                         0.0, factor=0.5)))
    for _ in range(2):
        report = MpiRuntime(platform, round_robin_deployment(platform, 4),
                            fault_plan=plan).run(program).fault_report
        assert report.failed_ranks == [1]
        assert_as_built(platform)


def test_a_paused_run_keeps_its_sharing_state():
    """``run(until=)`` is a pause, not an end: the groups stay until the
    run completes."""
    engine = Engine()
    links = [Constraint(1e8, f"l{i}") for i in range(2)]

    def flow():
        yield engine.comm_activity(links, size=1e8, latency=0.0)

    engine.add_process("f", flow())
    assert engine.run(until=0.5) == 0.5
    assert links[0].group is not None and links[0].group is links[1].group
    assert engine.run() == pytest.approx(1.0)
    assert [(c.users, c.group) for c in links] == [({}, None)] * 2
