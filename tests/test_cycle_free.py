"""No run leaves work for the cycle collector.

Each entry point runs once with the collector disabled, its result is
dropped, and ``gc.collect()`` must then find nothing: every object the
run made died by reference counting.  Most cases build the platform
before the measured block; the ``inline`` ones build it inside, so a
platform dropped after its run is held to the same standard.  Each entry
point runs once beforehand so that first-use imports are not counted.
"""

import collections
import gc
import os
from dataclasses import replace

import pytest

from repro.apps import LuWorkload, lu_class
from repro.campaign.runner import execute_scenario
from repro.campaign.spec import (
    CalibrationSpec, PlatformSpec, Scenario, TraceSpec,
)
from repro.core.acquisition import acquire
from repro.core.replay import TraceReplayer
from repro.core.synth import write_synthetic_lu_trace
from repro.faults import (
    CheckpointModel, FaultPlan, HostCrash, LinkDegrade, LinkDown,
)
from repro.platforms import bordereau
from repro.simkernel import Platform
from repro.smpi import MpiRuntime, round_robin_deployment

RANKS = 8


def cyclic_garbage(run):
    """What only the cycle collector frees after ``run()``, its result
    dropped: ``gc.collect()``'s count, and the types of the tracked
    objects the collection made disappear.  The count alone can miss a
    cycle: one through a suspended generator is broken by the
    generator's finalizer, and the collection then reports nothing.
    Dicts and tuples are left out of the types: the collector stops
    tracking those that hold only atomic values, so they leave the list
    without being freed."""
    gc.collect()
    gc.disable()
    try:
        run()
        objects = gc.get_objects()
        alive = {}
        for obj in objects:
            if type(obj) not in (dict, tuple):
                alive[id(obj)] = type(obj).__name__
        del objects, obj
        found = gc.collect()
        for obj in gc.get_objects():
            alive.pop(id(obj), None)
    finally:
        gc.enable()
    return found, collections.Counter(alive.values()).most_common(8)


def assert_cycle_free(build, run):
    """``run(build())`` twice, each on a fresh ``build()``: the first
    warms imports, the second must leave no cyclic garbage."""
    run(build())
    target = build()
    found, freed = cyclic_garbage(lambda: run(target))
    assert (found, freed) == (0, [])


def cluster():
    platform = Platform("t")
    platform.add_cluster("c", RANKS, speed=1e9, link_bw=1.25e9,
                         link_lat=1e-6, backbone_bw=1.25e10,
                         backbone_lat=1e-6, backbone_sharing="shared")
    return platform


@pytest.fixture(scope="module")
def trace_dir(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("lu"))
    write_synthetic_lu_trace(path, RANKS, 2, cls="S", inorm=1)
    return path


@pytest.fixture(scope="module")
def makespan(trace_dir):
    platform = cluster()
    return TraceReplayer(platform, round_robin_deployment(
        platform, RANKS)).replay(trace_dir).simulated_time


def _plans(t):
    """Fault plans that strike a run of makespan ``t``.  The checkpoint
    plan's last event comes after the run, so its injector is still
    waiting when the ranks finish."""
    crash = HostCrash("c-3", 0.4 * t)
    return {
        "host-crash": FaultPlan(events=(crash,)),
        "link-down": FaultPlan(events=(LinkDown("c-5.up", 0.3 * t),)),
        "checkpoint-restart": FaultPlan(
            events=(LinkDegrade("c.bb", 0.2 * t, factor=0.5), crash,
                    LinkDegrade("c.bb", 10 * t, factor=1.0)),
            checkpoint=CheckpointModel(interval=0.25 * t, cost=0.01 * t,
                                       restart=0.02 * t)),
    }


REPLAYS = {
    "whole-programs": {},
    "windowed": {"compiled": "never"},
    "timed-trace": {"record_timed_trace": True},
    "metrics": {"collect_metrics": True},
    "phase-batched": {"batch_phases": True, "collect_metrics": True},
    "host-crash": {"fault_plan": "host-crash"},
    "link-down": {"fault_plan": "link-down", "compiled": "never"},
    "checkpoint-restart": {"fault_plan": "checkpoint-restart",
                           "fault_mode": "checkpoint-restart"},
}


@pytest.mark.parametrize("case", sorted(REPLAYS))
def test_a_replay_leaves_no_cycles(case, trace_dir, makespan):
    kwargs = dict(REPLAYS[case])
    if "fault_plan" in kwargs:
        kwargs["fault_plan"] = _plans(makespan)[kwargs["fault_plan"]]

    def run(platform):
        result = TraceReplayer(platform, round_robin_deployment(
            platform, RANKS), **kwargs).replay(trace_dir)
        report = result.fault_report
        if report is not None:      # the plan really struck the run
            assert report.failures or report.checkpoint["n_restarts"]
        if "batch_phases" in kwargs:
            assert result.metrics["replay"]["phase_advances"] > 0

    assert_cycle_free(cluster, run)


def test_a_replay_that_deadlocks_leaves_no_cycles(tmp_path, trace_dir):
    """The error path: a rank whose trace lost its tail blocks its
    peers; the DeadlockError is raised and dropped."""
    for name in os.listdir(trace_dir):
        with open(os.path.join(trace_dir, name), "rb") as handle:
            data = handle.read()
        if name == "SG_process1.trace":
            data = b"\n".join(data.splitlines()[:-5]) + b"\n"
        with open(tmp_path / name, "wb") as handle:
            handle.write(data)

    def run(platform):
        replayer = TraceReplayer(platform,
                                 round_robin_deployment(platform, RANKS))
        with pytest.raises(Exception, match="deadlock"):
            replayer.replay(str(tmp_path))

    assert_cycle_free(cluster, run)


def test_a_replay_whose_rank_raises_leaves_no_cycles(tmp_path, trace_dir):
    """The other error path: rank 2 waits on no Irecv, its process
    raises out of the run, and its peers are left suspended.  The
    platform is built inline: one kept alive outside would hide a run
    that its constraints still reference."""
    for name in os.listdir(trace_dir):
        with open(os.path.join(trace_dir, name), "rb") as handle:
            data = handle.read()
        if name == "SG_process2.trace":
            data = b"p2 wait\n" + data
        with open(tmp_path / name, "wb") as handle:
            handle.write(data)

    def run(_):
        platform = cluster()
        replayer = TraceReplayer(platform,
                                 round_robin_deployment(platform, RANKS))
        with pytest.raises(ValueError, match="no pending Irecv"):
            replayer.replay(str(tmp_path))

    assert_cycle_free(lambda: None, run)


def lu_program():
    return LuWorkload(replace(lu_class("S"), itmax=1, inorm=1), 4).program


@pytest.mark.parametrize("faulted", [False, True],
                         ids=["fault-free", "host-crash"])
def test_an_application_run_leaves_no_cycles(faulted):
    program = lu_program()
    plan = None
    if faulted:
        platform = bordereau(8)
        deployment = round_robin_deployment(platform, 4)
        makespan = MpiRuntime(platform, deployment).run(program).time
        plan = FaultPlan(events=(HostCrash(deployment[1].name,
                                           0.5 * makespan),))

    def run(platform):
        result = MpiRuntime(platform, round_robin_deployment(platform, 4),
                            fault_plan=plan).run(program)
        if faulted:
            assert result.fault_report.failures

    assert_cycle_free(lambda: bordereau(8), run)


@pytest.mark.parametrize("measure_application", [False, True],
                         ids=["traced-only", "with-application-run"])
def test_an_acquisition_leaves_no_cycles(tmp_path, measure_application):
    program = lu_program()
    workdirs = iter(("warm", "measured"))

    def run(platform):
        acquire(program, platform, 4, workdir=str(tmp_path / next(workdirs)),
                measure_application=measure_application)

    assert_cycle_free(lambda: bordereau(8), run)


@pytest.mark.parametrize("entry", ["acquire", "replay"])
def test_a_run_on_an_inline_platform_leaves_no_cycles(tmp_path, trace_dir,
                                                     entry):
    """The platform is built, run on and dropped inside the measured
    block: whatever the run left on it would be cyclic garbage."""
    program = lu_program()
    workdirs = iter(("warm", "measured"))

    def run(_):
        if entry == "acquire":
            acquire(program, bordereau(), 4,
                    workdir=str(tmp_path / next(workdirs)),
                    measure_application=False)
        else:
            platform = cluster()
            TraceReplayer(platform, round_robin_deployment(
                platform, RANKS)).replay(trace_dir)

    assert_cycle_free(lambda: None, run)


def test_a_campaign_unit_leaves_no_cycles():
    """An acquire unit builds its ground-truth and replay platforms
    itself, so here the platforms are part of what is measured."""
    sdict = Scenario(
        name="lu", ranks=4,
        trace=TraceSpec(kind="acquire", app="lu", cls="S", itmax_cap=1),
        platform=PlatformSpec(name="bordereau", hosts=8),
        calibration=CalibrationSpec(kind="fixed", speed=2e9),
        measure_actual=True,
    ).to_dict()
    assert_cycle_free(lambda: sdict, execute_scenario)
