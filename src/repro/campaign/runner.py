"""Campaign execution: one scenario in one child, and ``run_campaign``.

The worker side, :func:`execute_scenario`, is an ordinary module-level
function over the (picklable) scenario dict.  One attempt at it in one
child process is a :class:`ScenarioChild` (the replay kernel is pure
Python: processes, not threads, are the unit of parallelism) — the unit
``run_campaign``, the service's local slots and ``repro-worker`` all
run.

``run_campaign`` turns a :class:`~repro.campaign.spec.CampaignSpec` into
results as one job of work units (:mod:`repro.campaign.dispatch`) run in
this process.  Cached scenarios are served without a child, which is
what makes re-running a dozens-of-scenarios campaign after editing one
platform file replay exactly the affected scenarios; the rest run
``jobs`` at a time under the dispatcher's retry policy.  A scenario that
keeps failing is *recorded* — status, last traceback — and the campaign
moves on; one broken point never kills a sweep (§6's tables want every
cell that can be produced).
"""

from __future__ import annotations

import importlib
import multiprocessing
import os
import signal
import tempfile
import time
import traceback
from dataclasses import dataclass, field, replace as dc_replace
from typing import Callable, Dict, List, Optional

from .cache import ResultCache
from .queue import STATE_CANCELLED, STATE_STAGING, JobQueue
from .spec import CampaignSpec, PlatformSpec, Scenario
from .store import STATUS_FAILED, STATUS_OK, STATUS_TIMEOUT, RunRecord
from .telemetry import CampaignMetrics

__all__ = ["execute_scenario", "run_campaign", "CampaignResult",
           "ScenarioChild"]

# fork keeps worker start-up at O(page tables), and the child inherits
# every module the parent holds (see _UNIT_MODULES); spawn (macOS/Windows)
# re-imports this module, which works but costs an interpreter start per
# attempt.  Every process the campaign and service tiers start uses this
# method.
_START_METHOD = ("fork" if "fork" in multiprocessing.get_all_start_methods()
                 else "spawn")

#: Every module a unit may import lazily, whatever its trace kind,
#: calibration kind or replay options (sharded replay, the fault modes
#: and moe's RNG included).  The entry points never import them, so they
#: start light; the first ScenarioChild of a process imports them, and
#: every child forked after that inherits them instead of spending ~0.2 s
#: re-importing numpy and the kernel.  Forking after numpy's import is
#: safe: OpenBLAS quiesces its thread pool around fork (pthread_atfork).
_UNIT_MODULES = (
    "numpy.random",
    "repro.apps", "repro.apps.classes", "repro.platforms",
    "repro.core.acquisition", "repro.core.calibration",
    "repro.core.replay", "repro.core.shard",
    "repro.core.synth", "repro.core.synth_ai",
    "repro.faults.checkpoint", "repro.faults.injector",
    "repro.simkernel", "repro.simkernel.pwl", "repro.smpi",
)


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def _build_named_platform(pspec: PlatformSpec, ground_truth: bool,
                          speed: Optional[float] = None):
    from ..platforms import named_platform
    return named_platform(pspec.name, ground_truth,
                          hosts=pspec.hosts or None, cores=pspec.cores,
                          speed=speed)


def _replay_platform(scenario: Scenario, speed: Optional[float]):
    if scenario.platform.kind == "xml":
        from ..simkernel import load_platform
        # XML platforms carry their own rates; a calibration speed would
        # silently contradict the file, so it is not applied here.
        return load_platform(scenario.platform.xml_path)
    return _build_named_platform(scenario.platform, ground_truth=False,
                                 speed=speed)


def _rank_program(app: str, cls: str, ranks: int, itmax_cap: int = 0):
    from ..apps import CgWorkload, LuWorkload, MgWorkload, ring_program
    if app == "lu":
        config = cls
        if itmax_cap > 0:
            from ..apps.classes import lu_class
            config = dc_replace(lu_class(cls), itmax=itmax_cap,
                                inorm=itmax_cap)
        return LuWorkload(config, ranks).program
    if app == "cg":
        return CgWorkload(cls, ranks).program
    if app == "mg":
        return MgWorkload(cls, ranks).program
    if app == "ring":
        return ring_program
    raise ValueError(f"unknown app {app!r}")


def _resolve_calibration(scenario: Scenario):
    """-> (speed or None, comm model, info dict for the record)."""
    from ..simkernel.pwl import DEFAULT_MPI_MODEL, PiecewiseLinearModel, Segment

    calib = scenario.calibration
    if calib.kind == "nominal":
        return None, DEFAULT_MPI_MODEL, {"kind": "nominal"}
    if calib.kind == "fixed":
        model = DEFAULT_MPI_MODEL
        if calib.segments:
            model = PiecewiseLinearModel([
                Segment(lower, upper, lat, bw)
                for lower, upper, lat, bw in calib.segments
            ])
        speed = calib.speed if calib.speed > 0 else None
        return speed, model, {"kind": "fixed", "speed": calib.speed}
    # auto: the §5 procedure, run by this worker on the scenario's
    # ground-truth platform.  Deterministic per calib_seed.
    from ..core.calibration import calibrate_flop_rate, calibrate_network
    from ..smpi import round_robin_deployment

    if scenario.platform.kind != "named":
        raise ValueError(
            "calibration kind 'auto' needs a named (catalog) platform — "
            "XML platforms have no ground-truth flavour to calibrate on"
        )
    ground = _build_named_platform(scenario.platform, ground_truth=True)
    deployment = round_robin_deployment(ground, calib.calib_ranks)
    program = _rank_program(calib.calib_app, calib.calib_cls,
                            calib.calib_ranks)
    flops = calibrate_flop_rate(ground, deployment, program,
                                runs=calib.runs, jitter=calib.calib_jitter,
                                seed=calib.calib_seed)
    network = calibrate_network(ground, deployment[:2])
    info = {"kind": "auto", "speed": flops.rate,
            "spread": flops.spread, "latency": network.latency}
    return flops.rate, network.model, info


def _strip_metrics(metrics: Optional[dict]) -> Optional[dict]:
    """Telemetry sans the per-rank section (O(ranks) of JSON the campaign
    record does not need; ``repro-replay --metrics`` serves that)."""
    if metrics is None:
        return None
    return {k: v for k, v in metrics.items() if k != "per_rank"}


def execute_scenario(sdict: dict) -> dict:
    """Run one scenario to completion in this process; returns the JSON
    record payload.  Raises on failure — the caller (worker wrapper or a
    direct in-process invocation) owns the failure policy."""
    from ..core.replay import TraceReplayer
    from ..smpi import round_robin_deployment

    scenario = Scenario.from_dict(sdict)
    trace = scenario.trace
    t0 = time.perf_counter()

    if trace.stage_wait_s > 0:
        # Staging from an external resource (batch queue, remote FS).
        time.sleep(trace.stage_wait_s)

    # -- runner-exercise fixtures ---------------------------------------
    def fixture_payload(simulated_time: float) -> dict:
        return {"simulated_time": simulated_time, "actual_time": None,
                "rel_error": None, "n_actions": 0, "n_ranks": scenario.ranks,
                "replay_wall_seconds": 0.0, "stage_wait_s": trace.stage_wait_s,
                "worker_wall_seconds": time.perf_counter() - t0,
                "calibration": {"kind": "fixture"}, "metrics": None}

    if trace.kind == "sleep":
        time.sleep(trace.seconds)
        return fixture_payload(trace.seconds)
    if trace.kind == "fail":
        seen = 0
        if trace.state_path and os.path.exists(trace.state_path):
            with open(trace.state_path) as handle:
                seen = int(handle.read().strip() or 0)
        if trace.state_path:
            with open(trace.state_path, "w") as handle:
                handle.write(str(seen + 1))
        if seen < trace.fail_times:
            raise RuntimeError(
                f"injected failure {seen + 1}/{trace.fail_times}"
            )
        return fixture_payload(0.0)

    speed, comm_model, calib_info = _resolve_calibration(scenario)
    fault_plan = None
    fault_mode = "abort"
    if scenario.faults is not None:
        fault_plan = scenario.faults.load_plan()
        fault_mode = scenario.faults.mode

    def replay(source, platform):
        replayer = TraceReplayer(
            platform,
            round_robin_deployment(platform, scenario.ranks),
            comm_model=comm_model,
            eager_threshold=scenario.replay.eager_threshold,
            collective_algorithm=scenario.replay.collectives,
            collect_metrics=scenario.replay.collect_metrics,
            lmm_mode=scenario.replay.lmm_mode,
            fault_plan=fault_plan,
            fault_mode=fault_mode,
            compiled=scenario.replay.compiled,
        )
        return replayer.replay(source)

    actual_time: Optional[float] = None
    if trace.kind == "synth":
        platform = _replay_platform(scenario, speed)
        with tempfile.TemporaryDirectory(prefix="repro-campaign-") as tdir:
            if trace.family == "lu":
                from ..core.synth import write_synthetic_lu_trace
                write_synthetic_lu_trace(
                    tdir, scenario.ranks, trace.iterations, cls=trace.cls,
                    inorm=trace.inorm, seed=trace.seed, jitter=trace.jitter,
                    compute_split=trace.compute_split,
                )
            else:
                from ..core.synth_ai import write_synthetic_ai_trace
                write_synthetic_ai_trace(
                    trace.family, tdir, scenario.ranks, trace.iterations,
                    seed=trace.seed, jitter=trace.jitter,
                    **trace.generator_params(),
                )
            result = replay(tdir, platform)
    elif trace.kind == "dir":
        platform = _replay_platform(scenario, speed)
        result = replay(trace.path, platform)
    elif trace.kind == "acquire":
        from ..core.acquisition import AcquisitionMode, acquire
        if scenario.platform.kind != "named":
            raise ValueError(
                "trace kind 'acquire' needs a named (catalog) platform "
                "with a ground-truth flavour"
            )
        ground = _build_named_platform(scenario.platform, ground_truth=True)
        program = _rank_program(trace.app, trace.cls, scenario.ranks,
                                itmax_cap=trace.itmax_cap)
        with tempfile.TemporaryDirectory(prefix="repro-campaign-") as tdir:
            acq = acquire(
                program, ground, scenario.ranks,
                mode=AcquisitionMode.parse(trace.mode), workdir=tdir,
                papi_jitter=trace.papi_jitter, papi_seed=trace.papi_seed,
                measure_application=scenario.measure_actual,
            )
            platform = _replay_platform(scenario, speed)
            result = replay(acq.trace_dir, platform)
        actual_time = acq.application_time
    else:  # pragma: no cover - TraceSpec.__post_init__ guards kinds
        raise ValueError(f"unsupported trace kind {trace.kind!r}")

    rel_error = None
    if actual_time:
        rel_error = (result.simulated_time - actual_time) / actual_time
    return {
        "simulated_time": result.simulated_time,
        "actual_time": actual_time,
        "rel_error": rel_error,
        "n_actions": result.n_actions,
        "n_ranks": result.n_ranks,
        "replay_wall_seconds": result.wall_seconds,
        "stage_wait_s": trace.stage_wait_s,
        "worker_wall_seconds": time.perf_counter() - t0,
        "calibration": calib_info,
        "metrics": _strip_metrics(result.metrics),
        "fault_report": (result.fault_report.to_dict()
                         if result.fault_report is not None else None),
    }


def _scenario_worker(conn, sdict: dict) -> None:
    """Process entry point: run, report through the pipe, exit."""
    # A forked worker inherits the local slots' SIGTERM handler, under
    # which the timeout's terminate() would cancel the whole campaign
    # and the hung scenario would sleep on.  A SIGTERM aimed at a
    # worker kills it; SIGINT keeps Python's default (KeyboardInterrupt, which
    # the worker reports through the pipe like any other failure).
    # Forked from the asyncio service: drop the inherited wakeup fd too,
    # or a signal caught in here is echoed to the server's event loop.
    try:
        signal.set_wakeup_fd(-1)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    try:
        payload = execute_scenario(sdict)
        conn.send((STATUS_OK, payload))
    except BaseException as exc:  # noqa: BLE001 - the report IS the point
        conn.send((STATUS_FAILED, {
            "type": type(exc).__name__,
            "message": str(exc),
            "traceback": traceback.format_exc(),
        }))
    finally:
        conn.close()


def stop_process(process, grace_s: float = 5.0) -> None:
    """SIGTERM, wait at most ``grace_s``, then SIGKILL: never an
    unbounded wait on a child that ignores the polite signal."""
    process.terminate()
    process.join(grace_s)
    if process.is_alive():
        process.kill()
        process.join()


class ScenarioChild:
    """One attempt at one scenario in one child process, ended by a
    result, a death, a deadline or an abort.

    Wait on ``conn`` (``multiprocessing.connection.wait``) until it is
    readable or ``deadline`` (monotonic) passes, then call exactly one
    of :meth:`collect`, :meth:`expire`, :meth:`abort`.  The first two
    return ``(status, body)`` in the :class:`RunRecord` vocabulary:
    ``("ok", payload)``, or ``("failed" | "timeout", {type, message,
    traceback})``.
    """

    def __init__(self, sdict: dict, timeout_s: float, name: str) -> None:
        # The warm fork: a no-op lookup per module once the first child
        # of this process has paid for the imports.
        for module in _UNIT_MODULES:
            importlib.import_module(module)
        ctx = multiprocessing.get_context(_START_METHOD)
        self.conn, send_conn = ctx.Pipe(duplex=False)
        self.process = ctx.Process(target=_scenario_worker,
                                   args=(send_conn, sdict), name=name,
                                   daemon=True)
        self.process.start()
        send_conn.close()
        self.timeout_s = timeout_s
        self.started = time.monotonic()
        self.deadline = self.started + timeout_s

    def collect(self):
        """The verdict of a child whose ``conn`` became readable."""
        try:
            verdict = self.conn.recv()
        except (EOFError, OSError):
            verdict = None
        self.conn.close()
        self.process.join()
        if verdict is None:
            return STATUS_FAILED, {
                "type": "WorkerDied",
                "message": (f"worker exited without a result "
                            f"(exitcode {self.process.exitcode})"),
                "traceback": "",
            }
        return verdict

    def expire(self):
        """Stop a child that ran past its deadline: the timeout verdict."""
        self.abort()
        return STATUS_TIMEOUT, {
            "type": "Timeout",
            "message": f"attempt exceeded timeout_s={self.timeout_s:g}",
            "traceback": "",
        }

    def abort(self) -> None:
        """Stop the child; whatever it was computing is discarded."""
        stop_process(self.process)
        self.conn.close()




# ----------------------------------------------------------------------
# The campaign as one job
# ----------------------------------------------------------------------
@dataclass
class CampaignResult:
    """What ``run_campaign`` hands back (everything is also on disk)."""

    out_dir: str
    records: Dict[str, RunRecord] = field(default_factory=dict)
    metrics: Optional[CampaignMetrics] = None
    #: True when a SIGTERM cancelled the campaign: in-flight scenarios
    #: were stopped and nothing was recorded for them.  The manifest
    #: then carries ``interrupted: true`` and the campaign is resumable
    #: (``--resume`` re-runs exactly the missing records).
    interrupted: bool = False

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.records.values())

    @property
    def failed_names(self) -> List[str]:
        return [name for name, r in self.records.items() if not r.ok]


def run_campaign(
    spec: CampaignSpec,
    out_dir: str,
    jobs: Optional[int] = None,
    use_cache: bool = True,
    resume: bool = False,
    cache_dir: Optional[str] = None,
    log: Optional[Callable[[str], None]] = None,
) -> CampaignResult:
    """Execute a campaign as one job of work units, run in this process.

    ``out_dir`` receives ``runs/`` + ``manifest.json``, the job's
    ``queue.db`` and ``events.jsonl`` (+ the cache, unless ``cache_dir``
    points elsewhere).  The job runs ``spec.jobs`` units at once, or
    ``jobs`` when given.  ``resume`` additionally serves scenarios whose
    stored run record already succeeded with the same cache key.
    ``use_cache=False`` forces every scenario to execute (results are
    still cached for next time).

    **SIGTERM cancels** when the calling thread is the main thread: the
    job's units are cancelled, in-flight children are stopped and
    nothing is recorded for them, and the manifest says ``interrupted:
    true`` with the scenarios left ``unlaunched``.  A later ``--resume``
    serves what was recorded and runs the rest.
    """
    # Imported here: dispatch imports ScenarioChild from this module.
    from .dispatch import Dispatcher, _LocalSlots

    if jobs is not None:
        spec = dc_replace(spec, jobs=jobs)
    cache = ResultCache(cache_dir or os.path.join(out_dir, "cache"))
    events = os.path.join(out_dir, "events.jsonl")
    queue = JobQueue(os.path.join(out_dir, "queue.db"))
    dispatcher = Dispatcher(
        queue, cache, spec=lambda _job_id: spec,
        campaign_dir=lambda _job_id: out_dir,
        events_path=lambda _job_id: events,
        lookup=lambda _job, key: cache.get(key) if use_cache else None,
        log=log)
    try:
        # A run killed outright leaves its job behind; none of its units
        # may run as part of this one.
        for stale in queue.unfinished_jobs():
            queue.cancel_units(stale.id)
            queue.set_state(stale.id, STATE_CANCELLED,
                            error="abandoned by a run that did not finish")
        job_id = queue.submit("default", spec.name, len(spec.scenarios)).id
        dispatcher.start_job(queue.set_state(job_id, STATE_STAGING,
                                             resume=resume))
        job = _LocalSlots(dispatcher).run(job_id)
        records = dispatcher.records(job_id)
    finally:
        queue.close()
    return CampaignResult(out_dir=out_dir, records=records,
                          metrics=CampaignMetrics(**job.metrics),
                          interrupted=job.state == STATE_CANCELLED)
