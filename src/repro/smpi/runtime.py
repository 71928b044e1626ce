"""The simulated-MPI runtime: deploys rank programs on a platform.

This is the stand-in for "running the MPI application on Grid'5000": it
executes per-rank generator programs over the simulation kernel, with the
deployment (rank -> host mapping) controlling the acquisition mode —

* Regular: one rank per node,
* Folding: several ranks per node (CPU max-min sharing slows them),
* Scattering: ranks spread over several clusters (WAN latency),
* Scattering+Folding: both.

An attached :class:`~repro.tracer.instrument.Tracer` (the ``hooks``
argument) turns a run into an *instrumented* run producing TAU-like timed
traces; ``hooks=None`` gives the bare application time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Generator, List, Optional, Sequence

from ..faults.plan import FaultPlan
from ..faults.report import FaultReport, RankFailure, build_fault_report
from ..simkernel import CommSystem, DeadlockError, Engine, Host, Platform
from ..simkernel.pwl import DEFAULT_MPI_MODEL, PiecewiseLinearModel
from ..tracer.papi import VirtualCounterBank
from .api import MpiProcess

__all__ = ["MpiRuntime", "RunResult", "RankProgram"]

#: A rank program: called with the rank's :class:`MpiProcess`, returns the
#: generator the kernel will drive.
RankProgram = Callable[[MpiProcess], Generator]


@dataclass
class RunResult:
    """Outcome of one simulated application run."""

    time: float                      # makespan: max rank finish time
    per_rank_time: List[float]       # finish time of each rank
    n_ranks: int
    n_transfers: int                 # point-to-point messages carried
    bytes_transferred: float
    rank_results: List[object] = field(default_factory=list)
    # Failure provenance; None unless the runtime ran with a fault plan.
    fault_report: Optional[FaultReport] = None

    def __str__(self) -> str:  # pragma: no cover - convenience
        return (f"RunResult(time={self.time:.6f}s, ranks={self.n_ranks}, "
                f"transfers={self.n_transfers})")


class MpiRuntime:
    """Executes one MPI application instance on a simulated platform."""

    def __init__(
        self,
        platform: Platform,
        rank_hosts: Sequence[Host],
        comm_model: PiecewiseLinearModel = DEFAULT_MPI_MODEL,
        eager_threshold: float = 65536,
        hooks=None,
        papi: Optional[VirtualCounterBank] = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        if not rank_hosts:
            raise ValueError("need at least one rank in the deployment")
        self.fault_plan = fault_plan
        self.platform = platform
        self.rank_hosts: List[Host] = list(rank_hosts)
        self.size = len(self.rank_hosts)
        # Record deployment density so hosts can apply their sharing
        # (cache/memory-pressure) model under folded deployments.
        residents: Dict[int, int] = {}
        for host in self.rank_hosts:
            residents[id(host)] = residents.get(id(host), 0) + 1
        for host in self.rank_hosts:
            host.resident_ranks = residents[id(host)]
        self.engine = Engine()
        self.comms = CommSystem(
            self.engine,
            platform,
            dict(enumerate(self.rank_hosts)),
            comm_model=comm_model,
            eager_threshold=eager_threshold,
        )
        self.hooks = hooks
        self.papi = papi if papi is not None else VirtualCounterBank(self.size)
        if self.papi.n_ranks < self.size:
            raise ValueError(
                f"counter bank covers {self.papi.n_ranks} ranks, "
                f"deployment has {self.size}"
            )
        # The ranks of the current run (see clock()).
        self._ranks: List[MpiProcess] = []
        if hooks is not None:
            hooks.attach(self)

    def clock(self, rank: int) -> float:
        """``rank``'s own clock: engine time plus the tracing time the
        rank owes (what its trace records and MPI_Wtime read)."""
        return self.engine.now + self._ranks[rank].owed

    def run(self, program: RankProgram) -> RunResult:
        """Run ``program`` on every rank to completion."""
        finish = [0.0] * self.size
        procs = []
        self._ranks = [MpiProcess(self, rank) for rank in range(self.size)]

        def rank_main(rank: int):
            mpi = self._ranks[rank]
            result = yield from program(mpi)
            if mpi.owed:
                yield from mpi._flush()
            finish[rank] = self.engine.now
            return result

        injector = None
        rank_failures: List[RankFailure] = []
        plan = self.fault_plan
        if plan is not None and plan.events:
            from ..faults.injector import FaultInjector

            injector = FaultInjector(self.engine, self.platform,
                                     plan.sorted_events(), comms=self.comms)
            host_ranks: Dict[str, List[int]] = {}
            for rank, host in enumerate(self.rank_hosts):
                host_ranks.setdefault(host.name, []).append(rank)
            fmetrics = injector.metrics

            def on_host_crash(host, event):
                reason = event.describe()
                for rank in host_ranks.get(host.name, ()):
                    if self.engine.kill_process(procs[rank], reason):
                        fmetrics.processes_killed += 1
                    fmetrics.queue_entries_purged += \
                        self.comms.purge_rank(rank)

            injector.host_crash_hooks.append(on_host_crash)

            def on_proc_failed(proc, exc):
                name = proc.name
                if name.startswith("rank") and name[4:].isdigit():
                    rank = int(name[4:])
                    rank_failures.append(RankFailure(
                        rank, self.engine.now,
                        exc.reason or "resource failure",
                        host=self.rank_hosts[rank].name,
                    ))

            self.engine.process_failed_hook = on_proc_failed
            injector.attach()

        for rank in range(self.size):
            procs.append(self.engine.add_process(f"rank{rank}", rank_main(rank)))
        blocked: Dict[int, dict] = {}
        try:
            makespan = self.engine.run()
        except DeadlockError as exc:
            if injector is None or not rank_failures:
                raise
            # Survivors blocked forever on a dead peer: report provenance
            # instead of surfacing a bare deadlock.
            makespan = self.engine.now
            dead_ranks = {f.rank for f in rank_failures}
            for name in exc.blocked:
                if name.startswith("rank") and name[4:].isdigit():
                    rank = int(name[4:])
                    if rank not in dead_ranks:
                        blocked[rank] = {"action": None,
                                         "pending_irecv_srcs": []}
        finally:
            # Also on a deadlock or a rank program's exception: the
            # tracer's buffered records are the post-mortem evidence.
            if self.hooks is not None:
                self.hooks.detach()
            # Each rank references this runtime, and the hook closes over
            # it: without the cycles, a finished runtime is freed as soon
            # as its caller drops it.
            self._ranks = []
            self.engine.process_failed_hook = None
        fault_report = None
        if injector is not None:
            dead = {f.rank: f for f in rank_failures}
            progress = {}
            for rank in range(self.size):
                if rank in dead:
                    status, t = "failed", dead[rank].t
                elif rank in blocked:
                    status, t = "blocked", None
                else:
                    status, t = "finished", finish[rank]
                # The runtime replays programs, not action streams, so
                # there is no per-action counter to report here.
                progress[rank] = {"actions_completed": 0, "time": t,
                                  "state": status}
            fault_report = build_fault_report(
                mode="abort", n_ranks=self.size, makespan=makespan,
                events_applied=injector.applied, failures=rank_failures,
                progress=progress, blocked=blocked,
            )
        return RunResult(
            time=makespan,
            per_rank_time=finish,
            n_ranks=self.size,
            n_transfers=self.comms.n_transfers,
            bytes_transferred=self.comms.bytes_transferred,
            rank_results=[p.result for p in procs],
            fault_report=fault_report,
        )


def round_robin_deployment(platform: Platform, n_ranks: int,
                           hosts: Optional[Sequence[Host]] = None,
                           ranks_per_host: int = 1) -> List[Host]:
    """Deployment helper: fill hosts in blocks of ``ranks_per_host``.

    With ``ranks_per_host=1`` this is the Regular mode (ranks 0..N-1 on
    hosts 0..N-1); with ``ranks_per_host=x`` it is Folding F-x: ranks
    0..x-1 on host 0, and so on — the layout of §6.2's Table 2.
    """
    pool = list(hosts) if hosts is not None else platform.host_list()
    if ranks_per_host < 1:
        raise ValueError("ranks_per_host must be >= 1")
    needed = (n_ranks + ranks_per_host - 1) // ranks_per_host
    if needed > len(pool):
        raise ValueError(
            f"deployment needs {needed} hosts but only {len(pool)} available"
        )
    return [pool[r // ranks_per_host] for r in range(n_ranks)]
