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

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Generator, List, Optional, Sequence

from ..faults.injector import run_with_faults
from ..faults.plan import FaultPlan
from ..faults.report import FaultReport
from ..simkernel import CommSystem, Engine, Host, Platform
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
        # Ranks per host name: the deployment density a host's sharing
        # (cache/memory-pressure) model prices under folded deployments.
        self.residents = Counter(host.name for host in self.rank_hosts)
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
        results: List[object] = [None] * self.size
        self._ranks = [MpiProcess(self, rank) for rank in range(self.size)]

        def rank_main(rank: int):
            mpi = self._ranks[rank]
            result = yield from program(mpi)
            if mpi.owed:
                yield from mpi._flush()
            finish[rank] = self.engine.now
            results[rank] = result

        ranks = [(f"rank{rank}", rank_main(rank))
                 for rank in range(self.size)]
        fault_report = None
        plan = self.fault_plan
        try:
            if plan is not None and plan.events:
                # Programs, not action streams: no per-action progress
                # to report, so the driver's default rank state.
                makespan, fault_report = run_with_faults(
                    self.engine, self.comms, plan, ranks, finish)
            else:
                for name, generator in ranks:
                    self.engine.add_process(name, generator)
                makespan = self.engine.run()
        finally:
            # Also on a deadlock or a rank program's exception: the
            # tracer's buffered records are the post-mortem evidence.
            if self.hooks is not None:
                self.hooks.detach()
            # Each rank references this runtime: without the cycle, a
            # finished runtime is freed as soon as its caller drops it.
            self._ranks = []
        return RunResult(
            time=makespan,
            per_rank_time=finish,
            n_ranks=self.size,
            n_transfers=self.comms.metrics.transfers,
            bytes_transferred=self.comms.metrics.bytes,
            rank_results=results,
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
