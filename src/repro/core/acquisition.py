"""The four-step acquisition process (§4, Fig. 2) and its modes (§4.2).

Steps: instrument the application (attach a Tracer), execute it under a
deployment chosen by the *acquisition mode*, extract time-independent
traces with tau2simgrid, and gather them on one node.

Modes (Table 2's columns):

* ``R`` — Regular: one rank per CPU, the only mode timed traces allow.
* ``F-x`` — Folding: ``x`` ranks per CPU; fewer nodes, ~x-times slower.
* ``S-y`` — Scattering: ranks spread over ``y`` sites (clusters).
* ``SF-(u,v)`` — Scattering and Folding combined.

Because the traces are time-independent, every mode yields (modulo the
<1 % hardware-counter wobble) *the same* trace — the invariance the last
paragraph of §6.2 demonstrates, covered by an integration test here.
"""

from __future__ import annotations

import os
import re
import signal
import struct
import sys
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from ..extract import ExtractionReport, tau2simgrid
from ..simkernel import Host, Platform
from ..simkernel.pwl import DEFAULT_MPI_MODEL, PiecewiseLinearModel
from ..smpi import MpiRuntime
from ..tracer import TauArchive, Tracer, VirtualCounterBank
from .gather import GatherResult, simulate_gather

__all__ = ["AcquisitionMode", "AcquisitionResult", "build_deployment",
           "acquire"]

_MODE_RE = re.compile(
    r"^(?:R|F-(?P<f>\d+)|S-(?P<s>\d+)|SF-\((?P<u>\d+),(?P<v>\d+)\))$"
)


@dataclass(frozen=True)
class AcquisitionMode:
    """folding = ranks per CPU, sites = clusters used (1 each for Regular)."""

    folding: int = 1
    sites: int = 1

    def __post_init__(self) -> None:
        if self.folding < 1 or self.sites < 1:
            raise ValueError("folding and sites must be >= 1")

    @property
    def label(self) -> str:
        """Table 2's naming: R, F-x, S-y, SF-(u,v)."""
        if self.folding == 1 and self.sites == 1:
            return "R"
        if self.sites == 1:
            return f"F-{self.folding}"
        if self.folding == 1:
            return f"S-{self.sites}"
        return f"SF-({self.sites},{self.folding})"

    @classmethod
    def parse(cls, label: str) -> "AcquisitionMode":
        match = _MODE_RE.match(label.strip())
        if match is None:
            raise ValueError(
                f"bad acquisition mode {label!r}; expected R, F-<x>, "
                "S-<y>, or SF-(<u>,<v>)"
            )
        groups = match.groupdict()
        if groups["f"]:
            return cls(folding=int(groups["f"]))
        if groups["s"]:
            return cls(sites=int(groups["s"]))
        if groups["u"]:
            return cls(sites=int(groups["u"]), folding=int(groups["v"]))
        return cls()


def build_deployment(
    platform: Platform,
    n_ranks: int,
    mode: AcquisitionMode = AcquisitionMode(),
    clusters: Optional[Sequence[str]] = None,
) -> List[Host]:
    """Map ranks to hosts per the acquisition mode.

    Scattering splits the rank range into contiguous blocks across the
    first ``mode.sites`` clusters (``clusters`` overrides the order);
    folding packs ``mode.folding`` consecutive ranks per host.
    """
    names = list(clusters) if clusters is not None else list(platform.clusters)
    if mode.sites > len(names):
        raise ValueError(
            f"mode {mode.label} needs {mode.sites} clusters, platform has "
            f"{len(names)}"
        )
    site_names = names[: mode.sites]
    base, extra = divmod(n_ranks, mode.sites)
    deployment: List[Host] = []
    for idx, cname in enumerate(site_names):
        block = base + (1 if idx < extra else 0)
        hosts = platform.clusters[cname].hosts
        needed = (block + mode.folding - 1) // mode.folding
        if needed > len(hosts):
            raise ValueError(
                f"cluster {cname!r} has {len(hosts)} hosts; mode "
                f"{mode.label} needs {needed} for {block} ranks"
            )
        deployment.extend(hosts[r // mode.folding] for r in range(block))
    return deployment


@dataclass
class AcquisitionResult:
    """Everything the four steps produced, with their costs."""

    mode_label: str
    n_ranks: int
    application_time: Optional[float]    # uninstrumented simulated run
    execution_time: float                # instrumented simulated run
    tau_archive: TauArchive              # timed-trace sizes
    extraction: Optional[ExtractionReport]  # None when files were not written
    gather: Optional[GatherResult]
    trace_dir: Optional[str]             # where SG_process*.trace landed

    @property
    def tracing_overhead(self) -> Optional[float]:
        if self.application_time is None:
            return None
        return self.execution_time - self.application_time


def acquire(
    program,
    platform: Platform,
    n_ranks: int,
    mode: AcquisitionMode = AcquisitionMode(),
    workdir: Optional[str] = None,
    measure_application: bool = True,
    gather_arity: int = 4,
    papi_jitter: float = 0.0,
    papi_seed: int = 0,
    comm_model: PiecewiseLinearModel = DEFAULT_MPI_MODEL,
    extraction_processes: int = 1,
    tracer_factory: Optional[Callable[[Optional[str]], Tracer]] = None,
) -> AcquisitionResult:
    """Run the full acquisition pipeline for ``program`` on ``platform``.

    With ``workdir`` set, TAU trace files are really written under
    ``<workdir>/tau`` and time-independent traces extracted into
    ``<workdir>/ti`` (ready for :class:`~repro.core.replay.TraceReplayer`).
    With ``workdir=None`` the tracer runs in size-accounting mode:
    execution times and timed-trace sizes are produced, but no extraction
    happens (the paper-scale mode used for Table 2's timings).

    ``measure_application`` adds the uninstrumented run that gives
    ``application_time``.  It reads nothing the other steps produce, so
    it runs in a forked child while this process runs the instrumented
    run, extraction and gathering:

    * Side effects of that run (a rank program mutating shared state,
      say) stay in the child; this process sees only its 8-byte time.
    * The child resets SIGTERM and SIGINT to their defaults, drops any
      inherited signal wakeup fd, dies with this process where the OS
      allows (Linux), flushes its own stdio and leaves through
      ``os._exit``; stdio is flushed before the fork, so no buffered
      output is written twice.
    * If the child fails, the bare run is repeated here, so its error
      (a ``DeadlockError``, say) is raised with its real type, message
      and traceback.  If this process's own steps raise, the child is
      killed and reaped first: no child outlives the call.
    * Where ``os.fork`` is absent, the bare run runs here, after the
      instrumented one.
    """
    deployment = build_deployment(platform, n_ranks, mode)

    def run_application() -> float:
        bare = MpiRuntime(platform, deployment, comm_model=comm_model,
                          papi=VirtualCounterBank(n_ranks))
        return bare.run(program).time

    child = (_ForkedRun(run_application)
             if measure_application and hasattr(os, "fork") else None)
    try:
        tau_dir = (os.path.join(workdir, "tau") if workdir is not None
                   else None)
        tracer = (tracer_factory(tau_dir) if tracer_factory is not None
                  else Tracer(tau_dir))
        papi = VirtualCounterBank(n_ranks, jitter=papi_jitter,
                                  seed=papi_seed)
        runtime = MpiRuntime(platform, deployment, comm_model=comm_model,
                             hooks=tracer, papi=papi)
        execution_time = runtime.run(program).time

        extraction = None
        gather = None
        trace_dir = None
        if workdir is not None:
            trace_dir = os.path.join(workdir, "ti")
            extraction = tau2simgrid(tau_dir, n_ranks, trace_dir,
                                     processes=extraction_processes)
            gather = _gather(platform, deployment, extraction.per_rank_bytes,
                             gather_arity)

        application_time = None
        if measure_application:
            if child is not None:
                application_time = child.result()
            if application_time is None:
                application_time = run_application()
    finally:
        if child is not None:
            child.stop()
    return AcquisitionResult(
        mode_label=mode.label,
        n_ranks=n_ranks,
        application_time=application_time,
        execution_time=execution_time,
        tau_archive=tracer.archive,
        extraction=extraction,
        gather=gather,
        trace_dir=trace_dir,
    )


def _gather(platform: Platform, deployment: Sequence[Host],
            per_rank_bytes: Sequence[int], arity: int) -> GatherResult:
    """Gathering: the per-*node* TI trace volumes funnel to the first
    node of the deployment over a K-nomial tree."""
    node_hosts: List[Host] = []
    node_bytes: List[float] = []
    host_index: Dict[int, int] = {}
    for host, n_bytes in zip(deployment, per_rank_bytes):
        idx = host_index.get(id(host))
        if idx is None:
            idx = host_index[id(host)] = len(node_hosts)
            node_hosts.append(host)
            node_bytes.append(0.0)
        node_bytes[idx] += n_bytes
    return simulate_gather(platform, node_hosts, node_bytes, arity=arity)


_TIME = struct.Struct("<d")
_PR_SET_PDEATHSIG = 1


class _ForkedRun:
    """``run()`` in a forked child that writes its float result back
    through a pipe (the contract is :func:`acquire`'s docstring)."""

    def __init__(self, run: Callable[[], float]) -> None:
        parent = os.getpid()
        read_fd, write_fd = os.pipe()
        sys.stdout.flush()
        sys.stderr.flush()
        try:
            self.pid: Optional[int] = os.fork()
        except OSError:
            os.close(read_fd)
            os.close(write_fd)
            raise
        if self.pid == 0:
            status = 1
            try:
                os.close(read_fd)
                _child_signals(parent)
                os.write(write_fd, _TIME.pack(run()))
                status = 0
            except BaseException:  # noqa: BLE001 - the parent re-runs it
                pass
            finally:
                try:
                    sys.stdout.flush()
                    sys.stderr.flush()
                finally:
                    os._exit(status)
        os.close(write_fd)
        self.fd = read_fd

    def result(self) -> Optional[float]:
        """Wait for the child and reap it: its time, or None if it
        failed (a nonzero exit or a short read)."""
        data = b""
        while len(data) < _TIME.size:
            chunk = os.read(self.fd, _TIME.size - len(data))
            if not chunk:
                break
            data += chunk
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        if status != 0 or len(data) < _TIME.size:
            return None
        return _TIME.unpack(data)[0]

    def stop(self) -> None:
        """Kill and reap a child that is still there; close the pipe."""
        if self.pid is not None:
            try:
                os.kill(self.pid, signal.SIGKILL)
            except ProcessLookupError:  # pragma: no cover - already gone
                pass
            os.waitpid(self.pid, 0)
            self.pid = None
        os.close(self.fd)


def _child_signals(parent: int) -> None:
    """The forked child's signal set-up: default SIGTERM / SIGINT, no
    wakeup fd echoing its signals to the parent's event loop, and a
    SIGKILL when the parent dies (Linux ``prctl``), so a parent killed
    outright leaves no bare run behind."""
    try:
        signal.set_wakeup_fd(-1)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    if not sys.platform.startswith("linux"):
        return
    import ctypes

    try:
        ctypes.CDLL(None).prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
    except (OSError, AttributeError):  # pragma: no cover - no prctl
        return
    if os.getppid() != parent:         # it died before prctl took hold
        os._exit(1)
