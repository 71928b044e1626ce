"""The fault injector and the one driver of a fault-injected run.

:func:`run_with_faults` is how both MPI layers (the trace replayer and
the simulated-MPI runtime) run their rank processes under a
:class:`~repro.faults.plan.FaultPlan`.  It validates the plan, starts a
:class:`FaultInjector`, runs the engine, turns the deadlock that follows
a rank death into casualties, and builds the abort-mode
:class:`~repro.faults.report.FaultReport`.

The injector runs *inside* the simulation as a daemon process (it never
keeps the run alive, and never appears in deadlock reports): it sleeps on
kernel timers to each event's instant and applies it —

* ``HostCrash`` — FAILs every compute burst on the host's CPU and every
  in-flight flow from or to a rank resident on it, kills those ranks and
  purges their match-queue entries.
* ``LinkDown`` — the comm system FAILs every in-flight flow crossing the
  link and refuses new ones until the optional ``t_up`` restore.
* ``LinkDegrade`` — rescales the link constraint's capacity through
  ``Engine.set_capacity``, which re-prices the in-flight flows via the
  normal lazy LMM recompute (scalar or vectorized alike).  Degrading a
  *fatpipe* link only affects flows started afterwards: fatpipe capacity
  is folded into each flow's private bound at start time.

A run leaves its platform as it found it: which hosts and links are down
is the injector's state for the run, and every constraint capacity it
changed is restored when the run ends, however it ends.

Everything is deterministic: events execute in (time, plan-position)
order, and the ``applied`` log records what happened when, feeding the
report's provenance.
"""

from __future__ import annotations

from typing import (
    Callable, Dict, Generator, List, Optional, Sequence, Set, Tuple,
)

from ..simkernel.engine import DeadlockError, Engine, Process
from ..simkernel.lmm import Constraint
from ..simkernel.mailbox import CommSystem
from ..simkernel.telemetry import FaultMetrics
from .plan import FaultEvent, FaultPlan, HostCrash, LinkDegrade, LinkDown
from .report import FaultReport, RankFailure, build_fault_report

__all__ = ["FaultInjector", "run_with_faults"]

#: What a layer reports of a rank at the end of a fault run: actions
#: completed, the tokens of the action in flight (None if unknown) and
#: the sources of its pending receives.
RankState = Tuple[int, Optional[List[str]], List[int]]


def _no_state(rank: int) -> RankState:
    return 0, None, []


class FaultInjector:
    """Schedules and applies the events of a fault plan (see module doc)."""

    def __init__(
        self,
        engine: Engine,
        comms: CommSystem,
        events: Sequence[FaultEvent],
        n_ranks: int,
        metrics: Optional[FaultMetrics] = None,
    ) -> None:
        self.engine = engine
        self.comms = comms
        self.platform = comms.platform
        self.metrics = metrics if metrics is not None else FaultMetrics()
        # (time, plan-position) order; LinkDown restores become their own
        # scheduled steps so a single sorted pass drives everything.
        schedule = []
        for i, event in enumerate(events):
            schedule.append((event.t, i, "apply", event))
            if isinstance(event, LinkDown) and event.t_up is not None:
                schedule.append((event.t_up, i, "restore", event))
        schedule.sort(key=lambda item: (item[0], item[1], item[2]))
        self._schedule = schedule
        # Each entry: {"t", "event", "action"} — the provenance log.
        self.applied: List[dict] = []
        # The rank processes by index, and the ranks each host carries.
        self.ranks: List[Process] = []
        self._host_ranks: Dict[str, List[int]] = {}
        for rank in range(n_ranks):
            self._host_ranks.setdefault(comms.host_of(rank).name,
                                        []).append(rank)
        # The run's fault state: crashed hosts, down links, and the
        # nominal capacity of every constraint a degradation changed.
        self._dead_hosts: Set[str] = set()
        self._down_links: Set[str] = set()
        self._nominal: Dict[Constraint, float] = {}

    # ------------------------------------------------------------------
    def attach(self) -> None:
        """Start the daemon (nothing to do for an empty schedule)."""
        if not self._schedule:
            return
        self.comms.enable_fault_tracking()
        self.engine.add_process("fault-injector", self._daemon(),
                                daemon=True)

    def restore(self) -> None:
        """Give every constraint a degradation changed its nominal
        capacity back (the run is over: no flow is left to re-price)."""
        for cons, capacity in self._nominal.items():
            cons.capacity = capacity
        self._nominal.clear()

    def _daemon(self):
        engine = self.engine
        for t, _, action, event in self._schedule:
            delay = t - engine.now
            if delay > 0:
                yield engine.timer(delay, name="fault-injector")
            if action == "apply":
                self._apply(event)
            else:
                self._bring_up(event)

    # ------------------------------------------------------------------
    def _log(self, event: FaultEvent, action: str) -> None:
        self.applied.append({
            "t": self.engine.now,
            "action": action,
            "event": event.to_dict(),
        })
        self.metrics.events_applied += 1

    def _apply(self, event: FaultEvent) -> None:
        if isinstance(event, HostCrash):
            self._apply_host_crash(event)
        elif isinstance(event, LinkDown):
            self._apply_link_down(event)
        else:
            self._apply_link_degrade(event)

    def _apply_host_crash(self, event: HostCrash) -> None:
        if event.host in self._dead_hosts:
            return  # already dead; nothing left to take down
        self._dead_hosts.add(event.host)
        host = self.platform.hosts[event.host]
        reason = event.describe()
        engine = self.engine
        metrics = self.metrics
        metrics.host_crashes += 1
        self._log(event, "apply")
        # Compute bursts on the dead CPU fail first (their waiters are
        # the resident ranks, which die next anyway — this is resource
        # bookkeeping, not process scheduling).
        for act in list(host.cpu.users):
            if engine.fail_activity(act, reason):
                metrics.activities_failed += 1
        # The flows from or to them leave the network with the host, and
        # the ranks die with it; their messages still in flight or never
        # started leave the match queues.
        residents = self._host_ranks.get(event.host, ())
        metrics.activities_failed += self.comms.fail_flows_of(
            set(residents), reason)
        for rank in residents:
            if engine.kill_process(self.ranks[rank], reason):
                metrics.processes_killed += 1
            metrics.queue_entries_purged += self.comms.purge_rank(rank)

    def _apply_link_down(self, event: LinkDown) -> None:
        if event.link in self._down_links:
            return
        self._down_links.add(event.link)
        metrics = self.metrics
        metrics.link_downs += 1
        self._log(event, "apply")
        metrics.requests_failed += self.comms.take_link_down(
            self.platform.link(event.link).constraint, event.describe())

    def _apply_link_degrade(self, event: LinkDegrade) -> None:
        link = self.platform.link(event.link)
        cons = link.constraint
        self._nominal.setdefault(cons, cons.capacity)
        capacity = link.bandwidth * float(event.factor)
        self.metrics.link_degrades += 1
        self._log(event, "apply")
        if link.fatpipe:
            # Fatpipe capacity is folded into flow bounds at start time:
            # mutate the constraint so future flows see it; in-flight
            # flows keep their baked-in bound (documented behaviour).
            cons.capacity = capacity
        else:
            self.engine.set_capacity(cons, capacity)

    def _bring_up(self, event: LinkDown) -> None:
        if event.link not in self._down_links:
            return
        self._down_links.discard(event.link)
        self.metrics.link_ups += 1
        self._log(event, "restore")
        self.comms.bring_link_up(self.platform.link(event.link).constraint)


def run_with_faults(
    engine: Engine,
    comms: CommSystem,
    plan: FaultPlan,
    ranks: Sequence[Tuple[str, Generator]],
    finish: Sequence[float],
    events: Optional[Sequence[FaultEvent]] = None,
    metrics: Optional[FaultMetrics] = None,
    rank_state: Callable[[int], RankState] = _no_state,
) -> Tuple[float, FaultReport]:
    """Run the rank processes under ``plan``; returns ``(makespan,
    abort-mode report)``.

    ``ranks`` holds each rank's ``(process name, generator)`` by rank
    index, ``finish`` the finish time each rank writes when it completes.
    ``events`` narrows what is injected (checkpoint-restart injects only
    the degradations); the whole plan is validated either way.
    ``rank_state`` reports a rank's progress for the report.  Survivors
    left blocked on a dead rank end the run at quiescence and become the
    report's casualties; a deadlock with no rank death is raised.
    """
    plan.validate(comms.platform)
    injector = FaultInjector(
        engine, comms, plan.sorted_events() if events is None else events,
        len(ranks), metrics=metrics)
    # The daemon is queued ahead of the ranks: an event at t=0 applies
    # before any rank starts.
    injector.attach()
    procs = [engine.add_process(name, generator)
             for name, generator in ranks]
    injector.ranks = procs
    rank_of = {proc: rank for rank, proc in enumerate(procs)}
    failures: List[RankFailure] = []

    def on_proc_failed(proc, exc):
        rank = rank_of.get(proc)
        if rank is not None:
            failures.append(RankFailure(
                rank, engine.now, exc.reason or "resource failure",
                host=comms.host_of(rank).name,
            ))

    engine.process_failed_hook = on_proc_failed
    blocked_names = ()
    try:
        makespan = engine.run()
    except DeadlockError as exc:
        if not failures:
            raise
        # Survivors blocked forever on a dead rank: the expected end
        # state of a fatal fault, not a trace bug.
        makespan = engine.now
        blocked_names = set(exc.blocked)
    finally:
        engine.process_failed_hook = None
        injector.restore()
    dead = {f.rank: f for f in failures}
    blocked: Dict[int, dict] = {}
    progress = {}
    for rank, proc in enumerate(procs):
        completed, tokens, srcs = rank_state(rank)
        if rank in dead:
            status, t = "failed", dead[rank].t
        elif proc.name in blocked_names:
            status, t = "blocked", None
            blocked[rank] = {"action": list(tokens) if tokens else None,
                             "pending_irecv_srcs": srcs}
        else:
            status, t = "finished", finish[rank]
        progress[rank] = {"actions_completed": completed, "time": t,
                          "state": status}
    return makespan, build_fault_report(
        mode="abort", n_ranks=len(procs), makespan=makespan,
        events_applied=injector.applied, failures=failures,
        progress=progress, blocked=blocked,
    )
