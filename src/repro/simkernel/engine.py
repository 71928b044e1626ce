"""Lazy discrete-event fluid simulation engine.

Simulated processes are Python generators.  A process blocks by yielding
either a :class:`~repro.simkernel.activity.Waitable` (resume when it
completes) or a :class:`WaitAny` over several waitables (resume when the
first completes; the completed one is sent back into the generator).

Resource sharing is *lazily* maintained, as in SimGrid's kernel: every
constraint records which activities currently use it, and when the
activity mix changes, only the affected *sharing component* — activities
transitively connected to the change through shared constraints — is
settled (progress accrued at the old rate) and re-rated (max-min fair
share recomputed).  Predicted completion instants live in a heap event
calendar (:class:`_Calendar`) with epoch-validated lazy deletion, and
every event due at one instant is applied before anything is re-rated,
so the events of one instant cost each touched group one solve, not
one per event.  The cost of an event is proportional to the size of its
component, not to the number of activities in flight — which is what
lets thousand-rank replays run in reasonable time.

An array-backed group whose rows all cross one column holding the
smallest fair share (:func:`repro.simkernel.lmm.single_bottleneck`; a
shared backbone under all-to-all traffic) needs no filling: every row
gets that share, and while that holds the group runs on one virtual
clock, so a settle is one scalar add and the next completion is the
earliest finish tag.  Other re-rates of array-backed groups try an
*incremental* certified patch (:func:`repro.simkernel.lmm.patch_solve`)
before paying for a full progressive filling: each group tracks the
constraint columns dirtied since its last solve, and when the patch
certificate holds only the affected cone is re-filled.  Fallbacks to
the full solve are counted (``patch_fallbacks``), never silent.
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop, heappush
from typing import (
    Callable, Dict, Generator, List, Optional, Sequence, Set, Tuple,
)

import numpy as np

from .activity import (
    Activity, ActivityFailed, CommActivity, ExecActivity, Timer, Waitable,
)
from .lmm import (
    Constraint, LMM_MODES, VECTOR_THRESHOLD, fill_vectorized, patch_solve,
    single_bottleneck, solve_reference,
)
from .telemetry import EngineMetrics

__all__ = ["Engine", "Process", "WaitAny", "DeadlockError"]

INF = float("inf")

#: Minimum filling-level count of a group's last *full* solve before the
#: incremental patch is attempted on it.  A patch attempt costs a
#: near-constant handful of O(memberships) passes (usage accumulation,
#: cone BFS, certificate) plus a small sub-fill, while the full filling
#: it replaces costs one such pass per level — so patching a group whose
#: solves finish in one or two levels can only lose (measured: ~15-20%
#: regression on 1-D chain traffic), while multi-level contention waves
#: win multiples.  The last full solve's level count is the engine's
#: cost estimate for the next one.
_PATCH_MIN_LEVELS = 3

#: Consecutive certified patches after which a group is forced through
#: one full solve anyway.  Only full solves refresh ``last_levels``, so
#: a group that patches forever would keep an arbitrarily stale cost
#: estimate: a persistent 1-D chain group that once took a 3-level
#: solve would stay "worth patching" for the rest of the run even after
#: its solves collapsed to one level.  The periodic probe re-measures
#: the true full-solve cost for ~1.5% overhead; the closed-gate
#: direction needs no probe because every solve is then a full one.
_PATCH_PROBE_EVERY = 64


def _drained(now, remaining, rate):
    """The inline-completion rule of a settle, for one activity or for a
    group's rows at once: settled at ``now``, work is finished when its
    completion instant ``now + remaining / rate`` rounds to ``now``.
    Rounding is the point — a flow left with ~1e-12 B of float residue
    would otherwise be armed at ``now`` and cost its group a second
    solve at the same instant.  Scalar callers pass a non-zero rate;
    array callers silence the division warnings (a zero rate gives
    ``inf``: not drained)."""
    return now + remaining / rate <= now


class DeadlockError(RuntimeError):
    """Raised when live processes remain but nothing can make progress.

    Besides the human-readable message, carries the structured state the
    diagnostics layers need: ``blocked`` (names of the stuck processes)
    and ``details`` (a dict filled in by the engine's ``deadlock_hook``
    — the replayer reports each rank's current action, pending Irecvs,
    and the unmatched (src, dst, tag) communication counts there).
    The run is over when it is raised: the blocked processes have been
    closed.
    """

    def __init__(self, message: str, blocked: Sequence[str] = (),
                 details: Optional[dict] = None) -> None:
        super().__init__(message)
        self.blocked = list(blocked)
        self.details = details if details is not None else {}


class WaitAny:
    """Yielded by a process to block until any of ``waitables`` completes."""

    __slots__ = ("waitables",)

    def __init__(self, waitables: Sequence[Waitable]) -> None:
        self.waitables = list(waitables)
        if not self.waitables:
            raise ValueError("WaitAny needs at least one waitable")


class _Calendar:
    """Completion-event calendar: a binary heap with lazy invalidation.

    Entries are ``(time, seq, epoch, activity)`` tuples: earliest time
    first, FIFO by a monotone sequence number among simultaneous events
    (``seq`` is unique, so a comparison never reaches the activity).
    An entry fires only if its recorded epoch still matches the
    activity's and the activity is not done; re-arming is an epoch bump
    plus a fresh push, and the leftover is discarded (and counted in
    ``stale``) when it surfaces at :meth:`pop` or is swept by
    :meth:`compact`.  Push and pop cost O(log entries) in C, whatever
    the entry count — with the engine's min-arming (one live event per
    sharing group) that is a handful of comparisons.  Nothing is ever
    re-pushed: an entry keeps its ``seq`` until it fires or goes stale,
    so FIFO order among simultaneous events survives a ``run(until=)``
    pause.
    """

    __slots__ = ("heap", "seq", "stale")

    def __init__(self) -> None:
        # Live entries plus not-yet-discarded stale ones.
        self.heap: List[Tuple[float, int, int, Activity]] = []
        self.seq = 0                # FIFO tie-break, monotone
        self.stale = 0              # invalidated entries discarded

    def push(self, time_: float, act: Activity) -> None:
        self.seq += 1
        heappush(self.heap, (time_, self.seq, act.epoch, act))

    def pop(self, horizon: float = INF) -> Optional[Tuple[float, Activity]]:
        """The earliest valid ``(time, activity)`` event if it is due by
        ``horizon``, else ``None``.  Stale tops are discarded on the way;
        a valid top past the horizon stays in place, so ``None`` with an
        empty heap means no valid entry remains (the engine's deadlock
        signal)."""
        heap = self.heap
        while heap:
            time_, _, epoch, act = heap[0]
            if act.done or epoch != act.epoch:
                heappop(heap)
                self.stale += 1
                continue
            if time_ > horizon:
                return None
            heappop(heap)
            return time_, act
        return None

    def compact(self) -> None:
        """Drop every stale entry.  Survivors keep their ``(time, seq)``
        keys, so pop order is untouched."""
        heap = self.heap
        live = [e for e in heap if not e[3].done and e[2] == e[3].epoch]
        self.stale += len(heap) - len(live)
        heapify(live)
        self.heap = live


class _Group:
    """A sharing group: an engine-maintained union of sharing components.

    Every constraint transitively connected to another through a
    multi-resource activity points at the same group, so re-rating needs
    no graph walk — the group *is* the (super)component.  Groups only
    ever merge, never split: a union of disjoint components is still a
    correct max-min subproblem (progressive filling of a block-diagonal
    system yields each block's independent solution), and monotone
    merging is what keeps maintenance O(1) per membership change.

    Large groups additionally go *array-backed* (``vectorized``): the
    sharing state (remaining / rate / settled / bound) and the COO
    incidence live in persistent NumPy arrays maintained incrementally
    by swap-remove slot management, so a re-rate performs no
    per-activity Python work at all.  While array-backed, the arrays —
    not the activities' attributes — are authoritative for that state.
    An array-backed group *absorbs* whatever it merges with by appending
    rows (:meth:`Engine._merge_groups`), and a group that is itself
    being absorbed hands its state back to the attributes.  Array-backing
    follows the group's current size with hysteresis: a group attaches
    once it reaches the engine's ``vector_threshold`` activities and
    *demotes* — hands its state back and drops its arrays — once a
    re-rate finds it below a quarter of that, so a group that shrinks
    from a contention wave back to a handful of flows is solved by the
    scalar filling again (:meth:`Engine._vec_detach`).  Constraint
    columns are created lazily, by a constraint's first user.

    ``acts`` (like ``Constraint.users`` and the engine's dirty set) is
    an insertion-ordered dict used as a set, so row order, summation
    order and tie-breaks follow activity start order — the same in
    every process — instead of object addresses.
    """

    __slots__ = (
        "cons", "acts", "vectorized",
        # Array-backed state (meaningful when vectorized is True):
        "acts_list", "row", "mem_of", "col", "n", "m", "ncols",
        "rem", "rate", "settled", "bnd", "joined", "joins", "mem_var",
        "mem_cons", "caps", "loadv", "work", "armed",
        # Virtual clock of a single-bottleneck group (see _solve_group):
        # the work served to each member (None: rows in general form),
        # the common rate and the instant the clock was last settled.
        "clock", "clock_rate", "clock_at",
        # Incremental-patch state (array-backed groups only): the
        # constraint columns dirtied since the last solve, whether the
        # rate array holds a certified previous solution the incremental
        # patch may start from, and how many filling levels the last
        # full solve took (the cost a patch would save — patching is
        # only attempted when that cost clears _PATCH_MIN_LEVELS).
        "seeds", "inc_ok", "last_levels", "patch_streak",
    )

    def __init__(self) -> None:
        self.cons: List[Constraint] = []
        self.acts: Dict[Activity, None] = {}
        self.vectorized = False
        self.armed: Optional[Activity] = None
        self.clock: Optional[float] = None
        self.seeds: Optional[Set[int]] = None
        self.inc_ok = False
        self.last_levels = 0
        self.patch_streak = 0


class Process:
    """A simulated process: a generator driven by the engine.

    ``daemon`` processes (the fault injector) never count toward the
    engine's liveness: the run ends when every *non-daemon* process is
    done, closing the daemons still waiting, and daemons are excluded
    from deadlock reports.  ``failure`` holds the
    :class:`ActivityFailed` that killed the process, if any.
    """

    __slots__ = ("name", "generator", "alive", "_wait_token", "result",
                 "daemon", "failure")

    def __init__(self, name: str, generator: Generator,
                 daemon: bool = False) -> None:
        self.name = name
        self.generator = generator
        self.alive = True
        self._wait_token = 0  # invalidates stale WaitAny registrations
        self.result = None
        self.daemon = daemon
        self.failure: Optional[ActivityFailed] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self.alive else "dead"
        return f"Process({self.name}, {state})"


class _FailureWake:
    """Queued wake-up that throws instead of sending (fault propagation)."""

    __slots__ = ("error",)

    def __init__(self, error: ActivityFailed) -> None:
        self.error = error


class Engine:
    """Owns the simulated clock, the processes, and the active activities."""

    def __init__(
        self,
        metrics: Optional[EngineMetrics] = None,
        lmm_mode: str = "auto",
        vector_threshold: int = VECTOR_THRESHOLD,
        incremental: bool = True,
    ) -> None:
        if lmm_mode not in LMM_MODES:
            raise ValueError(
                f"unknown lmm_mode {lmm_mode!r}; use one of {LMM_MODES}"
            )
        # A multi-constraint sharing group of at least
        # ``vector_threshold`` activities goes array-backed
        # (fill_vectorized / patch_solve); smaller ones are re-rated by
        # lmm.solve_reference (small groups are faster without
        # array-building overhead), and so is an array-backed group
        # that shrank below a quarter of the threshold (see
        # _recompute_dirty).  "reference" is the threshold at infinity:
        # every group stays on the scalar oracle.
        self.vector_threshold = (INF if lmm_mode == "reference"
                                 else int(vector_threshold))
        # Incremental certified re-solve of array-backed groups
        # (lmm.patch_solve).  On by default; the off switch exists for
        # A/B benchmarking and for bisecting a suspected patch bug —
        # correctness never depends on it either way (every certified
        # patch equals the full solve by construction).
        self.incremental = bool(incremental)
        self.now = 0.0
        self._processes: List[Process] = []
        self._ready: deque = deque()
        self._live_count = 0
        self._calendar = _Calendar()
        self._dirty: Dict[Constraint, None] = {}
        # Every constraint given a sharing group by this engine: the
        # ones whose ``users`` / ``group`` it releases when a run ends.
        self._bound: List[Constraint] = []
        # Calendar-compaction watermark: rebuild when the heap doubles
        # past the live-entry count observed at the previous compaction.
        self._heap_floor = 4096
        # The work counters: the caller's (a replay's telemetry) or this
        # engine's own.  Each counting site adds to its field directly.
        self.metrics = metrics if metrics is not None else EngineMetrics()
        # Optional diagnostics callback, called with the blocked processes
        # when a deadlock is detected; returns (extra message, details).
        self.deadlock_hook: Optional[
            Callable[[List[Process]], Tuple[str, dict]]
        ] = None
        # Optional fault-propagation callback, called as (proc, exc) when
        # a process dies of an ActivityFailed (see repro.faults).
        self.process_failed_hook: Optional[
            Callable[[Process, ActivityFailed], None]
        ] = None

    # ------------------------------------------------------------------
    # Process management
    # ------------------------------------------------------------------
    def add_process(self, name: str, generator: Generator,
                    daemon: bool = False) -> Process:
        """Register a generator as a simulated process, ready to run.

        ``daemon`` processes do not keep the simulation alive (see
        :class:`Process`); the fault injector is one.
        """
        proc = Process(name, generator, daemon=daemon)
        self._processes.append(proc)
        if not daemon:
            self._live_count += 1
        self._ready.append((proc, None))
        return proc

    def kill_process(self, proc: Process, reason: str = "") -> bool:
        """Terminate a process from outside (a host crash killing its
        resident ranks).  Runs the generator's cleanup via ``close()``;
        returns False if the process was already dead."""
        if not proc.alive:
            return False
        proc.alive = False
        proc._wait_token += 1  # drop any registered waits
        proc.generator.close()
        exc = ActivityFailed(None, reason)
        proc.failure = exc
        if not proc.daemon:
            self._live_count -= 1
        hook = self.process_failed_hook
        if hook is not None:
            hook(proc, exc)
        return True

    # ------------------------------------------------------------------
    # Operations processes can yield (built here, waited on by yielding)
    # ------------------------------------------------------------------
    def exec_activity(
        self,
        constraint: Constraint,
        amount: float,
        bound: Optional[float] = None,
        name: str = "",
    ) -> ExecActivity:
        act = ExecActivity(constraint, amount, bound=bound, name=name)
        self.start_activity(act)
        return act

    def comm_activity(
        self,
        links,
        size: float,
        latency: float,
        rate_factor: float = 1.0,
        bound: Optional[float] = None,
        name: str = "",
    ) -> CommActivity:
        act = CommActivity(
            list(links), size, latency, rate_factor=rate_factor,
            bound=bound, name=name,
        )
        self.start_activity(act)
        return act

    def timer(self, duration: float, name: str = "") -> Timer:
        act = Timer(duration, name=name)
        self.start_activity(act)
        return act

    def start_activity(self, act: Activity) -> Activity:
        """Hand an already-built activity to the lazy fluid loop."""
        act.start_time = self.now
        self._enter_phase(act, act.begin(self.now))
        return act

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> float:
        """Run until all processes finish (or ``until`` seconds of simulated
        time elapse).  Returns the final simulated time.

        A run that ends (every process done, a deadlock, or an exception
        out of a process) closes the processes still suspended and
        releases the sharing state it left on the constraints, so the
        platform they belong to carries nothing into its next run; a
        pause at ``until`` keeps both.

        Every valid event due at the next instant is applied as one
        batch before any woken process runs or any group is re-rated,
        so a sharing group touched by several simultaneous events is
        solved once at that instant, not once per event.  This is exact:
        the events of one instant are completions predicted under the
        current rates, and applying one neither moves the clock nor
        re-rates anything, so they commute until the next re-rate.
        """
        cal = self._calendar
        metrics = self.metrics
        horizon = INF if until is None else until
        # The per-event counters live in loop-locals (a few integer
        # increments per event) and are added to the metrics in the
        # finally below, so they also count a deadlocked or failed run;
        # every other counter is current at every instant.
        popped = batched = fast = generic = comp_total = comp_max = 0
        stale0 = cal.stale
        paused = False
        try:
            while True:
                self._run_ready()
                if self._dirty:
                    size = self._recompute_dirty()
                    if size:
                        if size < 0:  # single-constraint fast path
                            fast += 1
                            size = -size
                        else:
                            generic += 1
                        comp_total += size
                        if size > comp_max:
                            comp_max = size
                    # A recompute may complete drained activities inline,
                    # waking processes and dirtying constraints; settle
                    # all of that at the current instant before touching
                    # the event heap.
                    continue
                if self._live_count == 0:
                    return self.now
                item = cal.pop(horizon)
                if item is None:
                    if cal.heap:
                        # The next valid event lies past the horizon:
                        # pause the clock there.  The event keeps its
                        # calendar entry, so it resumes in FIFO order.
                        self.now = until
                        paused = True
                        return until
                    raise self._deadlock()
                now, act = item
                if now > self.now:
                    self.now = now
                else:
                    now = self.now
                # The same-instant batch: apply this event and every
                # other one due at ``now`` (one heap-top comparison per
                # event; cal.heap is re-read since compaction rebinds it).
                while True:
                    popped += 1
                    # Idle-advance fast path (completion side): when the
                    # completing activity is the *only* user of its
                    # single, ungrouped-with-anything constraint — the
                    # compiled replay's fused compute burst — no other
                    # activity's rate can change: unregister it directly
                    # and skip dirtying the constraint, which would only
                    # buy a guaranteed-no-op recompute pass.
                    constraints = act.constraints
                    if act.registered and len(constraints) == 1:
                        cons = constraints[0]
                        group = cons.group
                        if (not group.vectorized and len(group.cons) == 1
                                and len(group.acts) == 1
                                and len(cons.users) == 1):
                            metrics.idle_advances += 1
                            act.remaining = 0.0
                            del group.acts[act]
                            del cons.users[act]
                            act.registered = False
                            self._enter_phase(act, act.on_phase_end(now))
                        else:
                            self._end_phase(act)
                    else:
                        self._end_phase(act)
                    self._maybe_compact()
                    heap = cal.heap
                    if not heap or heap[0][0] > now:
                        break
                    item = cal.pop(now)
                    if item is None:
                        break
                    act = item[1]
                    batched += 1
        finally:
            if not paused:
                self._close_processes()
                self._release_constraints()
            metrics.events_popped += popped
            metrics.same_instant_events += batched
            metrics.stale_skipped += cal.stale - stale0
            metrics.fastpath_recomputes += fast
            metrics.generic_recomputes += generic
            metrics.component_acts += comp_total
            if comp_max > metrics.max_component_acts:
                metrics.max_component_acts = comp_max

    def _close_processes(self) -> None:
        """The run is over (every non-daemon process finished, none can
        progress, or one raised): close each process still suspended —
        a daemon waiting for its next event, a deadlocked rank, the peers
        of a rank that raised.  A suspended
        generator's frame references the layer that holds this engine,
        so an open one would keep the whole run alive in a reference
        cycle until the cycle collector ran."""
        for proc in self._processes:
            if proc.alive:
                proc.alive = False
                proc._wait_token += 1
                proc.generator.close()
        self._live_count = 0

    def _release_constraints(self) -> None:
        """Forget this engine's sharing state on the constraints it
        bound: their ``users`` and ``group``.  Each group and its
        constraints point at each other, and the constraints belong to a
        platform that outlives the run."""
        for cons in self._bound:
            cons.users = {}
            cons.group = None
        self._bound = []

    def _deadlock(self) -> DeadlockError:
        """Build the structured no-progress error, consulting the
        diagnostics hook (the replayer installs one) for layer-specific
        context — which action each rank is stuck in, what is unmatched."""
        blocked_procs = [p for p in self._processes
                         if p.alive and not p.daemon]
        blocked = [p.name for p in blocked_procs]
        message = (
            f"t={self.now:g}: no activity can progress; blocked "
            f"processes: {blocked[:20]}"
            + ("..." if len(blocked) > 20 else "")
        )
        details: dict = {}
        if self.deadlock_hook is not None:
            extra, details = self.deadlock_hook(blocked_procs)
            if extra:
                message += "\n" + extra
        return DeadlockError(message, blocked=blocked, details=details)

    # ------------------------------------------------------------------
    # Phase transitions
    # ------------------------------------------------------------------
    def _enter_phase(self, act: Activity, phase: str) -> None:
        if phase == "done":
            act.finish_time = self.now
            self._complete(act)
        elif phase == "timer":
            act.epoch += 1
            act.rate = 0.0
            act.settled_at = self.now
            self._push(self.now + act.remaining, act)
        elif phase == "sharing":
            constraints = act.constraints
            if len(constraints) == 1:
                cons = constraints[0]
                g = cons.group
                if not cons.users and (
                    g is None
                    or (not g.vectorized and not g.acts
                        and len(g.cons) == 1)
                ):
                    # Idle-advance fast path (start side): a solo
                    # activity on an otherwise-idle constraint gets the
                    # full capacity, clipped by its bound — exactly what
                    # _rerate_single_constraint derives for n=1 — so the
                    # rate and completion event are set here, without
                    # dirtying the constraint.  (If the constraint is
                    # already in the dirty set from an earlier change,
                    # the pending recompute re-derives this same state —
                    # redundant but correct.)
                    act.settled_at = self.now
                    cons.users[act] = None
                    if g is None:
                        g = _Group()
                        cons.group = g
                        g.cons.append(cons)
                        self._bound.append(cons)
                    g.acts[act] = None
                    act.registered = True
                    self.metrics.idle_advances += 1
                    cap = cons.capacity
                    bound = act.bound
                    rate = (bound if bound is not None and bound < cap
                            else cap)
                    act.epoch += 1
                    act.rate = rate
                    if rate == INF:
                        self._push(self.now, act)
                    elif rate > 0.0:
                        self._push(self.now + act.remaining / rate, act)
                    # rate == 0: stalled; nothing armed (same contract as
                    # _arm_earliest — a later re-rate or the deadlock
                    # report picks it up).
                    return
            act.settled_at = self.now
            dirty = self._dirty
            group: Optional[_Group] = None
            for cons in act.constraints:
                cons.users[act] = None
                dirty[cons] = None
                g = cons.group
                if g is not None and g is not group:
                    group = g if group is None \
                        else self._merge_groups(group, g)
            act.registered = True
            if act.constraints:
                if group is None:
                    group = _Group()
                grouped = group.cons
                for cons in act.constraints:
                    if cons.group is not group:
                        cons.group = group
                        grouped.append(cons)
                        self._bound.append(cons)
                group.acts[act] = None
                if group.vectorized:
                    self._vec_add(group, act)
            if not act.constraints:
                # Unconstrained: bound-only or infinite rate.  A zero
                # bound means the activity is stalled (e.g. a flow over a
                # zero-capacity fatpipe): no completion event is armed, so
                # it only ends if something re-rates it — otherwise the
                # main loop reports the deadlock.
                act.epoch += 1
                act.rate = act.bound if act.bound is not None else INF
                if act.rate == INF:
                    self._push(self.now, act)
                elif act.rate > 0.0:
                    self._push(self.now + act.remaining / act.rate, act)
        else:  # pragma: no cover - defensive
            raise RuntimeError(f"unknown activity phase {phase!r}")

    def _merge_groups(self, a: _Group, b: _Group) -> _Group:
        """Union two sharing groups; returns the survivor.

        An array-backed side always survives a scalar one, whatever
        their sizes; otherwise the side with more constraints does.  An
        array-backed survivor absorbs the other side in place, by
        appending rows — O(absorbed), never O(survivor) — so a pipeline
        wave that merges one more link into a thousand-activity group
        per rank costs one row per merge, not a rebuild of the group.
        The caller has already dirtied constraints on both sides, so
        the merged group is re-rated at this same instant.
        """
        if (a.vectorized, len(a.cons)) < (b.vectorized, len(b.cons)):
            a, b = b, a
        if b.vectorized:
            self._devectorize(b)
        for cons in b.cons:
            cons.group = a
        a.cons.extend(b.cons)
        if a.vectorized:
            self._vec_adopt(a, b.acts)
        a.acts.update(b.acts)
        self.metrics.group_merges += 1
        return a

    def _end_phase(self, act: Activity) -> None:
        act.remaining = 0.0
        if act.registered:
            constraints = act.constraints
            if constraints:
                group = constraints[0].group
                del group.acts[act]
                if group.vectorized:
                    self._vec_remove(group, act)
            dirty = self._dirty
            for cons in constraints:
                del cons.users[act]
                dirty[cons] = None
            act.registered = False
        self._enter_phase(act, act.on_phase_end(self.now))

    # ------------------------------------------------------------------
    # Lazy sharing updates
    # ------------------------------------------------------------------
    def _recompute_dirty(self) -> int:
        """Settle and re-rate every activity affected by pending changes.

        Returns the sharing-component size for ``run()``'s telemetry
        locals: 0 when nothing needed re-rating, ``-n`` when the
        single-constraint fast path re-rated ``n`` activities, ``+n``
        when the generic solver handled ``n``.
        """
        seeds, self._dirty = self._dirty, {}
        # Fast path for the overwhelmingly common case — one dirty
        # constraint that is its whole sharing group, e.g. a compute
        # burst starting or ending on an otherwise idle CPU.
        if len(seeds) == 1:
            (cons,) = seeds
            group = cons.group
            if group is not None and len(group.cons) == 1:
                # The whole group is this one constraint (so every user
                # touches nothing else): equal shares with bounds, no
                # generic filling needed — and nothing at all once the
                # last user left.  (A user-less constraint of a *larger*
                # group takes the generic path: the group may still owe
                # a re-rate that an inline-completion wave cut short.)
                users = cons.users
                size = len(users)
                if size:
                    self._rerate_single_constraint(cons, users)
                return -size
        # One sharing group at a time.  Groups must be handled
        # independently: each arms its own earliest completion event, and
        # only the group an event belongs to is re-rated when it fires.
        # No graph walk happens here — every dirty constraint already
        # points at its group (maintained by _enter_phase/_end_phase).
        now = self.now
        threshold = self.vector_threshold
        # Demotion cut: an array-backed group re-rated below a quarter
        # of the attach threshold goes back to the scalar filling (the
        # gap between the two is the hysteresis that keeps a group
        # hovering near one size from flapping).  A threshold of 1 gives
        # a cut of 0, so "array filling on every group" never demotes.
        cut = threshold // 4 if threshold < INF else 0
        done_groups: Set[int] = set()
        total = 0
        for seed in seeds:
            group = seed.group
            if group is None:
                continue  # never had users
            gid = id(group)
            if gid in done_groups:
                continue
            done_groups.add(gid)
            if group.vectorized:
                if group.n >= cut:
                    total += group.n
                    self._solve_group(group, now)
                    continue
                self._vec_detach(group)
            acts = group.acts
            if not acts:
                continue
            total += len(acts)
            if len(group.cons) == 1:
                self._rerate_single_constraint(group.cons[0], acts)
                continue
            if len(acts) >= threshold:
                self._vec_attach(group)
                self._solve_group(group, now)
                continue
            if self._settle(acts, now):
                continue
            iterations = solve_reference(acts)
            metrics = self.metrics
            metrics.maxmin_iterations += iterations
            metrics.full_resolves += 1
            hist = metrics.level_hist
            hist[iterations] = hist.get(iterations, 0) + 1
            self._arm_earliest(acts, now)
        return total

    # ------------------------------------------------------------------
    # Array-backed sharing groups
    # ------------------------------------------------------------------
    @staticmethod
    def _grown(arr: np.ndarray, need: int) -> np.ndarray:
        """Amortized-doubling reallocation preserving the prefix."""
        new = np.empty(max(need, 2 * arr.shape[0]), dtype=arr.dtype)
        new[:arr.shape[0]] = arr
        return new

    def _vec_attach(self, group: _Group) -> None:
        """Switch a group to array-backed sharing state.

        From here on (until :meth:`_vec_detach`) the group's arrays are
        authoritative for remaining / rate / settled_at of its member
        activities.  The arrays start empty and every member is appended
        like a late arrival, so a column exists only for a constraint
        that has had a user (an idle link of the group costs nothing
        until then).
        """
        # loadv: per-constraint membership counts, maintained
        # incrementally by _vec_add/_vec_remove.  Counts are integers,
        # so the float adds are exact and the solver sees the same loads
        # a bincount would produce — this just skips recomputing them
        # every solve.
        for name in ("rem", "rate", "settled", "bnd", "caps", "loadv"):
            setattr(group, name, np.empty(64))
        # joined: each row's join sequence number, so a drained wave
        # completes in group.acts order (the scalar groups' order), not
        # in the row order swap-removal scrambles.
        group.joined = np.empty(64, dtype=np.int64)
        group.joins = 0
        group.mem_var = np.empty(256, dtype=np.intp)
        group.mem_cons = np.empty(256, dtype=np.intp)
        group.acts_list = []
        group.row = {}
        group.mem_of = {}
        group.col = {}
        group.n = group.m = group.ncols = 0
        group.work = {}
        group.armed = None
        group.clock = None
        group.seeds = set()
        group.vectorized = True
        self.metrics.vector_attaches += 1
        self._vec_adopt(group, group.acts)

    def _vec_adopt(self, group: _Group, acts) -> None:
        """Append rows for activities whose sharing state lived in their
        attributes so far (a fresh attach, or the absorbed side of a
        merge).  Every pending completion event of theirs is invalidated
        (epoch bump) so only events armed from the arrays can fire.  The
        rates they bring may predate pending membership changes without
        any seed record of them, so the next array solve must be a full
        one; it then certifies the rate array and (re)arms the
        incremental path.  A group on its clock goes back to the general
        form first: an adopted row's progress dates from its own
        ``settled_at``, at its own old rate."""
        if group.clock is not None:
            self._clock_stop(group)
        for act in acts:
            act.epoch += 1
            self._vec_add(group, act)
        group.inc_ok = False

    def _devectorize(self, group: _Group) -> None:
        """Hand an array-backed group's state back to its activities'
        attributes: a group about to be absorbed by another array-backed
        one (see _merge_groups; it is dropped right after, so its arrays
        are simply left behind), or one being demoted (_vec_detach)."""
        if group.clock is not None:
            self._clock_stop(group)
        n = group.n
        for a, r, q, s in zip(group.acts_list, group.rem[:n].tolist(),
                              group.rate[:n].tolist(),
                              group.settled[:n].tolist()):
            a.remaining = r
            a.rate = q
            a.settled_at = s

    def _vec_detach(self, group: _Group) -> None:
        """Demote an array-backed group that shrank below the cut: its
        state goes back to the activities' attributes and its arrays are
        dropped, so the caller re-rates it on the scalar path at once —
        whose epoch sweep (_arm_earliest) also retires the event armed
        from the arrays.  It re-attaches only if it grows back to
        ``vector_threshold``."""
        self._devectorize(group)
        group.vectorized = False
        for name in ("acts_list", "row", "mem_of", "col", "rem", "rate",
                     "settled", "bnd", "joined", "mem_var", "mem_cons",
                     "caps", "loadv", "work", "armed", "seeds"):
            setattr(group, name, None)
        self.metrics.vector_demotions += 1

    def _vec_add(self, group: _Group, act: Activity) -> None:
        """O(1) amortized: append one activity's row and memberships."""
        i = group.n
        if i >= group.rem.shape[0]:
            group.rem = self._grown(group.rem, i + 1)
            group.rate = self._grown(group.rate, i + 1)
            group.settled = self._grown(group.settled, i + 1)
            group.bnd = self._grown(group.bnd, i + 1)
            group.joined = self._grown(group.joined, i + 1)
        if group.clock is None:
            group.rem[i] = act.remaining
            group.rate[i] = act.rate
            group.settled[i] = act.settled_at
        else:
            # A late joiner (settled now): its finish tag is the clock
            # advanced to now, exactly as the next settle advances it.
            group.rem[i] = (group.clock + group.clock_rate
                            * (self.now - group.clock_at)) + act.remaining
        group.joined[i] = group.joins
        group.joins += 1
        b = act.bound
        group.bnd[i] = INF if b is None else b
        group.row[act] = i
        group.acts_list.append(act)
        group.n = i + 1
        col = group.col
        m = group.m
        slots = []
        seeds = group.seeds
        for c in act.constraints:
            j = col.get(c)
            if j is None:
                j = group.ncols
                col[c] = j
                if j >= group.caps.shape[0]:
                    group.caps = self._grown(group.caps, j + 1)
                    group.loadv = self._grown(group.loadv, j + 1)
                group.caps[j] = c.capacity
                group.loadv[j] = 0.0
                group.ncols = j + 1
            group.loadv[j] += 1.0
            seeds.add(j)
            if m >= group.mem_var.shape[0]:
                group.mem_var = self._grown(group.mem_var, m + 1)
                group.mem_cons = self._grown(group.mem_cons, m + 1)
            group.mem_var[m] = i
            group.mem_cons[m] = j
            slots.append(m)
            m += 1
        group.m = m
        group.mem_of[act] = slots

    def _vec_remove(self, group: _Group, act: Activity) -> None:
        """O(1): swap-remove one activity's row and memberships."""
        mem_var = group.mem_var
        mem_cons = group.mem_cons
        mem_of = group.mem_of
        acts_list = group.acts_list
        m = group.m
        # Largest slot first: every position above the slot being freed
        # then belongs to some *other* activity, so the fix-up below
        # never chases the activity being removed.
        loadv = group.loadv
        seeds = group.seeds
        for s in sorted(mem_of.pop(act), reverse=True):
            j = int(mem_cons[s])
            loadv[j] -= 1.0
            seeds.add(j)
            last = m - 1
            if s != last:
                moved_row = int(mem_var[last])
                mem_var[s] = moved_row
                mem_cons[s] = mem_cons[last]
                lst = mem_of[acts_list[moved_row]]
                lst[lst.index(last)] = s
            m -= 1
        group.m = m
        i = group.row.pop(act)
        last = group.n - 1
        last_act = acts_list.pop()
        if last_act is not act:
            acts_list[i] = last_act
            group.row[last_act] = i
            group.rem[i] = group.rem[last]
            group.rate[i] = group.rate[last]
            group.settled[i] = group.settled[last]
            group.bnd[i] = group.bnd[last]
            group.joined[i] = group.joined[last]
            for s in mem_of[last_act]:
                mem_var[s] = i
        group.n = last

    def _solve_group(self, group: _Group, now: float) -> None:
        """Settle, re-rate and re-arm one array-backed group — no
        per-activity Python work at all on this path.

        A group with a single bottleneck (:func:`lmm.single_bottleneck`:
        a column every row crosses holds the smallest share, no bound
        reaches the threshold) takes that share for every row and skips
        the filling.  While the test keeps holding it runs on one
        virtual clock instead of per-row progress: ``clock`` is the work
        served to each member, each row's ``rem`` slot holds its finish
        tag (clock at join + remaining), a settle advances the clock and
        the earliest tag is the only row the drained check and the
        re-arm read.  The rows go back to the general form
        (:meth:`_clock_stop`) at the first re-rate that fails the test,
        before a merge adopts rows, and when the group is demoted or
        absorbed.

        Any other re-rate tries the certified incremental patch first
        (when enabled and the group carries a previous certified
        solution): only the cone of constraints/variables affected by
        the seed columns is re-filled, and the patched vector is
        accepted only when the max-min optimality certificate holds —
        otherwise the full progressive filling runs, and the fallback is
        counted.
        """
        n = group.n
        seeds = group.seeds
        if n == 0:
            group.clock = None
            if seeds:
                seeds.clear()
            return
        rem = group.rem[:n]
        if group.clock is not None:
            if group.clock_at < now:
                r = group.clock_rate
                group.clock += r * (now - group.clock_at)
                group.clock_at = now
                if r > 0.0 and _drained(
                        now, float(rem[rem.argmin()]) - group.clock, r):
                    # Inline completion, as below: every drained row
                    # finishes now, in join order.
                    rows = np.nonzero(_drained(now, rem - group.clock, r))[0]
                    self._finish_rows(group, rows)
                    return
        else:
            rate = group.rate[:n]
            settled = group.settled[:n]
            inf_mask = np.isinf(rate)
            has_inf = bool(inf_mask.any())
            # When nothing accrued progress since the last settle (the
            # common re-rate immediately after an inline-completion wave
            # at the same instant), the settle is arithmetic identity —
            # skip it.
            if has_inf or float(settled.min()) < now:
                rem -= rate * (now - settled)
                if has_inf:
                    # An infinite old rate drains instantly (and inf * 0
                    # time deltas would otherwise leave NaNs behind).
                    rem[inf_mask] = 0.0
                np.maximum(rem, 0.0, out=rem)
                settled[:] = now
                with np.errstate(divide="ignore", invalid="ignore"):
                    done = _drained(now, rem, rate)
                if done.any():
                    # Inline-completion contract — see _settle: finish
                    # the drained wave now, survivors re-rate on the main
                    # loop's immediately following pass.
                    self._finish_rows(group, np.nonzero(done)[0])
                    return
        ncols = group.ncols
        share = single_bottleneck(group.caps[:ncols], group.loadv[:ncols],
                                  group.bnd[:n])
        if share is not None:
            if group.clock is None:
                # Every row is settled now: its remaining is its tag.
                group.clock = 0.0
                group.clock_at = now
            group.clock_rate = share
            seeds.clear()
            self.metrics.single_bottleneck_rerates += 1
            self._note_levels(group, 1)
            self._rearm_group(group, now, rem, None)
            return
        if group.clock is not None:
            self._clock_stop(group)
        rate = group.rate[:n]
        if (self.incremental and group.inc_ok and seeds
                and group.last_levels >= _PATCH_MIN_LEVELS
                and group.patch_streak < _PATCH_PROBE_EVERY):
            seed_cols = np.fromiter(seeds, dtype=np.intp, count=len(seeds))
            seeds.clear()
            ok, levels, _cone = patch_solve(
                group.caps[:ncols],
                group.bnd[:n],
                rate,  # patched in place; restored on failure
                group.mem_var[:group.m],
                group.mem_cons[:group.m],
                seed_cols,
            )
            metrics = self.metrics
            if ok:
                metrics.incremental_patches += 1
                group.patch_streak += 1
                metrics.maxmin_iterations += levels
                if levels:
                    hist = metrics.level_hist
                    hist[levels] = hist.get(levels, 0) + 1
                self._rearm_group(group, now, rem, rate)
                return
            metrics.patch_fallbacks += 1
        elif seeds:
            seeds.clear()
        rates, iterations = fill_vectorized(
            group.caps[:ncols],
            group.bnd[:n],
            group.mem_var[:group.m],
            group.mem_cons[:group.m],
            load=group.loadv[:ncols],
            work=group.work,
        )
        rate[:] = rates
        self._note_levels(group, iterations)
        self._rearm_group(group, now, rem, rate)

    def _note_levels(self, group: _Group, levels: int) -> None:
        """Book a full solve of ``levels`` filling levels; its rate array
        (or clock rate) is the certified solution a patch may start
        from."""
        metrics = self.metrics
        metrics.vectorized_recomputes += 1
        metrics.full_resolves += 1
        metrics.maxmin_iterations += levels
        hist = metrics.level_hist
        hist[levels] = hist.get(levels, 0) + 1
        group.inc_ok = True
        group.last_levels = levels
        group.patch_streak = 0

    def _finish_rows(self, group: _Group, rows: np.ndarray) -> None:
        """Complete a drained wave of rows in join order (each completion
        swap-removes its rows); the survivors re-rate on the main loop's
        immediately following pass."""
        if len(rows) > 1:
            rows = rows[np.argsort(group.joined[rows])]
        acts_list = group.acts_list
        for a in [acts_list[i] for i in rows.tolist()]:
            self._end_phase(a)

    def _clock_stop(self, group: _Group) -> None:
        """Put a clock group's rows back in the general form: remaining
        is tag minus clock, at the common rate, settled when the clock
        was."""
        n = group.n
        rem = group.rem[:n]
        rem -= group.clock
        np.maximum(rem, 0.0, out=rem)
        group.rate[:n] = group.clock_rate
        group.settled[:n] = group.clock_at
        group.clock = None

    def _rearm_group(self, group: _Group, now: float,
                     rem: np.ndarray, rate: Optional[np.ndarray]) -> None:
        """Min-arm one array-backed group after a re-rate.

        O(1) invalidation: only the previously armed activity can hold
        a live calendar event for this group, so one epoch bump replaces
        the per-activity sweep.  ``rate`` is None for a group on its
        clock: ``rem`` then holds finish tags and every row runs at the
        clock rate, so the earliest tag finishes first.
        """
        prev = group.armed
        if prev is not None:
            prev.epoch += 1
        if rate is None:
            r = group.clock_rate
            times = rem
            k = int(times.argmin())
            best_t = ((float(times[k]) - group.clock) / r if r > 0.0
                      else INF)
        else:
            with np.errstate(divide="ignore"):
                times = rem / rate
            k = int(times.argmin())
            best_t = float(times[k])
        if best_t < INF:
            # Ties go to the earliest-joined row, as _arm_earliest's
            # scan of group.acts does; argmin alone picks the lowest
            # row, and swap-removal scrambles row order.
            ties = times == times[k]
            if np.count_nonzero(ties) > 1:
                ties = np.flatnonzero(ties)
                k = int(ties[group.joined[ties].argmin()])
            act = group.acts_list[k]
            group.armed = act
            self._push(now + best_t, act)
        else:
            group.armed = None

    def _arm_earliest(self, acts, now: float) -> None:
        """Arm one completion event: the component's earliest.

        Every other activity's predicted end is invalidated (epoch bump)
        but *not* pushed — by the time it could matter, this component
        has been re-rated (the armed event completing re-dirties it), and
        a fresh earliest is armed.  This keeps the heap at O(components),
        not O(activities), and shrinks both push traffic and stale pops
        by the component size.
        """
        best = None
        best_t = INF
        for act in acts:
            act.epoch += 1
            rate = act.rate
            if rate > 0.0:
                if rate == INF:
                    # Infinite rate with remaining > 0: completes now.
                    best, best_t = act, now
                    break
                t = now + act.remaining / rate
                if t < best_t:
                    best, best_t = act, t
            # rate == 0: saturated at zero — no event; if everyone ends up
            # rate-less the main loop reports a deadlock.
        if best is not None:
            self._push(best_t, best)

    def _settle(self, acts, now: float) -> bool:
        """Accrue the scalar activities' progress at their old rates.

        Drained activities (see :func:`_drained`) are completed *inline*
        instead of arming now-events and re-entering the recompute once
        per pop: a synchronized wave of n simultaneous completions costs
        O(n) this way, not n recomputes of O(n).  Returns True when some
        completed; completion re-dirties the touched constraints, so the
        survivors are re-rated on the main loop's immediately following
        pass (their settle then is a no-op — the clock has not moved).
        """
        finished = None
        for act in acts:
            rate = act.rate
            if rate:
                rem = act.remaining - (INF if rate == INF else
                                       rate * (now - act.settled_at))
                if rem < 0.0:
                    rem = 0.0
                act.remaining = rem
                drained = _drained(now, rem, rate)
            else:
                drained = act.remaining <= 0.0
            act.settled_at = now
            if drained:
                if finished is None:
                    finished = [act]
                else:
                    finished.append(act)
        if finished is None:
            return False
        for act in finished:
            self._end_phase(act)
        return True

    def _rerate_single_constraint(self, cons: Constraint, users) -> None:
        """Max-min over one constraint: bounded users below the fair share
        keep their bound; the rest split what remains equally."""
        now = self.now
        if self._settle(users, now):
            return
        remaining_cap = cons.capacity
        unfixed = sorted(
            users,
            key=lambda a: a.bound if a.bound is not None else INF,
        )
        n = len(unfixed)
        idx = 0
        while idx < n:
            share = remaining_cap / (n - idx)
            act = unfixed[idx]
            if act.bound is not None and act.bound < share:
                act.rate = act.bound
                remaining_cap -= act.bound
                idx += 1
            else:
                for j in range(idx, n):
                    unfixed[j].rate = share
                break
        self._arm_earliest(users, now)

    # ------------------------------------------------------------------
    # Event-calendar plumbing
    # ------------------------------------------------------------------
    def _push(self, time_: float, act: Activity) -> None:
        self._calendar.push(time_, act)

    def _maybe_compact(self) -> None:
        """Drop stale calendar entries once they dominate (lazy deletion).

        Triggered when the heap doubles past the live count seen at the
        previous compaction — amortised O(1) per event.  The
        dropped-entry count flows into ``stale_skipped`` through the
        calendar's own ``stale`` counter (added by ``run()``)."""
        cal = self._calendar
        if len(cal.heap) > 2 * self._heap_floor:
            cal.compact()
            self.metrics.calendar_rebuilds += 1
            self._heap_floor = max(4096, len(cal.heap))

    # ------------------------------------------------------------------
    # Completion and process scheduling
    # ------------------------------------------------------------------
    def complete_waitable(self, waitable: Waitable) -> None:
        """Complete a derived waitable (e.g. an MPI request): fire its
        callbacks and wake every process blocked on it.  Used by protocol
        layers whose objects are not kernel activities."""
        if waitable.done:
            return
        self._complete(waitable)

    def complete_at(self, waitable: Waitable, when: float) -> None:
        """Complete a derived waitable at absolute time ``when`` (or now,
        if ``when`` has already passed).  The sharded replay driver uses
        this to release parked ranks at the collective exit times the
        coordinator computed for them."""
        if waitable.done:
            return
        if when <= self.now:
            self._complete(waitable)
            return
        t = Timer(when - self.now, name="complete_at")
        t.on_complete(lambda _t: self.complete_waitable(waitable))
        self.start_activity(t)

    # ------------------------------------------------------------------
    # Fault injection (see repro.faults; no-ops in fault-free runs)
    # ------------------------------------------------------------------
    def fail_waitable(self, waitable: Waitable, reason: str = "") -> bool:
        """Move a waitable to the terminal FAILED state.

        Completion callbacks never run; ``on_fail`` callbacks do, and
        every process blocked on it is woken with an
        :class:`ActivityFailed` thrown at its yield point.  Returns
        False if the waitable already reached a terminal state.
        """
        if waitable.done or waitable.failed:
            return False
        waitable._fire_failure(reason)
        waiters, waitable.waiters = waitable.waiters, []
        for proc, token in waiters:
            if proc.alive and proc._wait_token == token:
                proc._wait_token += 1  # consume: ignore other WaitAny fires
                self._ready.append((proc, _FailureWake(
                    ActivityFailed(waitable, reason))))
        return True

    def fail_activity(self, act: Activity, reason: str = "") -> bool:
        """FAIL a kernel activity: unregister it from resource sharing
        (the survivors are re-rated through the normal lazy recompute,
        scalar or vectorized alike), invalidate its pending completion
        event, and propagate the failure to its waiters."""
        if act.done or act.failed:
            return False
        act.remaining = 0.0
        if act.registered:
            constraints = act.constraints
            if constraints:
                group = constraints[0].group
                del group.acts[act]
                if group.vectorized:
                    self._vec_remove(group, act)
            for cons in constraints:
                del cons.users[act]
                self._dirty[cons] = None
            act.registered = False
        act.epoch += 1  # drop any armed completion/timer event
        act.finish_time = self.now
        return self.fail_waitable(act, reason)

    def set_capacity(self, cons: Constraint, capacity: float) -> None:
        """Change a constraint's capacity mid-run (link degradation or
        restoration) and re-price its in-flight users through the lazy
        recompute path.  Array-backed sharing groups snapshot capacities,
        so the snapshot is patched too."""
        if not capacity >= 0:   # NaN too
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        cons.capacity = float(capacity)
        group = cons.group
        if group is not None and group.vectorized:
            j = group.col.get(cons)
            if j is not None:
                group.caps[j] = cons.capacity
                group.seeds.add(j)
        self._dirty[cons] = None

    def _complete(self, waitable: Waitable) -> None:
        waitable._fire()
        waiters, waitable.waiters = waitable.waiters, []
        for proc, token in waiters:
            if proc.alive and proc._wait_token == token:
                proc._wait_token += 1  # consume: ignore other WaitAny fires
                self._ready.append((proc, waitable))

    def _run_ready(self) -> None:
        while self._ready:
            proc, sendval = self._ready.popleft()
            if not proc.alive:
                continue
            self._step(proc, sendval)

    def _step(self, proc: Process, sendval) -> None:
        generator = proc.generator
        while True:
            try:
                if type(sendval) is _FailureWake:
                    # The waitable this process blocked on FAILED: the
                    # fault surfaces inside the process as an exception.
                    yielded = generator.throw(sendval.error)
                else:
                    yielded = generator.send(sendval)
            except StopIteration as stop:
                proc.alive = False
                proc.result = stop.value
                if not proc.daemon:
                    self._live_count -= 1
                return
            except ActivityFailed as exc:
                # The process did not handle the fault: it dies, the rest
                # of the simulation keeps running (peers blocked on it
                # surface through the deadlock machinery).  The failure
                # is kept for its provenance, not its frames: this one
                # holds ``proc``, which would close a reference cycle.
                proc.alive = False
                proc.failure = exc.with_traceback(None)
                proc._wait_token += 1
                if not proc.daemon:
                    self._live_count -= 1
                hook = self.process_failed_hook
                if hook is not None:
                    hook(proc, exc)
                return
            if isinstance(yielded, WaitAny):
                done = next((w for w in yielded.waitables if w.done), None)
                if done is not None:
                    sendval = done
                    continue
                failed = next(
                    (w for w in yielded.waitables if w.failed), None)
                if failed is not None:
                    sendval = _FailureWake(
                        ActivityFailed(failed, failed.failure or ""))
                    continue
                token = proc._wait_token
                for w in yielded.waitables:
                    w.waiters.append((proc, token))
                return
            if isinstance(yielded, Waitable):
                if yielded.done:
                    sendval = yielded
                    continue
                if yielded.failed:
                    sendval = _FailureWake(
                        ActivityFailed(yielded, yielded.failure or ""))
                    continue
                yielded.waiters.append((proc, proc._wait_token))
                return
            raise TypeError(
                f"process {proc.name!r} yielded {yielded!r}; expected a "
                "Waitable or WaitAny"
            )
