"""Activities: the units of simulated work managed by the engine.

An :class:`Activity` is anything a simulated process can block on.  The
kernel advances three concrete kinds:

* :class:`ExecActivity` — a compute burst of ``amount`` flops on one CPU
  constraint; its rate comes from max-min sharing of the CPU.
* :class:`CommActivity` — a point-to-point data flow over a route of link
  constraints.  It holds a *latency phase* (a fixed delay during which no
  bandwidth is consumed) followed by a *data phase* whose rate comes from
  max-min sharing of the crossed links.
* :class:`Timer` — a pure delay (sleeps, timeouts).

The engine drives them lazily: each activity carries its current ``rate``,
the ``remaining`` work at its ``settled_at`` instant, and an ``epoch``
counter that invalidates stale completion-calendar entries whenever the
rate is re-assigned.  Rates only change when the activity's *sharing component*
(activities transitively connected through shared constraints) changes, so
the engine settles and re-rates just that component — never the world.

Higher layers (mailboxes, MPI requests) build :class:`Waitable` wrappers
that complete via callbacks chained off these primitives.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from .lmm import Constraint

__all__ = ["Waitable", "Activity", "ExecActivity", "CommActivity", "Timer",
           "ActivityFailed"]

INF = float("inf")


class ActivityFailed(RuntimeError):
    """Raised inside a process blocked on a waitable that failed.

    A waitable enters the terminal FAILED state (distinct from ``done``)
    when a fault takes out a resource it depends on — a host crash killing
    a compute burst, a link going down under a data flow.  ``reason`` is a
    human-readable provenance string naming the fault event, carried all
    the way up to :class:`~repro.faults.FaultReport`.
    """

    def __init__(self, waitable: Optional["Waitable"], reason: str = "") -> None:
        name = getattr(waitable, "name", None) or type(waitable).__name__ \
            if waitable is not None else "process"
        super().__init__(f"{name} failed: {reason or 'resource failure'}")
        self.waitable = waitable
        self.reason = reason


class Waitable:
    """Anything a process can block on: has ``done`` and wakes waiters.

    Terminal states are ``done`` (completed normally) and ``failed``
    (killed by a fault; see :class:`ActivityFailed`).  They are mutually
    exclusive; fault-free simulations never set ``failed``.
    """

    __slots__ = ("done", "waiters", "_callbacks", "failed", "failure",
                 "_fail_callbacks")

    def __init__(self) -> None:
        self.done = False
        self.waiters: List[tuple] = []  # (Process, wait-token) pairs
        self._callbacks: List[Callable[["Waitable"], None]] = []
        self.failed = False
        self.failure: Optional[str] = None  # fault provenance when failed
        self._fail_callbacks: Optional[List[Callable]] = None

    def on_complete(self, callback: Callable[["Waitable"], None]) -> None:
        """Register ``callback(self)``; fired immediately if already done."""
        if self.done:
            callback(self)
        else:
            self._callbacks.append(callback)

    def on_fail(self, callback: Callable[["Waitable"], None]) -> None:
        """Register ``callback(self)`` for the FAILED transition."""
        if self.failed:
            callback(self)
        elif self._fail_callbacks is None:
            self._fail_callbacks = [callback]
        else:
            self._fail_callbacks.append(callback)

    def _fire(self) -> None:
        self.done = True
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)

    def _fire_failure(self, reason: str) -> None:
        self.failed = True
        self.failure = reason
        self._callbacks = []  # completion callbacks must never run now
        callbacks, self._fail_callbacks = self._fail_callbacks, None
        for callback in callbacks or ():
            callback(self)


class Activity(Waitable):
    """A kernel-managed unit of simulated work.

    Lifecycle: built, handed to :meth:`Engine.start_activity`, advanced by
    the lazy fluid loop, completed (``done=True``, waiters woken).
    """

    __slots__ = ("name", "start_time", "finish_time",
                 "constraints", "bound", "remaining", "rate",
                 "settled_at", "epoch", "registered")

    def __init__(self, name: str = "") -> None:
        super().__init__()
        self.name = name
        self.start_time: Optional[float] = None
        self.finish_time: Optional[float] = None
        # Sharing state (meaningful once the activity is in its
        # resource-consuming phase).
        self.constraints: Tuple[Constraint, ...] = ()
        self.bound: Optional[float] = None
        self.remaining = 0.0
        self.rate = 0.0
        self.settled_at = 0.0
        self.epoch = 0
        self.registered = False  # constraints' user sets include self

    # -- hooks the engine calls ----------------------------------------
    def begin(self, now: float) -> str:
        """Enter the first phase.  Returns the phase kind:
        ``"timer"`` (fixed end: ``remaining`` holds the delay),
        ``"sharing"`` (consumes constraints), or ``"done"``."""
        raise NotImplementedError

    def on_phase_end(self, now: float) -> str:
        """A heap event fired with a valid epoch: the current phase ended.
        Returns the next phase kind (as in :meth:`begin`)."""
        return "done"


class ExecActivity(Activity):
    """``amount`` flops on a CPU constraint (shared max-min)."""

    __slots__ = ()

    def __init__(
        self,
        constraint: Constraint,
        amount: float,
        bound: Optional[float] = None,
        name: str = "",
    ) -> None:
        super().__init__(name)
        if amount < 0:
            raise ValueError(f"compute amount must be >= 0, got {amount}")
        if bound is not None and bound < 0:
            raise ValueError(f"rate bound must be >= 0, got {bound}")
        self.constraints = (constraint,)
        self.bound = bound
        self.remaining = float(amount)

    def begin(self, now: float) -> str:
        if self.remaining <= 0.0:
            return "done"
        return "sharing"


class CommActivity(Activity):
    """A data flow: latency phase, then bandwidth-shared data phase.

    ``links`` are the constraints crossed by the flow.  ``size`` is the
    payload in bytes; ``rate_factor`` (from the piece-wise-linear MPI
    model) scales the achieved bandwidth — implemented by inflating the
    transferred amount to ``size / rate_factor`` — and ``latency`` is the
    already-scaled route latency.  ``bound`` caps the flow's bandwidth.
    """

    __slots__ = ("size", "latency", "rate_factor", "_in_latency")

    def __init__(
        self,
        links: Sequence[Constraint],
        size: float,
        latency: float,
        rate_factor: float = 1.0,
        bound: Optional[float] = None,
        name: str = "",
    ) -> None:
        super().__init__(name)
        if size < 0:
            raise ValueError(f"message size must be >= 0, got {size}")
        if rate_factor <= 0:
            raise ValueError(f"rate factor must be > 0, got {rate_factor}")
        if latency < 0:
            raise ValueError(f"latency must be >= 0, got {latency}")
        shared = []
        cap = bound
        for link in links:
            if link.fatpipe:
                if cap is None or link.capacity < cap:
                    cap = link.capacity
            else:
                shared.append(link)
        self.constraints = tuple(shared)
        self.bound = cap
        self.size = float(size)
        self.latency = float(latency)
        self.rate_factor = float(rate_factor)
        self._in_latency = False

    def begin(self, now: float) -> str:
        if self.latency > 0.0:
            self._in_latency = True
            self.remaining = self.latency  # seconds, timer semantics
            return "timer"
        return self._begin_data()

    def on_phase_end(self, now: float) -> str:
        if self._in_latency:
            self._in_latency = False
            return self._begin_data()
        return "done"

    def _begin_data(self) -> str:
        if self.size <= 0.0:
            return "done"
        self.remaining = self.size / self.rate_factor
        return "sharing"


class Timer(Activity):
    """A pure simulated-time delay."""

    __slots__ = ()

    def __init__(self, duration: float, name: str = "") -> None:
        super().__init__(name)
        if duration < 0:
            raise ValueError(f"timer duration must be >= 0, got {duration}")
        self.remaining = float(duration)

    def begin(self, now: float) -> str:
        if self.remaining <= 0.0:
            return "done"
        return "timer"
