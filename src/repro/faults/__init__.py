"""Deterministic fault injection for the simulation pipeline.

The subsystem in one sentence: a :class:`FaultPlan` (JSON-loadable
schedule of host crashes, link outages, and link degradations) is
executed by a :class:`FaultInjector` daemon inside the simulation
kernel; :func:`run_with_faults`, the one driver both MPI layers run
their ranks through, turns the resulting activity failures into
:class:`RankFailure` records and a structured :class:`FaultReport`
(failure provenance, casualties, lost progress), with an analytic
coordinated checkpoint/restart model as the alternative to aborting at
the first rank death.  :mod:`repro.faults.chaos` generates seeded random
plans and corrupted inputs for the chaos test-suite.
"""

from .chaos import corrupt_bytes, corrupt_trace_dir, random_fault_plan
from .checkpoint import CheckpointOutcome, simulate_checkpoint_restart
from .injector import FaultInjector, run_with_faults
from .plan import (
    CheckpointModel, FaultEvent, FaultPlan, HostCrash, LinkDegrade,
    LinkDown, load_fault_plan,
)
from .report import FaultReport, RankFailure, build_fault_report

__all__ = [
    "CheckpointModel", "CheckpointOutcome", "FaultEvent", "FaultInjector",
    "FaultPlan", "FaultReport", "HostCrash", "LinkDegrade", "LinkDown",
    "RankFailure", "build_fault_report", "corrupt_bytes",
    "corrupt_trace_dir", "load_fault_plan", "random_fault_plan",
    "run_with_faults", "simulate_checkpoint_restart",
]
