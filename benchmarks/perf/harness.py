"""Timer policy, summary statistics, spans and the host fingerprint.

One policy for every timing in the benchmark: ``time.perf_counter``
wall clock, ``gc.collect()`` then the collector disabled around each
rep, one untimed warm-up rep, then closed-loop reps (the next one is
issued when the previous one completed) until the phase's share of the
``--seconds`` budget is spent.  Each phase reports median, quartiles
and ``n`` — no tail percentile, because fewer than ten samples lie
beyond any.

End-to-end walls are reported *at the pace of a reference host* (unit
``ref_s``, not seconds): a fixed calibration kernel (:func:`host_pace`)
runs between reps, and each rep's wall is scaled by ``PACE_REFERENCE_S``
over the median of the four kernel times nearest it.  The sandbox this was
written on speeds up and slows down by a quarter over tens of minutes,
for every workload alike; the scaling takes most of that out.  The raw
walls and the measured pace are kept in every report, and ``compare.py``
shows the raw seconds under every scaled row.
"""

from __future__ import annotations

import gc
import json
import os
import platform as host_platform
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = [
    "MIN_REPS", "PACE_REFERENCE_S", "PACE_SHARE", "host_pace", "Pacer",
    "timed",
    "run_reps", "new_outcome", "summarize", "SpanRecorder",
    "host_fingerprint", "git_sha", "REPO_ROOT",
]

#: Every timed phase takes at least this many reps, whatever the budget
#: (quartiles of fewer than three samples are the samples themselves).
MIN_REPS = 3

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def timed(fn: Callable[[], Any], sync: bool = False) -> Tuple[float, Any]:
    """One rep: wall seconds of ``fn()`` with the collector parked.
    ``sync`` first flushes the file system, for reps made of many small
    file operations: on this sandbox's ext4 those get several times
    slower while earlier dirty pages are still waiting for the disk.
    (Not for reps that delete what an earlier rep wrote: unlinking
    files that reached the disk costs milliseconds each.)"""
    gc.collect()
    if sync:
        os.sync()
    gc.disable()
    try:
        start = time.perf_counter()
        value = fn()
        return time.perf_counter() - start, value
    finally:
        gc.enable()


#: The calibration kernel's time on the reference host: what reported
#: walls are scaled to.  (About what it takes on the sandbox this was
#: written on, so scaled and raw walls are of one size there.)
PACE_REFERENCE_S = 0.1
#: Kernel time after a rep, as a share of the rep's wall (at least one
#: kernel run).
PACE_SHARE = 0.08


def host_pace() -> float:
    """Seconds the fixed calibration kernel takes right now: interpreter
    work on floats and a dict with a small NumPy call now and then, the
    instruction mix of the replay kernel.  It touches no ``repro`` code,
    so no change to the program can move it."""
    import numpy

    def kernel() -> float:
        total, table = 0.0, {}
        array = numpy.arange(256, dtype=float)
        for i in range(600_000):
            table[i & 1023] = total
            total += (i * 0.5) % 7.0
            if not i & 63:
                total += float(numpy.minimum(array, total).sum())
        return total

    return timed(kernel)[0]


class Pacer:
    """Scales raw walls to the reference host's pace.  The kernel runs
    once before the first rep and after every rep — again and again
    until it has taken ``PACE_SHARE`` of that rep's wall, the median
    kept, so that a long rep is not scaled by a 0.1 s glimpse of the
    host.  A rep's pace is the median of the four such times nearest it
    (two before, two after, fewer at either end of the run), which one
    disturbed kernel run cannot move."""

    def __init__(self) -> None:
        self.paces = [host_pace()]

    def new_walls(self) -> Dict[str, list]:
        """An empty sample set of one metric: ``raw`` seconds, the
        kernel run ``before`` each rep (an index into the shared
        ``pace`` list), and the ``scaled`` walls :meth:`finish` adds."""
        return {"scaled": [], "raw": [], "before": [], "pace": self.paces}

    def add(self, walls: Dict[str, list], wall: float) -> None:
        """Record the rep that just ended, then run the kernel."""
        walls["raw"].append(wall)
        walls["before"].append(len(self.paces) - 1)
        kernels = [host_pace()]
        while sum(kernels) < PACE_SHARE * wall:
            kernels.append(host_pace())
        self.paces.append(statistics.median(kernels))

    def finish(self, walls: Dict[str, list]) -> Dict[str, list]:
        """Fill in the scaled walls, once every kernel time is known."""
        for wall, index in zip(walls["raw"], walls["before"]):
            near = self.paces[max(0, index - 1):index + 3]
            walls["scaled"].append(
                wall * PACE_REFERENCE_S / statistics.median(near))
        return walls


def run_reps(fn: Callable[[], Any], budget_s: float, quick: bool,
             prepare: Optional[Callable[[], None]] = None
             ) -> Tuple[Dict[str, list], List[Any]]:
    """Closed-loop reps of ``fn`` until ``budget_s`` of wall clock is
    spent (never starting a rep the running mean says would overrun),
    and at least ``MIN_REPS`` (two in a ``quick`` pass).  ``prepare``
    runs untimed before each rep (e.g. deleting sidecars for a cold
    rep).  Returns the walls — see :meth:`Pacer.new_walls` — and what
    each rep returned."""
    at_least = 2 if quick else MIN_REPS
    pacer = Pacer()
    walls = pacer.new_walls()
    values: List[Any] = []
    phase_start = time.perf_counter()
    while True:
        if prepare is not None:
            prepare()
        wall, value = timed(fn)
        pacer.add(walls, wall)
        values.append(value)
        spent = time.perf_counter() - phase_start
        if len(values) >= at_least and \
                spent + spent / len(values) > budget_s:
            return pacer.finish(walls), values


def new_outcome() -> Dict[str, Any]:
    """What a measurement or traced run hands back to ``run.py``:
    per-metric samples, operations attempted and failed (with the
    reasons), and the worst disagreement with the reference times."""
    return {"samples": {}, "attempted": 0, "failed": 0, "failures": [],
            "makespan_rel_err": 0.0}


def summarize(samples) -> Dict[str, Any]:
    """Median, quartiles and n of one metric's samples: a list, or the
    walls of a :class:`Pacer` (the scaled ones are the metric; raw
    walls and paces are kept beside them)."""
    if isinstance(samples, dict):
        return dict(summarize(samples["scaled"]),
                    **{key: samples[key] for key in samples
                       if key != "scaled"})
    if len(samples) >= 2:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = samples[0]
    return {"median": statistics.median(samples), "q1": q1, "q3": q3,
            "min": min(samples), "n": len(samples),
            "samples": list(samples)}


class SpanRecorder:
    """In-memory spans recorded from the benchmark's side of each layer
    boundary: ``[name, start, end, parent, trace_id]`` with ``parent``
    the index of the enclosing span (-1: a root) and one ``trace_id``
    per replay or job.  A layer's self time is its spans' duration
    minus the part their child spans cover."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.trace_id = 0

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` recorded as a span named ``name`` on every call."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1,
                      self.trace_id]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def span(self, name: str):
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                  self.trace_id]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        try:
            yield record
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def summary(self, first: int = 0) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total seconds and self seconds, over
        the spans recorded from index ``first`` on."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _trace in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: Dict[str, Dict[str, float]] = {}
        for index, (name, start, end, _parent, _trace) in \
                enumerate(self.spans):
            if index < first:
                continue
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                        "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[index]
        return out

    def dump(self, path: str) -> None:
        """One JSON line per span (written once, when the run ends)."""
        with open(path, "w", encoding="ascii") as handle:
            for index, (name, start, end, parent, trace) in \
                    enumerate(self.spans):
                handle.write(json.dumps(
                    {"id": index, "name": name, "start": start, "end": end,
                     "parent": parent, "trace": trace}) + "\n")


def git_sha() -> str:
    """HEAD of the checkout, or ``unknown`` outside a git repository."""
    if not os.path.exists(os.path.join(REPO_ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, text=True,
            capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def host_fingerprint() -> Dict[str, Any]:
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "machine": host_platform.machine(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }
