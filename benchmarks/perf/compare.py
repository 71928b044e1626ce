"""Compare two sets of benchmark reports: ``compare.py a b``.

``a`` (the base) and ``b`` are report files written by ``run.py --out``
or directories of them (``--out-dir``, searched recursively); a set may
hold many runs (seeds) of each workload.  One row per (end-to-end
metric, workload): both medians and quartiles, the relative delta with
its base, the bound from BENCHMARK.json, and a verdict:

* ``ok`` — b's median is not worse than a's by more than the bound;
* ``regressed`` — it is;
* ``unresolved`` — the spread between a side's own runs is wider than
  the bound, so the comparison cannot tell (unless every run of b reads
  better than every run of a, which is ``ok``).

With more than one run on a side a sample is a run's median; with one
run, its reps.  Walls are compared as reported, at the reference host's
pace (``ref_s``); under each such row a ``raw s`` row gives the same
comparison in the seconds the clock read, without a verdict.  Traced
reports add, per workload, the per-layer metric that moved most.  Exit
status 1 if any row regressed, 2 if none did but some are unresolved.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
#: The two absolute gates: any value above the limit is a regression.
ABSOLUTE = {"makespan_rel_err": 1e-9, "failed_share": 0.0}


def load_reports(path: str) -> List[dict]:
    paths = []
    if os.path.isdir(path):
        for folder, _dirs, files in sorted(os.walk(path)):
            paths += [os.path.join(folder, name) for name in sorted(files)
                      if name.endswith(".json")]
    else:
        paths.append(path)
    reports = []
    for name in paths:
        with open(name, encoding="utf-8") as handle:
            document = json.load(handle)
        if isinstance(document, dict) and document.get("schema") == 2:
            reports.append(document)
    if not reports:
        raise SystemExit(f"compare: no benchmark reports under {path}")
    return reports


def end_to_end_samples(reports: List[dict], raw: bool = False
                       ) -> Dict[Tuple[str, str], List[float]]:
    """(workload, metric) -> samples, from the untraced reports; with
    ``raw`` the unscaled seconds of the metrics that are scaled."""
    runs: Dict[Tuple[str, str], List[List[float]]] = {}
    for report in reports:
        if report["traced"]:
            continue
        for metric, row in report["end_to_end"].items():
            if raw and "raw" not in row:
                continue
            runs.setdefault((report["workload"], metric), []).append(
                row["raw"] if raw else row["samples"])
        for metric in () if raw else ABSOLUTE:
            runs.setdefault((report["workload"], metric), []).append(
                [report[metric]])
    return {key: ([statistics.median(reps) for reps in rows]
                  if len(rows) > 1 else list(rows[0]))
            for key, rows in runs.items()}


def quartiles(samples: List[float]) -> Tuple[float, float, float]:
    if len(samples) < 2:
        return samples[0], samples[0], samples[0]
    q1, q2, q3 = statistics.quantiles(samples, n=4)
    return q1, q2, q3


def verdict(a: List[float], b: List[float],
            bound: float) -> Tuple[str, float, float]:
    """``(verdict, delta, spread)``, both relative to a's median.  All
    end-to-end metrics are lower-is-better; the spread is the wider of
    the two sides' interquartile ranges."""
    base = statistics.median(a)
    delta = (statistics.median(b) - base) / base if base else 0.0
    qa, qb = quartiles(a), quartiles(b)
    spread = max(qa[2] - qa[0], qb[2] - qb[0]) / base if base else 0.0
    if spread > bound and not max(b) < min(a):
        return "unresolved", delta, spread
    return ("regressed" if delta > bound else "ok"), delta, spread


def layer_movers(a: List[dict], b: List[dict]) -> List[str]:
    """Per workload, the per-layer metric whose median moved most."""
    def medians(reports):
        values: Dict[Tuple[str, str], List[float]] = {}
        for report in reports:
            for metric, row in report.get("per_layer", {}).items():
                values.setdefault((report["workload"], metric),
                                  []).append(row["value"])
        return {key: statistics.median(v) for key, v in values.items()}

    before, after = medians(a), medians(b)
    best: Dict[str, Tuple[float, str, float, float]] = {}
    for (workload, metric), base in before.items():
        # Overhead shares are differences of two walls, near zero: their
        # relative change is noise, never the layer that moved.
        if (not base or (workload, metric) not in after
                or metric.endswith("overhead_share")):
            continue
        delta = (after[workload, metric] - base) / abs(base)
        if abs(delta) > abs(best.get(workload, (0.0,))[0]):
            best[workload] = (delta, metric, base, after[workload, metric])
    return [f"{workload}: {metric} moved most, {delta:+.1%} of "
            f"{base:.6g} -> {value:.6g}"
            for workload, (delta, metric, base, value)
            in sorted(best.items())]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        raise SystemExit(__doc__)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    reports_a, reports_b = load_reports(argv[0]), load_reports(argv[1])
    a, b = end_to_end_samples(reports_a), end_to_end_samples(reports_b)
    raw_a = end_to_end_samples(reports_a, raw=True)
    raw_b = end_to_end_samples(reports_b, raw=True)
    print(f"{'workload':<22} {'metric':<20} {'a median [q1, q3] n':>32} "
          f"{'b median [q1, q3] n':>32} {'delta/a':>8} {'spread':>7} "
          f"{'bound':>6}  verdict")
    counts = {"ok": 0, "regressed": 0, "unresolved": 0}
    for key in sorted(set(a) & set(b)):
        workload, metric = key
        qa, qb = quartiles(a[key]), quartiles(b[key])
        if metric in ABSOLUTE:
            bound = ABSOLUTE[metric]
            outcome = "regressed" if max(b[key]) > bound else "ok"
            delta = max(b[key]) - max(a[key])
            shown = f"{delta:>+8.1e} {'':>7} {bound:>6.0e}"
        else:
            bound = bounds.get(metric, 0.25)
            outcome, delta, spread = verdict(a[key], b[key], bound)
            shown = f"{delta:>+8.1%} {spread:>7.1%} {bound:>6.0%}"
        counts[outcome] += 1

        def cell(q, n):
            return f"{q[1]:>10.4g} [{q[0]:.4g}, {q[2]:.4g}] {n}"

        print(f"{workload:<22} {metric:<20} "
              f"{cell(qa, len(a[key])):>32} {cell(qb, len(b[key])):>32} "
              f"{shown}  {outcome}")
        if key in raw_a and key in raw_b:
            ra, rb = raw_a[key], raw_b[key]
            _, delta, spread = verdict(ra, rb, bound)
            print(f"{'':<22} {'  raw s':<20} "
                  f"{cell(quartiles(ra), len(ra)):>32} "
                  f"{cell(quartiles(rb), len(rb)):>32} "
                  f"{delta:>+8.1%} {spread:>7.1%}")
    for line in layer_movers(reports_a, reports_b):
        print(line)
    print(f"{counts['ok']} ok, {counts['regressed']} regressed, "
          f"{counts['unresolved']} unresolved")
    return 1 if counts["regressed"] else 2 if counts["unresolved"] else 0


if __name__ == "__main__":
    sys.exit(main())
