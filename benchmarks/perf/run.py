"""The repo benchmark: one command, every metric by name and unit.

::

    python -m benchmarks.perf.run --workload lu2d-fatpipe-1024 --seed 7
    python -m benchmarks.perf.run --workload moe-congested-64 --seed 7 --traced
    python -m benchmarks.perf.run --all --seed 7 --out-dir runs/a

By default the end-to-end metrics are measured with tracing off;
``--traced`` (the driver spells it ``--trace 1``) is the separate traced
run that yields the per-layer metrics.  The last line of standard output
is the driver's contract: one JSON object ``{"correct", "attempted",
"failed", "metrics"}`` holding every metric BENCHMARK.json lists for
that kind of run.

This process only orchestrates.  Each workload is set up and measured
in fresh subprocesses of this same file (``--stage``): ``SETUPS - 1``
children that only set up (imports, input generation, platform build,
server/worker spawn) and exit, then the measuring child, which sets up
once more.  ``setup_s`` is the median over all of them.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

_T0 = time.perf_counter()      # set-up is timed from interpreter start

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
HERE = os.path.dirname(os.path.abspath(__file__))
WORK_ROOT = os.path.join(ROOT, ".bench_work")
#: Wall-clock allowance of one workload's run, set-ups included.
RUN_TIMEOUT_S = 170.0
#: Set-ups per run (one in a ``--quick`` pass).
SETUPS = 3
#: The issue's two absolute gates: printed and written by name in every
#: run, listed in BENCHMARK.json under ``per_layer`` (they read 0, which
#: the driver does not take from an end-to-end metric).
GATES = ("makespan_rel_err", "failed_share")
#: What the last line reads for a per-layer metric the run did not
#: measure (the report's ``absent`` says why): no time, count or share
#: is ever negative one, and a layer that did no work reads 0.
NOT_MEASURED = -1
NOT_EXERCISED = "layer not exercised by this workload"

#: Workload kind -> the module that sets it up and measures it.
BENCH_MODULES = {"replay": "replay_bench", "acquire": "acquire_bench",
                 "service": "service_bench"}
#: The end-to-end wall a workload's last line repeats under the names
#: of operations it does not perform (the driver wants every metric
#: from every workload; the report lists them under ``repeats``).
HEADLINE = {"replay": "replay_wall_s", "acquire": "replay_wall_s",
            "service": "campaign_wall_s"}


def unit_of(metric: str) -> str:
    """A metric's unit, from its name."""
    leaf = metric.rsplit(".", 1)[-1]
    if metric.endswith("_wall_s") and "." not in metric:
        return "ref_s"      # scaled to the reference host's pace
    if leaf.endswith("mb_per_s"):
        return "MB/s"
    if leaf.endswith("_per_s"):
        return "1/s"
    if "_ms" in leaf:
        return "ms"
    if leaf.endswith("_us") or leaf.startswith("us_per_"):
        return "us"
    if leaf.endswith("_s"):
        return "s"
    if leaf.endswith("_mib"):
        return "MiB"
    if leaf.endswith("bytes"):
        return "B"
    if leaf.endswith(("share", "_rate", "_err")):
        return "ratio"
    return "count"


def _bootstrap_path() -> None:
    for path in (ROOT, os.path.join(ROOT, "src")):
        if path not in sys.path:
            sys.path.insert(0, path)


def load_manifest() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# Child side: one fresh process per set-up / measurement
# ----------------------------------------------------------------------
def stage_main(args) -> int:
    import importlib

    from benchmarks.perf import workloads
    from benchmarks.perf.harness import SpanRecorder, host_pace

    os.makedirs(args.workdir, exist_ok=True)
    entry = workloads.WORKLOADS[args.workload]
    bench = importlib.import_module(
        "benchmarks.perf." + BENCH_MODULES[entry["kind"]])
    ctx = bench.setup(args.workload, args.seed, args.quick, args.workdir)
    teardown = ctx.get("teardown", lambda: None)
    result = {"setup_s": time.perf_counter() - _T0, "config": ctx["config"],
              "setup_pace": host_pace()}
    try:
        if args.stage == "measure":
            golden = None
            if args.seed == workloads.DEFAULT_SEED and not args.quick:
                golden = load_golden().get(args.workload)
            if args.trace:
                recorder = SpanRecorder()
                result.update(bench.trace(ctx, recorder, golden))
                result["spans"] = recorder.summary()
                if args.spans:
                    recorder.dump(args.spans)
            else:
                result.update(bench.measure(ctx, args.seconds, golden))
        elif args.stage == "golden":
            result["golden"] = bench.golden_record(ctx)
    finally:
        teardown()
    peak_kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result["peak_rss_mib"] = peak_kib / 1024.0
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


def load_golden() -> dict:
    with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as handle:
        return json.load(handle)["workloads"]


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
def _run_child(stage: str, args, workdir: str, deadline: float,
               extra=()) -> dict:
    """Run one stage in a fresh interpreter (its own process group, so
    anything it leaves behind can be reaped) and return its result."""
    os.makedirs(os.path.join(workdir, "tmp"), exist_ok=True)
    result_path = os.path.join(workdir, "result.json")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), ROOT]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["TMPDIR"] = os.path.join(workdir, "tmp")
    command = [sys.executable, os.path.abspath(__file__),
               "--stage", stage, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(int(args.trace)),
               "--workdir", workdir, "--result", result_path]
    command += ["--quick"] if args.quick else []
    command += list(extra)
    proc = subprocess.Popen(command, env=env, cwd=ROOT,
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        _, stderr = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        stderr = "timed out"
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        proc.wait()
    try:
        if proc.returncode != 0 or not os.path.exists(result_path):
            raise RuntimeError(
                f"{stage} stage of {args.workload} failed "
                f"(exit {proc.returncode}):\n{stderr.strip()[-2000:]}")
        with open(result_path, encoding="utf-8") as handle:
            return json.load(handle)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_workload(args, manifest: dict) -> dict:
    """Set up ``SETUPS`` times, measure once, and assemble the report
    document of one workload."""
    from benchmarks.perf import harness, workloads

    entry = workloads.WORKLOADS[args.workload]
    workdir = os.path.join(
        WORK_ROOT, f"{args.workload}-s{args.seed}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    extra = []
    if args.trace and args.out_dir:
        extra = ["--spans", os.path.join(
            os.path.abspath(args.out_dir),
            f"{args.workload}-s{args.seed}-spans.jsonl")]
    try:
        setups = [
            _run_child("setup", args, os.path.join(workdir, f"setup{i}"),
                       deadline)
            for i in range((1 if args.quick else SETUPS) - 1)]
        measured = _run_child("measure", args,
                              os.path.join(workdir, "measure"), deadline,
                              extra)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)     # unless another run is using it
        except OSError:
            pass

    samples = dict(measured.get("samples", {}))
    stages = setups + [measured]
    samples["setup_s"] = {
        "raw": [s["setup_s"] for s in stages],
        "pace": [s["setup_pace"] for s in stages],
        "scaled": [s["setup_s"] * harness.PACE_REFERENCE_S / s["setup_pace"]
                   for s in stages]}
    samples["peak_rss_mib"] = [measured["peak_rss_mib"]]
    unexplained = []
    report = {
        "schema": 2,
        "workload": args.workload,
        "why": entry["why"],
        "seed": args.seed,
        "seconds": args.seconds,
        "quick": args.quick,
        "traced": bool(args.trace),
        "git_sha": harness.git_sha(),
        "host": harness.host_fingerprint(),
        "config": measured["config"],
        "timer": "perf_counter wall, gc off per rep, 1 untimed warm-up "
                 "rep, closed loop; walls (ref_s) and setup_s scaled to a "
                 "host where the calibration kernel takes "
                 f"{harness.PACE_REFERENCE_S} s, raw seconds kept beside",
        "end_to_end": {name: dict(harness.summarize(values),
                                  unit=unit_of(name))
                       for name, values in samples.items()},
        "makespan_rel_err": measured["makespan_rel_err"],
    }
    if args.trace:
        layers = dict(measured["layers"])
        absent = dict(measured["absent"])
        family = workloads.LAYERS[entry["kind"]]
        for spec in manifest["per_layer"]:
            name = spec["name"]
            if name in layers or name in absent or name in GATES:
                continue
            if name.split(".")[0] not in family:
                absent[name] = NOT_EXERCISED
            elif not measured["failed"]:
                unexplained.append(
                    f"{name} was not measured and no reason was recorded")
        report["per_layer"] = {
            name: {"value": value, "unit": unit_of(name)}
            for name, value in sorted(layers.items())}
        report["absent"] = absent
        report["spans"] = measured.get("spans", {})
    else:
        # What the last line carries under the names of operations this
        # workload does not perform.
        headline = HEADLINE[entry["kind"]]
        report["repeats"] = {
            spec["name"]: headline for spec in manifest["end_to_end"]
            if spec["name"] not in report["end_to_end"]}
    report["failed"] = measured["failed"] + len(unexplained)
    report["attempted"] = max(1, measured["attempted"] + len(unexplained))
    report["failed_share"] = report["failed"] / report["attempted"]
    report["failures"] = measured["failures"] + unexplained
    report["correct"] = (report["failed"] == 0
                         and report["makespan_rel_err"] <= 1e-9)
    if args.trace:
        for name in GATES:
            report["per_layer"][name] = {"value": report[name],
                                         "unit": unit_of(name)}
    return report


def contract_line(report: dict, manifest: dict) -> str:
    """The driver's last line: every metric BENCHMARK.json lists for
    this kind of run, from every workload.  An end-to-end metric whose
    operation the workload does not perform repeats the workload's
    headline wall (``report["repeats"]``); a per-layer metric the run
    did not measure (``report["absent"]`` says why) reads
    ``NOT_MEASURED``."""
    metrics = {}
    if report["traced"]:
        for spec in manifest["per_layer"]:
            row = report["per_layer"].get(spec["name"])
            metrics[spec["name"]] = {
                "value": row["value"] if row else NOT_MEASURED,
                "unit": spec["unit"]}
    else:
        for spec in manifest["end_to_end"]:
            name = report["repeats"].get(spec["name"], spec["name"])
            metrics[spec["name"]] = {
                "value": report["end_to_end"][name]["median"],
                "unit": spec["unit"]}
    return json.dumps({"correct": report["correct"],
                       "attempted": report["attempted"],
                       "failed": report["failed"], "metrics": metrics})


def print_report(report: dict) -> None:
    print(f"== {report['workload']}  seed {report['seed']}"
          f"{'  quick' if report['quick'] else ''}"
          f"{'  traced' if report['traced'] else ''}"
          f"  git {report['git_sha'][:12]}")
    print(f"   {report['why']}")
    host = report["host"]
    print(f"   host: {host['nproc']} x {host['cpu_model']}, python "
          f"{host['python']}, numpy {host['numpy']}")
    print(f"   {'metric':<34} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'n':>3}  unit")
    for name, row in report["end_to_end"].items():
        raw = (f"   (raw median {statistics.median(row['raw']):.4f} s, "
               f"host pace {statistics.median(row['pace']):.4f} s)"
               if "raw" in row else "")
        print(f"   {name:<34} {row['median']:>12.4f} {row['q1']:>12.4f} "
              f"{row['q3']:>12.4f} {row['n']:>3}  {row['unit']}{raw}")
    for name, headline in report.get("repeats", {}).items():
        print(f"   {name:<34} {'-':>12}  not performed by this workload "
              f"(the last line repeats {headline})")
    print(f"   {'makespan_rel_err':<34} {report['makespan_rel_err']:>12.3e}"
          f"{'':>30}ratio   (must stay <= 1e-9)")
    print(f"   {'failed_share':<34} {report['failed_share']:>12.4f}"
          f"{'':>30}ratio   ({report['failed']} of "
          f"{report['attempted']}; must stay 0)")
    for name, row in report.get("per_layer", {}).items():
        if name in GATES:
            continue
        value = row["value"]
        shown = f"{value:>12d}" if isinstance(value, int) \
            else f"{value:>12.6g}"
        print(f"   {name:<34} {shown}{'':>30}{row['unit']}")
    bypassed = set()
    for name, reason in report.get("absent", {}).items():
        if reason == NOT_EXERCISED:
            bypassed.add(name.split(".")[0] + ".*")
        else:
            print(f"   {name:<34} {'absent':>12}  {reason}")
    if bypassed:
        print(f"   absent, {NOT_EXERCISED}: {' '.join(sorted(bypassed))}")
    for failure in report["failures"]:
        print(f"   FAILURE: {failure}")


def regen_golden(args) -> int:
    """Regenerate golden.json at the default seed with the most
    conservative configuration the replayer accepts (slow: the pure
    Python solver at 1024 ranks)."""
    from benchmarks.perf import harness, workloads

    args.seed, args.quick, args.trace = workloads.DEFAULT_SEED, False, 0
    document = {"seed": args.seed, "git_sha": harness.git_sha(),
                "workloads": {}}
    for name in workloads.WORKLOADS:
        args.workload = name
        workdir = os.path.join(WORK_ROOT, f"golden-{name}-{os.getpid()}")
        document["workloads"][name] = _run_child(
            "golden", args, workdir, time.monotonic() + 3600.0)["golden"]
        print(f"golden: {name}", flush=True)
    with open(os.path.join(HERE, "golden.json"), "w",
              encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks.perf.run", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true",
                        help="run every workload, one after the other")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring budget of one run (default: "
                             "BENCHMARK.json's run_seconds)")
    parser.add_argument("--traced", dest="trace", action="store_const",
                        const=1, default=0,
                        help="the traced run: per-layer metrics")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="the driver's spelling: --trace 1 is --traced")
    parser.add_argument("--quick", action="store_true",
                        help="small twins, two reps: the harness self-test")
    parser.add_argument("--out-dir",
                        help="write <workload>-s<seed>[-traced].json (and "
                             "a traced run's raw spans) here")
    parser.add_argument("--regen-golden", action="store_true")
    parser.add_argument("--stage", choices=("setup", "measure", "golden"),
                        help=argparse.SUPPRESS)
    for protocol in ("--workdir", "--result", "--spans"):
        parser.add_argument(protocol, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _bootstrap_path()
    if args.stage:
        return stage_main(args)

    # A terminated run still reaps its children and removes its files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        sys.exit(f"benchmarks/perf measures the repro package, but "
                 f"{os.path.join(ROOT, 'src', 'repro')} does not exist")
    manifest = load_manifest()
    if args.seconds is None:
        # --quick: exactly the minimum two reps of every phase.
        args.seconds = 0.0 if args.quick else float(manifest["run_seconds"])
    if args.regen_golden:
        return regen_golden(args)
    names = [w["name"] for w in manifest["workloads"]]
    if args.all:
        todo = names
    elif args.workload in names:
        todo = [args.workload]
    else:
        parser.error(f"--workload must be one of {names} (or --all)")
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
    status = 0
    for name in todo:
        args.workload = name
        report = run_workload(args, manifest)
        print_report(report)
        if args.out_dir:
            out = os.path.join(
                args.out_dir, f"{name}-s{args.seed}"
                f"{'-traced' if args.trace else ''}.json")
            with open(out, "w", encoding="utf-8") as handle:
                json.dump(report, handle, indent=1, sort_keys=True)
                handle.write("\n")
        status |= 0 if report["correct"] else 1
        print(contract_line(report, manifest), flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
