"""Command-line tools mirroring the paper's workflow.

* ``repro-acquire`` — run an instrumented application under an
  acquisition mode and produce time-independent traces (§4).
* ``repro-tau2ti`` — the tau2simgrid extractor on an existing TAU
  archive (§4.3).
* ``repro-calibrate`` — flop-rate + network calibration; can write a
  calibrated SimGrid platform file (§5).
* ``repro-replay`` — the trace replay tool: platform XML + deployment
  XML + traces in, simulated execution time out (§5, Fig. 4).
* ``repro-validate`` — static replayability check of a trace set.
* ``repro-stats`` — descriptive statistics of a trace (volumes, traffic
  matrix, message-size mix).
* ``repro-convert`` — text <-> binary trace conversion (§7 future work).
* ``repro-campaign`` — parallel experiment campaigns over the full
  pipeline with content-addressed result caching (lives in
  :mod:`repro.campaign.cli`).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .apps import (
    CgWorkload, LuWorkload, MgWorkload, StencilConfig, ring_program,
    stencil_program,
)
from .core.acquisition import AcquisitionMode, acquire
from .core.calibration import calibrate_flop_rate, calibrate_network
from .core.replay import TraceReplayer
from .extract import tau2simgrid
from .platforms import NAMED_PLATFORMS, named_platform
from .simkernel import (
    dump_platform,
    load_deployment,
    load_platform,
)
from .smpi import round_robin_deployment


def _build_platform(name: str, n_hosts: Optional[int], ground_truth: bool,
                    cores: int = 1, speed: Optional[float] = None):
    try:
        return named_platform(name, ground_truth, hosts=n_hosts,
                              cores=cores, speed=speed)
    except ValueError as exc:
        raise SystemExit(str(exc))


def _build_program(args):
    if args.app == "lu":
        return LuWorkload(args.lu_class, args.ranks).program
    if args.app == "cg":
        return CgWorkload(args.lu_class, args.ranks).program
    if args.app == "mg":
        return MgWorkload(args.lu_class, args.ranks).program
    if args.app == "ring":
        return ring_program
    if args.app == "stencil":
        config = StencilConfig(nx=args.stencil_size, ny=args.stencil_size,
                               iterations=args.stencil_iterations)
        return lambda mpi: stencil_program(mpi, config)
    raise SystemExit(f"unknown app {args.app!r}")


def _add_app_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--app", default="lu",
                        choices=["lu", "cg", "mg", "ring", "stencil"],
                        help="workload to run (default: lu)")
    parser.add_argument("--class", dest="lu_class", default="S",
                        help="NPB problem class for lu/cg/mg (default: S)")
    parser.add_argument("--ranks", type=int, default=4,
                        help="number of MPI ranks (default: 4)")
    parser.add_argument("--stencil-size", type=int, default=256)
    parser.add_argument("--stencil-iterations", type=int, default=100)
    parser.add_argument("--platform", default="bordereau",
                        choices=sorted(NAMED_PLATFORMS))
    parser.add_argument("--hosts", type=int, default=None,
                        help="number of hosts per cluster (default: full)")
    parser.add_argument("--cores", type=int, default=1,
                        help="cores per host (paper uses 1 for acquisition)")


def main_acquire(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-acquire",
        description="Acquire a time-independent trace (instrument, "
                    "execute, extract, gather).",
    )
    _add_app_options(parser)
    parser.add_argument("--mode", default="R",
                        help="acquisition mode: R, F-<x>, S-<y>, SF-(<u>,<v>)")
    parser.add_argument("--workdir", required=True,
                        help="directory for tau/ and ti/ outputs")
    parser.add_argument("--jitter", type=float, default=0.0,
                        help="hardware-counter jitter fraction (e.g. 0.005)")
    parser.add_argument("--skip-application-run", action="store_true",
                        help="skip the uninstrumented reference run")
    args = parser.parse_args(argv)

    platform = _build_platform(args.platform, args.hosts, ground_truth=True,
                               cores=args.cores)
    mode = AcquisitionMode.parse(args.mode)
    result = acquire(
        _build_program(args), platform, args.ranks, mode=mode,
        workdir=args.workdir, papi_jitter=args.jitter,
        measure_application=not args.skip_application_run,
    )
    print(f"mode:                {result.mode_label}")
    if result.application_time is not None:
        print(f"application time:    {result.application_time:.3f} s")
        print(f"tracing overhead:    {result.tracing_overhead:.3f} s")
    print(f"execution time:      {result.execution_time:.3f} s")
    print(f"timed trace size:    {result.tau_archive.mib:.2f} MiB "
          f"({result.tau_archive.n_records} records)")
    print(f"extraction:          {result.extraction.wall_seconds:.3f} s "
          f"({result.extraction.n_actions} actions)")
    print(f"TI trace size:       {result.extraction.mib:.2f} MiB")
    print(f"gathering:           {result.gather.time:.3f} s simulated "
          f"({result.gather.n_rounds} rounds)")
    print(f"traces in:           {result.trace_dir}")
    return 0


def main_tau2ti(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-tau2ti",
        description="Extract time-independent traces from a TAU archive.",
    )
    parser.add_argument("tau_dir", help="directory of tautrace.*/events.* files")
    parser.add_argument("n_ranks", type=int)
    parser.add_argument("out_dir", help="destination for SG_process*.trace")
    parser.add_argument("--processes", type=int, default=1,
                        help="extraction parallelism (tau2simgrid is a "
                             "parallel program)")
    args = parser.parse_args(argv)
    report = tau2simgrid(args.tau_dir, args.n_ranks, args.out_dir,
                         processes=args.processes)
    print(f"extracted {report.n_actions} actions "
          f"({report.mib:.2f} MiB) for {report.n_ranks} ranks "
          f"in {report.wall_seconds:.3f} s")
    return 0


def main_calibrate(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-calibrate",
        description="Calibrate flop rate (5-run weighted average) and the "
                    "piece-wise-linear network model.",
    )
    _add_app_options(parser)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--jitter", type=float, default=0.002)
    parser.add_argument("--output", default=None,
                        help="write a calibrated SimGrid platform XML here")
    args = parser.parse_args(argv)

    platform = _build_platform(args.platform, args.hosts, ground_truth=True,
                               cores=args.cores)
    deployment = round_robin_deployment(platform, args.ranks)
    flops = calibrate_flop_rate(platform, deployment, _build_program(args),
                                runs=args.runs, jitter=args.jitter)
    network = calibrate_network(platform, deployment[:2])
    print(f"flop rate:    {flops.rate:.4g} flop/s "
          f"(spread {100 * flops.spread:.2f}% over {args.runs} runs, "
          f"{flops.n_samples} bursts)")
    print(f"latency:      {network.latency:.4g} s  (1-byte ping-pong / 6)")
    print(f"bandwidth:    {network.bandwidth:.4g} B/s (nominal)")
    for seg in network.model.segments:
        upper = "inf" if seg.upper == float("inf") else f"{seg.upper:g}"
        print(f"  segment [{seg.lower:g}, {upper}): "
              f"lat x {seg.lat_factor:.3f}, bw x {seg.bw_factor:.3f}")
    if args.output:
        calibrated = _build_platform(args.platform, args.hosts,
                                     ground_truth=False, cores=args.cores,
                                     speed=flops.rate)
        dump_platform(calibrated, args.output)
        print(f"calibrated platform written to {args.output}")
    return 0


def main_convert(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-convert",
        description="Convert a directory of time-independent traces "
                    "between the text and binary representations "
                    "(the paper's §7 size-reduction future work).",
    )
    parser.add_argument("src_dir")
    parser.add_argument("dst_dir")
    parser.add_argument("--to", dest="target", required=True,
                        choices=["binary", "text"])
    args = parser.parse_args(argv)

    from .core.trace import (
        discover_trace_paths, is_rank_file, stream_trace_dir,
        write_rank_file,
    )

    try:
        if os.path.realpath(args.src_dir) == os.path.realpath(args.dst_dir):
            raise ValueError("source and destination are the same directory")
        if os.path.isdir(args.dst_dir) and any(
                map(is_rank_file, os.listdir(args.dst_dir))):
            raise ValueError(
                f"{args.dst_dir} already holds rank files; convert into "
                "an empty directory")
        in_bytes = sum(map(os.path.getsize,
                           discover_trace_paths(args.src_dir)))
        os.makedirs(args.dst_dir, exist_ok=True)
        streams = stream_trace_dir(args.src_dir)
        out_bytes = sum(
            write_rank_file(args.dst_dir, rank, stream,
                            args.target == "binary")[1]
            for rank, stream in enumerate(streams))
    except (OSError, ValueError) as exc:
        print(f"convert failed: {exc}", file=sys.stderr)
        return 2
    print(f"converted {len(streams)} ranks: {in_bytes:,} B -> "
          f"{out_bytes:,} B ({in_bytes / max(1, out_bytes):.2f}x)")
    return 0


def main_compile(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-compile",
        description="Compile time-independent traces into columnar op "
                    "programs cached in a .tic sidecar (one per trace "
                    "directory or merged file), so later replays skip "
                    "tokenization and dispatch entirely.",
    )
    parser.add_argument("trace", help="trace directory or merged trace file")
    parser.add_argument("--force", action="store_true",
                        help="recompile even when the .tic sidecar is fresh")
    args = parser.parse_args(argv)

    from .core.compile import compile_source, fuse_computes

    try:
        programs, report = compile_source(args.trace, force=args.force)
    except (OSError, ValueError) as exc:
        print(f"compile failed: {exc}", file=sys.stderr)
        return 2
    fusible = sum(p.n_src - fuse_computes(p).n_ops for p in programs)
    print(f"compiled {report.n_ranks} ranks: {report.n_src:,} actions -> "
          f"{report.n_ops:,} ops ({fusible:,} computes fusible) in "
          f"{report.wall_seconds:.2f} s")
    print(f"cache: {report.cache_hits} rank(s) hit, {report.cache_misses} "
          f"missed; {len(report.artifacts)} sidecar(s) written")
    for path in report.artifacts:
        print(f"  {path}")
    return 0


def main_import(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-import",
        description="Import a PyTorch/param comms trace (per-rank "
                    "rank<k>.json files, or one symmetric JSON file of "
                    "collectives) into a time-independent trace set.",
    )
    parser.add_argument("source",
                        help="directory of rank<k>.json files, or a single "
                             "JSON trace file")
    parser.add_argument("out_dir",
                        help="destination for SG_process*.trace files")
    parser.add_argument("--format", default="param-comms",
                        choices=["param-comms"],
                        help="source trace format (default: param-comms)")
    parser.add_argument("--world-size", type=int, default=None,
                        help="communicator size; required for single-file "
                             "sources, checked against per-rank sources")
    parser.add_argument("--skip-unsupported", action="store_true",
                        help="drop records the format cannot express "
                             "(counted in the report) instead of failing")
    parser.add_argument("--binary", action="store_true",
                        help="write .btrace files instead of text")
    parser.add_argument("--json", action="store_true",
                        help="print the import report as JSON")
    args = parser.parse_args(argv)

    from .importers import import_param_comms

    try:
        report = import_param_comms(
            args.source, args.out_dir,
            world_size=args.world_size,
            skip_unsupported=args.skip_unsupported,
            binary=args.binary,
        )
    except (OSError, ValueError) as exc:
        print(f"import failed: {exc}", file=sys.stderr)
        return 2
    if args.json:
        import json

        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    else:
        print(f"imported {report.n_ranks} ranks: {report.n_records:,} "
              f"records -> {report.n_actions:,} actions "
              f"({report.n_bytes:,} B) into {report.out_dir}")
        if report.n_skipped:
            ops = ", ".join(f"{op} x{n}" for op, n
                            in sorted(report.skipped_ops.items()))
            print(f"skipped {report.n_skipped} unsupported record(s): "
                  f"{ops}")
    return 0


def _read_trace(path: str):
    """A trace directory, in any layout, or a merged trace file."""
    from .core.trace import read_merged_trace, read_trace_dir

    if os.path.isdir(path):
        return read_trace_dir(path)
    return read_merged_trace(path)


def main_validate(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-validate",
        description="Statically check a time-independent trace for "
                    "replayability (matching, request balance, collective "
                    "agreement).",
    )
    parser.add_argument("trace", help="trace directory or merged file")
    parser.add_argument("--format", default="text", choices=["text", "json"],
                        help="report format (default: text)")
    args = parser.parse_args(argv)

    from .core.validate import validate_trace

    try:
        report = validate_trace(_read_trace(args.trace))
    except (OSError, ValueError) as exc:
        print(f"validate failed: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        import json

        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    else:
        print(report.summary())
    # Exit taxonomy: 0 = clean, 1 = warnings only, 2 = errors.
    if not report.ok:
        return 2
    return 1 if report.findings else 0


def main_stats(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-stats",
        description="Descriptive statistics of a time-independent trace: "
                    "volumes, traffic matrix, message-size mix.",
    )
    parser.add_argument("trace", help="trace directory or merged file")
    args = parser.parse_args(argv)

    from .analysis import compute_trace_stats

    try:
        stats = compute_trace_stats(_read_trace(args.trace))
    except (OSError, ValueError) as exc:
        print(f"stats failed: {exc}", file=sys.stderr)
        return 2
    print(stats.report())
    return 0


def main_replay(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-replay",
        description="Replay time-independent traces: platform + deployment "
                    "+ traces -> simulated execution time (Fig. 4).",
    )
    parser.add_argument("trace", help="trace directory or merged trace file")
    parser.add_argument("--platform-xml", required=True,
                        help="SimGrid v3 platform file (Fig. 5)")
    parser.add_argument("--deployment-xml", default=None,
                        help="SimGrid v3 deployment file (Fig. 6); default: "
                             "rank i on host i")
    parser.add_argument("--ranks", type=int, default=None,
                        help="rank count when no deployment file is given")
    parser.add_argument("--collectives", default="binomial",
                        choices=["binomial", "flat"])
    parser.add_argument("--eager-threshold", type=float, default=65536)
    parser.add_argument("--no-compiled", dest="compiled",
                        action="store_const", const="never",
                        default="auto",
                        help="compile each rank a small window at a time "
                             "as the replay reaches it, unfused and "
                             "without the .tic cache (default: compile "
                             "every rank whole, cached)")
    parser.add_argument("--faults", default=None, metavar="PLAN_JSON",
                        help="fault plan JSON (host crashes, link outages, "
                             "link degradations) to inject during replay")
    parser.add_argument("--fault-mode", default="abort",
                        choices=["abort", "checkpoint-restart"],
                        help="failure-aware replay mode: 'abort' stops at "
                             "the first rank death and reports provenance; "
                             "'checkpoint-restart' prices a coordinated "
                             "checkpoint/restart timeline (the plan needs "
                             "a 'checkpoint' block)")
    parser.add_argument("--fault-report", default=None, metavar="JSON_PATH",
                        help="write the structured FaultReport here "
                             "(default: a summary on stdout)")
    parser.add_argument("--timed-trace", default=None,
                        help="write the simulated timed trace here")
    parser.add_argument("--metrics", nargs="?", const="-", default=None,
                        metavar="JSON_PATH",
                        help="collect replay telemetry and emit it as a "
                             "JSON document (to stdout, or to JSON_PATH "
                             "when given)")
    args = parser.parse_args(argv)

    platform = load_platform(args.platform_xml)
    hosts = platform.host_list()
    if args.deployment_xml:
        deployments = load_deployment(args.deployment_xml)
        deployment = [platform.host(d.host) for d in deployments]
    else:
        n = args.ranks if args.ranks is not None else len(hosts)
        deployment = round_robin_deployment(platform, n)
    fault_plan = None
    if args.faults is not None:
        from .faults import load_fault_plan

        try:
            fault_plan = load_fault_plan(args.faults)
            fault_plan.validate(platform)
        except (OSError, ValueError) as exc:
            print(f"bad fault plan: {exc}", file=sys.stderr)
            return 2
    try:
        replayer = TraceReplayer(
            platform, deployment,
            eager_threshold=args.eager_threshold,
            collective_algorithm=args.collectives,
            record_timed_trace=args.timed_trace is not None,
            collect_metrics=args.metrics is not None,
            fault_plan=fault_plan,
            fault_mode=args.fault_mode,
            compiled=args.compiled,
        )
    except ValueError as exc:
        # Option mismatch (checkpoint-restart without a checkpoint
        # block, or a plan with link_down events) is an input error,
        # not a replay failure.
        print(f"bad replay configuration: {exc}", file=sys.stderr)
        return 2
    try:
        result = replayer.replay(args.trace)
    except Exception as exc:
        # A failed replay (deadlock, malformed trace, rank/deployment
        # mismatch) must fail the invoking script: diagnostics on stderr,
        # a nonzero exit code, and whatever telemetry was collected up to
        # the failure point still emitted.
        print(f"replay failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        from .simkernel import DeadlockError

        if isinstance(exc, DeadlockError):
            if exc.blocked:
                print(f"blocked processes: {', '.join(exc.blocked)}",
                      file=sys.stderr)
            for key, value in sorted(exc.details.items()):
                print(f"  {key}: {value}", file=sys.stderr)
        if args.metrics is not None and replayer.telemetry is not None:
            import json

            document = json.dumps(replayer.telemetry.as_dict(), indent=2,
                                  sort_keys=True)
            if args.metrics == "-":
                print(document)
            else:
                with open(args.metrics, "w", encoding="ascii") as handle:
                    handle.write(document + "\n")
                print(f"metrics written to {args.metrics}", file=sys.stderr)
        return 3
    print(f"Simulated execution time: {result.simulated_time:.6f} s")
    print(f"({result.n_ranks} ranks, {result.n_actions} actions, "
          f"replayed in {result.wall_seconds:.2f} s)")
    if result.fault_report is not None:
        print(result.fault_report.summary())
        if args.fault_report:
            with open(args.fault_report, "w", encoding="ascii") as handle:
                handle.write(result.fault_report.to_json() + "\n")
            print(f"fault report written to {args.fault_report}")
    if args.timed_trace:
        with open(args.timed_trace, "w") as handle:
            for rank, name, start, end in result.timed_trace:
                handle.write(f"p{rank} {name} {start:.9f} {end:.9f}\n")
        print(f"timed trace written to {args.timed_trace}")
    if args.metrics is not None:
        import json

        document = json.dumps(result.metrics, indent=2, sort_keys=True)
        if args.metrics == "-":
            print(document)
        else:
            with open(args.metrics, "w", encoding="ascii") as handle:
                handle.write(document + "\n")
            print(f"metrics written to {args.metrics}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main_replay())
