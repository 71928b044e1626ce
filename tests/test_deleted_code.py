"""Deleted code stays deleted: names that went with a removed subsystem
must not come back under ``src/``, the docs, the CI config or the tests,
and the action table stays the only place that knows an action's
shape."""

import os
import re

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: (pattern, paths — a ``!`` prefix excludes a file or a directory,
#: what was deleted).
DELETED = [
    (r"native_fill|native_available|simkernel\._native|repro\[native\]",
     ("src", "pyproject.toml", ".github"),
     "the Numba kernel and its extra"),
    (r"_unit_main|units_dir|no-verify|_write_json_atomic|settle_dispatched",
     ("src", ".github", "docs"),
     "the worker's nested campaign, its off-switch and duplicated helpers"),
    (r"_job_main|outcome\.json|_terminate_pid|drain_timeout_s|on_record",
     ("src", "docs"),
     "local dispatch's per-job runner and its PID-signalling recovery"),
    (r"_VOLUME_TOKEN|_P2P_CODES|_do_bcast",
     ("src", "docs", ".github"),
     "the hand-kept copies of the action set"),
    (r"tokens\[[23]\]|isinstance\(action, ",
     ("src/repro/core", "!src/repro/core/actions.py",
      "!src/repro/core/validate.py"),
     "token positions and action shapes outside the action table"),
    (r"_on_sigterm|class _Live\b|class _Job\b",
     ("src",),
     "run_campaign's own fleet loop and SIGTERM drain"),
    (r"max\(3, ",
     ("src/repro", "docs"),
     "the queue's second retry policy"),
    (r"^\s*(from|import)\s+(\.\.service|repro\.service)",
     ("src/repro/campaign", "!src/repro/campaign/cli.py"),
     "the campaign tier importing the service (but the remote client)"),
    (r"def _maxmin|_solve_vectorized|pair_weight|lmm_mode=[\"']vectorized",
     ("src", "docs", ".github", "benchmarks", "README.md"),
     "the engine's second scalar filling, the weighted path and the "
     "vectorized mode"),
    (r"register_action|_custom_actions|_do_compute|_CompiledRankContext"
     r"|\btoken_streams|_action_tokens"
     r"|compiled replay does not record timed traces"
     r"|cannot drive actions registered via",
     ("src", "docs", ".github", "README.md"),
     "the token interpreter, its handler registry and the timed-trace "
     "fallback"),
    (r"_CollOps|_RawOps|_flat_bcast|_flat_reduce|binomial_bcast"
     r"|binomial_reduce|reduce_then_bcast_allreduce|pairwise_alltoall"
     r"|gather_then_bcast_allgather|reduce_then_scatter",
     ("src", "docs", ".github", "README.md", "DESIGN.md"),
     "the generator collectives and their two adapters"),
    (r"record_streams|_merged_token_streams|merged_spill_limit"
     r"|--compiled\b|compiled=[\"']always|compile them anyway",
     ("src", "docs", ".github", "README.md", "examples", "benchmarks"),
     "the decoded-line feed, the merged-file demux and compiled='always'"),
    (r"TraceSink|SizeReport|SizeAccountant|FileTraceWriter|TeeSink"
     r"|discover_trace_paths\([^)]*binary",
     ("src", "docs", ".github", "README.md", "DESIGN.md", "benchmarks"),
     "the uncalled trace sinks and text-only discovery"),
    (r"write_binary_trace|binary_trace_file_name|trace_file_name\(",
     ("src", "!src/repro/core/trace.py", "!src/repro/core/binfmt.py"),
     "rank-file writing outside the one writer"),
    (r"test_fig9_replay_throughput_kernel|test_fig9_compiled"
     r"|test_fig9_parallel|fig9_compiled\.txt|fig9_parallel\.txt"
     r"|run_(compiled|parallel)_comparison|def write_chain_trace",
     ("benchmarks", "!benchmarks/perf", "docs", "README.md",
      "EXPERIMENTS.md", ".github"),
     "Fig. 9's unpaired copy of the ledger's driver legs"),
    (r"def (make_platform|fatpipe_platform|shared_platform|assert_equivalent"
     r"|assert_counters_match)\b",
     ("tests", "!tests/lattice.py"),
     "the equivalence suites' own platforms and assertions"),
    (r"--batch-phases|--shards\b|--shard-halo|--no-lmm-incremental|--lmm\b",
     ("src/repro/cli.py", "README.md", "docs", ".github"),
     "repro-replay's path-selector flags"),
    (r"replay\.(batch_phases|shards|shard_halo)",
     ("src/repro/campaign",),
     "the campaign spec's path-selector fields"),
    (r"\breq\.comm\b|\.comm = comm\b|\"data\", \"comm\"",
     ("src", "tests", "!tests/test_deleted_code.py", "benchmarks", "docs"),
     "a request's back-pointer to its match: one reference cycle per "
     "message"),
    (r"\b(host|src|dst|h)\.cluster\b|\.cluster = self\b",
     ("src", "tests", "!tests/test_deleted_code.py", "benchmarks", "docs",
      "examples"),
     "a host's back-pointer to its cluster: every platform a reference "
     "cycle"),
    (r"reset_sharing_state",
     ("src", "tests", "!tests/test_deleted_code.py", "benchmarks", "docs",
      ".github", "examples"),
     "the bind-time reset of the sharing state a previous engine left on "
     "a platform"),
    (r"\.available\b|\.failed_at\b|degrade_factor|effective_bandwidth",
     ("src", "tests", "!tests/test_deleted_code.py", "benchmarks", "docs",
      "examples"),
     "fault state kept on a platform's hosts and links"),
    (r"resident_ranks\s*=(?!=)|\.resident_ranks\b",
     ("src", "tests", "!tests/test_deleted_code.py", "benchmarks", "docs",
      "examples"),
     "a run's resident-rank counts written onto the platform's hosts"),
    (r"\bname\[[14]:\]\.isdigit\(\)",
     ("src",),
     "rank numbers parsed back out of process names"),
    (r"self\._(maxmin_iters|vector_fillings|bottleneck_rerates"
     r"|idle_advances|inc_patches|patch_fallbacks|full_resolves"
     r"|calendar_rebuilds|level_hist|group_merges|vector_attaches"
     r"|vector_demotions)\b",
     ("src", "tests", "!tests/test_deleted_code.py", "benchmarks", "docs"),
     "the engine's shadow copies of its work counters, windowed per run"),
    (r"cache_stats|(comm|metrics)\.(begin|finish)\("
     r"|def (begin|finish)\(self, snapshot"
     r"|comms\.(n_transfers|bytes_transferred)\b",
     ("src/repro/simkernel", "src/repro/core", "src/repro/smpi", "tests",
      "!tests/test_deleted_code.py", "benchmarks", "docs"),
     "the comm layer's snapshot deltas and its duplicate transfer totals"),
]


def _files(paths):
    skip = {os.path.join(ROOT, p[1:]) for p in paths if p.startswith("!")}
    for rel in paths:
        top = os.path.join(ROOT, rel)
        if rel.startswith("!") or not os.path.exists(top):
            continue
        if os.path.isfile(top):
            yield top
            continue
        for dirpath, dirs, names in os.walk(top):
            dirs[:] = sorted(d for d in dirs if d != "__pycache__"
                             and not d.endswith(".egg-info"))
            for name in sorted(names):
                path = os.path.join(dirpath, name)
                if not any(path == s or path.startswith(s + os.sep)
                           for s in skip):
                    yield path


def _matches(pattern, paths):
    regex = re.compile(pattern)
    hits = []
    for path in _files(paths):
        try:
            with open(path, encoding="utf-8") as handle:
                lines = handle.read().splitlines()
        except (UnicodeDecodeError, OSError):
            continue    # binary data files carry no names
        hits += [f"{os.path.relpath(path, ROOT)}:{number}: {line.strip()}"
                 for number, line in enumerate(lines, 1)
                 if regex.search(line)]
    return hits


@pytest.mark.parametrize("pattern, paths, deleted", DELETED,
                         ids=[row[2] for row in DELETED])
def test_deleted_names_stay_deleted(pattern, paths, deleted):
    assert _matches(pattern, paths) == [], f"{deleted} came back"


def test_the_opcode_map_is_defined_once():
    hits = _matches(r"^OPCODE_OF = ", ("src",))
    assert [hit.split(":")[0] for hit in hits] == \
        ["src/repro/core/actions.py"]
