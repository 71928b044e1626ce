"""Tests for repro.core.compile and the compiled replay driver.

Covers: windowed/whole-program feed equivalence across trace sources
and lmm modes, compute-fusion exactness, ``.tic`` sidecar caching and
byte-level invalidation, the campaign cache's handling of sidecars,
error-message parity between the feeds, feed-selection rules, the
timed-trace pins, and fault-plan parity (byte-identical FaultReports).
"""

import os

import pytest

from repro.campaign import (
    CalibrationSpec, PlatformSpec, ReplaySpec, Scenario, TraceSpec,
    scenario_cache_key,
)
from repro.core.actions import Compute, Irecv, Send, Wait
from repro.core.binfmt import write_binary_trace
from repro.core.compile import (
    CompiledProgram, compile_source, fuse_computes, op_tokens, sidecar_path,
)
from repro.core.replay import TraceReplayer
from repro.core.trace import InMemoryTrace, trace_file_name
from repro.simkernel import Platform
from repro.simkernel.pwl import IDENTITY_MODEL
from repro.smpi import round_robin_deployment

RENDEZVOUS = 1e6


def make_platform(n_hosts, speed=1e9):
    platform = Platform("t")
    platform.add_cluster("c", n_hosts, speed=speed, link_bw=1.25e8,
                         link_lat=1e-5, backbone_bw=1.25e9,
                         backbone_lat=1e-5)
    return platform


def make_replayer(platform, n_ranks, vector_threshold=None, **kw):
    kw.setdefault("comm_model", IDENTITY_MODEL)
    replayer = TraceReplayer(platform,
                             round_robin_deployment(platform, n_ranks), **kw)
    if vector_threshold is not None:
        replayer.engine.vector_threshold = vector_threshold
    return replayer


MIXED_LINES = {
    0: ["p0 comm_size 4",
        "p0 compute 1e8", "p0 compute 2e8", "p0 compute 5e7",
        "p0 send p1 100000",
        "p0 Irecv p3 200000", "p0 compute 1.5e8", "p0 wait",
        "p0 bcast 65536",
        "p0 allReduce 4096 1e6",
        "p0 compute 1e8", "p0 compute 1e8",
        "p0 reduce 8192 2e6",
        "p0 barrier"],
    1: ["p1 comm_size 4",
        "p1 recv p0 100000",
        "p1 compute 3e8",
        "p1 send p2 150000",
        "p1 bcast 65536",
        "p1 allReduce 4096 1e6",
        "p1 compute 0.5e8",
        "p1 reduce 8192 2e6",
        "p1 barrier"],
    2: ["p2 comm_size 4",
        "p2 Irecv p1 150000", "p2 compute 2e8", "p2 wait",
        "p2 bcast 65536",
        "p2 allReduce 4096 1e6",
        "p2 reduce 8192 2e6",
        "p2 barrier"],
    3: ["p3 comm_size 4",
        "p3 Isend p0 200000",
        "p3 compute 1e8", "p3 compute 1e8", "p3 compute 1e8",
        "p3 bcast 65536",
        "p3 allReduce 4096 1e6",
        "p3 reduce 8192 2e6",
        "p3 barrier"],
}


def write_mixed_dir(directory):
    os.makedirs(directory, exist_ok=True)
    for rank, lines in MIXED_LINES.items():
        path = os.path.join(directory, trace_file_name(rank))
        with open(path, "w", encoding="ascii") as handle:
            handle.write("\n".join(lines) + "\n")
    return str(directory)


@pytest.fixture()
def mixed_dir(tmp_path):
    return write_mixed_dir(tmp_path / "ti")


def replay_dir(directory, n_ranks=4, **kw):
    platform = make_platform(n_ranks)
    return make_replayer(platform, n_ranks, **kw).replay(directory)


def assert_equivalent(a, b, tol=1e-9):
    assert abs(a.simulated_time - b.simulated_time) <= \
        tol * max(1.0, abs(a.simulated_time))
    for ra, rb in zip(a.per_rank_time, b.per_rank_time):
        assert abs(ra - rb) <= tol * max(1.0, abs(ra))
    assert a.n_ranks == b.n_ranks
    assert a.n_actions == b.n_actions


# ---------------------------------------------------------------------------
# Equivalence: compiled vs streamed, across sources, collectives, lmm modes
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("solver", [
    pytest.param({}, id="auto"),
    pytest.param({"lmm_mode": "reference"}, id="reference"),
    # The array filling on every multi-constraint group.
    pytest.param({"vector_threshold": 1}, id="vectorized"),
])
def test_compiled_matches_token_dir_all_lmm_modes(mixed_dir, solver):
    token = replay_dir(mixed_dir, compiled="never", **solver)
    comp = replay_dir(mixed_dir, compiled="auto", **solver)
    assert_equivalent(token, comp)


@pytest.mark.parametrize("collectives", ["binomial", "flat"])
def test_compiled_matches_token_both_collective_algorithms(mixed_dir,
                                                           collectives):
    token = replay_dir(mixed_dir, collective_algorithm=collectives,
                       compiled="never")
    comp = replay_dir(mixed_dir, collective_algorithm=collectives,
                      compiled="auto")
    assert_equivalent(token, comp)


def test_compiled_matches_token_merged_file(mixed_dir, tmp_path):
    # Interleave round-robin so the demux buffers stay small.
    merged = str(tmp_path / "merged.trace")
    streams = {r: list(lines) for r, lines in MIXED_LINES.items()}
    with open(merged, "w", encoding="ascii") as handle:
        while any(streams.values()):
            for rank in sorted(streams):
                if streams[rank]:
                    handle.write(streams[rank].pop(0) + "\n")
    token = replay_dir(merged, compiled="never")
    comp = replay_dir(merged, compiled="auto")
    ref = replay_dir(mixed_dir, compiled="never")
    assert_equivalent(token, comp)
    assert_equivalent(ref, comp)
    # A merged file gets one multi-rank container sidecar.
    assert os.path.exists(sidecar_path(merged))


def test_compiled_matches_token_binary_trace(tmp_path):
    n = 3
    directory = str(tmp_path / "bt")
    os.makedirs(directory)
    for rank in range(n):
        actions = [Compute(rank, 1e8), Compute(rank, 2.5e8 + 0.125)]
        if rank < n - 1:
            actions.append(Send(rank, rank + 1, RENDEZVOUS))
        if rank > 0:
            actions += [Irecv(rank, rank - 1, RENDEZVOUS),
                        Compute(rank, 5e7), Wait(rank)]
        write_binary_trace(actions, rank,
                           os.path.join(directory, f"SG_process{rank}.btrace"))
    token = replay_dir(directory, n_ranks=n, compiled="never")
    comp = replay_dir(directory, n_ranks=n, compiled="auto")
    assert_equivalent(token, comp)


def test_compiled_metrics_match_token(mixed_dir):
    token = replay_dir(mixed_dir, compiled="never", collect_metrics=True)
    comp = replay_dir(mixed_dir, compiled="auto", collect_metrics=True)
    t, c = token.metrics["replay"], comp.metrics["replay"]
    assert t["actions_by_type"] == c["actions_by_type"]
    assert t["n_actions"] == c["n_actions"]
    for name, volume in t["volumes_by_type"].items():
        assert c["volumes_by_type"][name] == pytest.approx(volume)
    assert t["ops_compiled"] == 0 and t["computes_fused"] == 0
    assert c["ops_compiled"] > 0
    # p0 has runs of 3 and 2 computes, p3 a run of 3: 2 + 1 + 2 absorbed.
    assert c["computes_fused"] == 5
    assert comp.metrics["engine"]["idle_advances"] > 0


def test_in_memory_trace_compiles_whole_under_auto():
    trace = InMemoryTrace()
    for rank in range(2):
        trace.emit(Compute(rank, 1e8))
    platform = make_platform(2)
    replayer = make_replayer(platform, 2, compiled="auto")
    replayer.replay(trace)
    assert replayer.last_compile_report is not None
    assert replayer.last_compile_report.n_ranks == 2
    # "never" compiles in-memory traces too, but not through the report.
    windowed = make_replayer(platform, 2, compiled="never")
    windowed.replay(trace)
    assert windowed.last_compile_report is None


# ---------------------------------------------------------------------------
# Compute fusion
# ---------------------------------------------------------------------------
def test_fuse_computes_collapses_runs():
    programs, _ = compile_source_from_lines(
        ["p0 compute 1", "p0 compute 2", "p0 compute 3",
         "p0 barrier", "p0 compute 4", "p0 compute 5"])
    fused = fuse_computes(programs[0])
    assert fused.n_ops == 3 and fused.n_src == 6
    assert fused.vol.tolist() == [6.0, 0.0, 9.0]
    assert fused.nsrc.tolist() == [3, 1, 2]
    # Idempotent.
    assert fuse_computes(fused) is fused


def compile_source_from_lines(lines, rank=0):
    trace = InMemoryTrace()
    from repro.core.actions import parse_action
    for line in lines:
        trace.emit(parse_action(line))
    return compile_source(trace)


def test_op_tokens_round_trip():
    programs, _ = compile_source_from_lines(
        ["p0 compute 1e8", "p0 send p3 4096", "p0 reduce 8192 2e6",
         "p0 comm_size 4", "p0 barrier", "p0 wait"])
    prog = programs[0]
    assert op_tokens(prog, 0) == ["p0", "compute", "100000000"]
    assert op_tokens(prog, 1) == ["p0", "send", "p3", "4096"]
    assert op_tokens(prog, 2) == ["p0", "reduce", "8192", "2000000"]
    assert op_tokens(prog, 3) == ["p0", "comm_size", "4"]
    assert op_tokens(prog, 4) == ["p0", "barrier"]
    assert op_tokens(prog, 5) == ["p0", "wait"]


# ---------------------------------------------------------------------------
# .tic sidecar cache
# ---------------------------------------------------------------------------
def test_tic_cache_hit_and_byte_invalidation(mixed_dir):
    _, cold = compile_source(mixed_dir)
    assert cold.cache_misses == 4 and cold.cache_hits == 0
    # One sidecar for the directory, not one per rank.
    assert cold.artifacts == [sidecar_path(mixed_dir)]
    assert os.path.exists(cold.artifacts[0])

    _, warm = compile_source(mixed_dir)
    assert warm.cache_hits == 4 and warm.cache_misses == 0
    assert warm.artifacts == []

    # Change one source file's bytes: only that rank recompiles.
    victim = os.path.join(mixed_dir, trace_file_name(2))
    with open(victim, "ab") as handle:
        handle.write(b"p2 compute 1e6\n")
    _, rebuilt = compile_source(mixed_dir)
    assert rebuilt.cache_hits == 3 and rebuilt.cache_misses == 1


def test_tic_cache_force_recompiles(mixed_dir):
    compile_source(mixed_dir)
    _, forced = compile_source(mixed_dir, force=True)
    assert forced.cache_misses == 4 and forced.cache_hits == 0


def test_corrupt_tic_is_a_miss_not_an_error(mixed_dir):
    _, cold = compile_source(mixed_dir)
    with open(cold.artifacts[0], "r+b") as handle:
        handle.write(b"garbage!")
    programs, report = compile_source(mixed_dir)
    assert report.cache_misses >= 1
    assert sum(p.n_src for p in programs) == \
        sum(len(v) for v in MIXED_LINES.values())


def test_uncached_compile_writes_nothing(mixed_dir):
    programs, report = compile_source(mixed_dir, cache=False)
    assert report.artifacts == []
    assert not any(name.endswith(".tic") for name in os.listdir(mixed_dir))
    assert len(programs) == 4


def test_unwritable_sidecar_is_best_effort(mixed_dir, monkeypatch):
    # A trace directory the process cannot write into must still replay
    # compiled — just without a disk cache.  (chmod tricks do not work
    # under root, so simulate the write failure directly.)
    from repro.core import compile as compile_mod

    assert compile_mod._write_tic("/nonexistent-repro-dir/zzz.tic",
                                  []) is False

    monkeypatch.setattr(compile_mod, "_write_tic",
                        lambda *a, **kw: False)
    token = replay_dir(mixed_dir, compiled="never")
    comp = replay_dir(mixed_dir, compiled="auto")
    assert_equivalent(token, comp)
    assert not any(name.endswith(".tic") for name in os.listdir(mixed_dir))


def test_unwritable_sidecar_notes_once_and_stays_compiled(
        mixed_dir, monkeypatch, caplog):
    # Repeated replays against a read-only trace directory must stay
    # quiet — a single debug-level note for the directory, never
    # per-rank warning spam — and must keep running the compiled driver
    # under compiled='auto' (no silent windowed fallback).
    import logging

    from repro.core import compile as compile_mod

    real_replace = os.replace

    def deny_tic(src, dst, *args, **kwargs):
        if str(dst).endswith(".tic"):
            raise PermissionError(13, "Read-only file system", str(dst))
        return real_replace(src, dst, *args, **kwargs)

    monkeypatch.setattr(compile_mod.os, "replace", deny_tic)
    monkeypatch.setattr(compile_mod, "_TIC_WRITE_FAILED_DIRS", set())

    reference = replay_dir(mixed_dir, compiled="never")
    with caplog.at_level(logging.DEBUG, logger="repro.core.compile"):
        results = [replay_dir(mixed_dir, compiled="auto",
                              collect_metrics=True) for _ in range(3)]
    for result in results:
        assert_equivalent(reference, result)
        # Still the compiled driver: the op programs were built and run.
        assert result.metrics["replay"]["ops_compiled"] > 0
    assert not any(name.endswith(".tic") for name in os.listdir(mixed_dir))
    notes = [r for r in caplog.records if "cannot cache" in r.getMessage()]
    assert len(notes) == 1
    assert notes[0].levelno == logging.DEBUG
    assert str(mixed_dir) in notes[0].getMessage()


# ---------------------------------------------------------------------------
# Campaign cache interaction
# ---------------------------------------------------------------------------
def dir_scenario(path, **overrides):
    fields = dict(
        name="d", ranks=4,
        trace=TraceSpec(kind="dir", path=str(path)),
        platform=PlatformSpec(name="bordereau", hosts=8),
        calibration=CalibrationSpec(kind="fixed", speed=2e9),
    )
    fields.update(overrides)
    return Scenario(**fields)


def test_tic_sidecars_do_not_bust_the_campaign_key(mixed_dir):
    scenario = dir_scenario(mixed_dir)
    key_before = scenario_cache_key(scenario)
    compile_source(mixed_dir)  # writes a .tic sidecar into the trace dir
    assert scenario_cache_key(scenario) == key_before
    # ...but editing the *source* trace still busts it.
    with open(os.path.join(mixed_dir, trace_file_name(0)), "a",
              encoding="ascii") as handle:
        handle.write("p0 compute 1\n")
    assert scenario_cache_key(scenario) != key_before


def test_replay_compiled_option_is_part_of_the_key(mixed_dir):
    keys = {scenario_cache_key(dir_scenario(
        mixed_dir, replay=ReplaySpec(compiled=mode)))
        for mode in ("auto", "never")}
    assert len(keys) == 2
    for mode in ("sometimes", "always"):
        with pytest.raises(ValueError, match="compiled"):
            ReplaySpec(compiled=mode)


def test_example_campaign_cache_key_is_pinned():
    # The address of an existing cached record must not move unless the
    # scenario does: this one moved when the example dropped its
    # explicit feed, leaving the default whole-program form.
    from repro.campaign import load_campaign_spec

    examples = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "examples")
    spec = load_campaign_spec(os.path.join(examples, "ai_workloads.json"))
    (scenario,) = [s for s in spec.scenarios
                   if s.name == "moe-routing-seed-7"]
    assert scenario.replay.compiled == "auto"
    assert scenario_cache_key(scenario) == (
        "b77dfc6cec50e5dbd9d5ab163511bd72166330929e58c3fc087ea4b023f2c359")


# ---------------------------------------------------------------------------
# Error-message parity and driver-selection rules
# ---------------------------------------------------------------------------
def write_one_rank(tmp_path, lines):
    directory = tmp_path / "bad"
    os.makedirs(directory, exist_ok=True)
    with open(directory / trace_file_name(0), "w", encoding="ascii") as f:
        f.write("\n".join(lines) + "\n")
    return str(directory)


@pytest.mark.parametrize("lines,match", [
    (["p0 wait"], "'wait' with no pending Irecv"),
    (["p0 bcast 100"], "bcast before comm_size"),
    (["p0 comm_size 99"], "comm_size 99 exceeds the deployment"),
])
def test_compiled_replay_errors_match_token_path(tmp_path, lines, match):
    directory = write_one_rank(tmp_path, lines)
    for mode in ("never", "auto"):
        platform = make_platform(1)
        with pytest.raises(ValueError, match=match):
            make_replayer(platform, 1, compiled=mode).replay(directory)


@pytest.mark.parametrize("lines,match", [
    (["p0 frobnicate 1"], "unregistered action 'frobnicate'"),
    (["p0 compute"], "malformed trace line"),
    (["p0 send p1"], "malformed trace line"),
])
def test_compile_time_errors_match_token_wording(tmp_path, lines, match):
    directory = write_one_rank(tmp_path, lines)
    with pytest.raises(ValueError, match=match):
        compile_source(directory)
    platform = make_platform(1)
    with pytest.raises(ValueError, match=match):
        make_replayer(platform, 1, compiled="never").replay(directory)


def test_compile_rejects_unparseable_volume(tmp_path):
    directory = write_one_rank(tmp_path, ["p0 compute banana"])
    with pytest.raises(ValueError, match="malformed trace line"):
        compile_source(directory)


def test_keywords_outside_the_action_table_fail_under_every_mode(mixed_dir):
    # The action table is the only extension point: there is no handler
    # registry, so an unknown keyword is refused whatever the feed.
    assert not hasattr(TraceReplayer, "register_action")
    with open(os.path.join(mixed_dir, trace_file_name(0)), "a",
              encoding="ascii") as handle:
        handle.write("p0 checkpointmark\n")
    for mode in ("auto", "never"):
        with pytest.raises(ValueError,
                           match="unregistered action 'checkpointmark'"):
            replay_dir(mixed_dir, compiled=mode)


def test_timed_trace_runs_on_the_compiled_feed(mixed_dir):
    results = {mode: replay_dir(mixed_dir, compiled=mode,
                                record_timed_trace=True, collect_metrics=True)
               for mode in ("auto", "never")}
    replay = results["auto"].metrics["replay"]
    assert replay["ops_compiled"] > 0
    # One record per source action: recording replays run unfused.
    assert replay["computes_fused"] == 0
    for result in results.values():
        assert len(result.timed_trace) == result.n_actions
        assert result.timed_trace == results["never"].timed_trace


#: SHA-256 of the ``repro-replay --timed-trace`` file for each trace, as
#: written by the token interpreter the one loop replaced; the loop must
#: reproduce it byte for byte under every feed.  The ``allcoll-*`` pins
#: were recorded by the generator collectives the schedule rows replaced
#: (the digest covers the timed traces of every ALLCOLL_SIZES run, in
#: order).
TIMED_TRACE_PINS = {
    "mixed": "a59645824e2e3bc03a6e296c68ffcb19"
             "cf40dce67888625eb8fd503cc5a762fe",
    "moe16": "8219774e89bcda125db5755a444ffcfa"
             "2c1ac66f588c803cab342ad200e174e0",
    "allcoll-binomial": "1b6bef220007586873d1eaf333226b19"
                        "8a9c0632d796da10457dd87913bcbcc9",
    "allcoll-flat": "89ee2d8b8d79c26977dc945fd5eac328"
                    "ffef77b017681917860b6d2bb6d2e453",
}

#: Communicator sizes of the all-collectives fixture.
ALLCOLL_SIZES = (1, 2, 3, 5, 8)


def write_allcoll_dir(directory, size):
    """Every collective at one eager and one rendezvous volume, after a
    rank-skewed compute so that wildcard receives see a real order."""
    os.makedirs(directory, exist_ok=True)
    for rank in range(size):
        lines = [f"p{rank} comm_size {size}"]
        for vol in (4096, int(RENDEZVOUS)):
            splits = [vol * ((rank + dst) % 3) // 2 for dst in range(size)]
            lines += [f"p{rank} compute {(rank + 1) * 10 ** 7}"] + [
                f"p{rank} {action}" for action in (
                    f"bcast {vol}", f"reduce {vol} 1000000",
                    f"allReduce {vol} 2000000", "barrier",
                    f"allToAll {vol}",
                    f"allToAllv {sum(splits)} "
                    + " ".join(str(s) for s in splits),
                    f"allGather {vol}", f"reduceScatter {vol} 3000000")]
        with open(os.path.join(directory, trace_file_name(rank)), "w",
                  encoding="ascii") as handle:
            handle.write("\n".join(lines) + "\n")
    return str(directory)


@pytest.mark.parametrize("flags", [[], ["--no-compiled"]],
                         ids=["auto", "never"])
@pytest.mark.parametrize("name", sorted(TIMED_TRACE_PINS))
def test_timed_trace_file_is_pinned_under_every_mode(tmp_path, name, flags):
    import hashlib

    from repro.cli import main_replay
    from repro.core.synth_ai import write_synthetic_ai_trace
    from repro.simkernel.xmlio import dump_platform

    if name.startswith("allcoll-"):
        xml = str(tmp_path / "platform.xml")
        dump_platform(make_platform(max(ALLCOLL_SIZES)), xml)
        digest = hashlib.sha256()
        for size in ALLCOLL_SIZES:
            directory = write_allcoll_dir(tmp_path / f"ti{size}", size)
            out = tmp_path / f"timed{size}.trace"
            assert main_replay(
                [directory, "--platform-xml", xml, "--ranks", str(size),
                 "--collectives", name.split("-")[1],
                 "--timed-trace", str(out)] + flags) == 0
            digest.update(out.read_bytes())
        assert digest.hexdigest() == TIMED_TRACE_PINS[name]
        return
    if name == "mixed":
        directory, n_ranks = write_mixed_dir(tmp_path / "ti"), 4
    else:
        # 16 ranks of MoE dispatch/combine: allToAllv split tables.
        directory, n_ranks = str(tmp_path / "moe"), 16
        write_synthetic_ai_trace(
            "moe", directory, n_ranks, 2, seed=3, layers=1,
            tokens_bytes=1 << 14, gate_flops=1e5, expert_flops=1e6,
            dense_bytes=1 << 12)
    xml = str(tmp_path / "platform.xml")
    dump_platform(make_platform(n_ranks), xml)
    out = tmp_path / "timed.trace"
    assert main_replay([directory, "--platform-xml", xml, "--ranks",
                        str(n_ranks), "--timed-trace", str(out)]
                       + flags) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == TIMED_TRACE_PINS[name]


def _merged(tmp_path, mixed_dir):
    path = str(tmp_path / "merged.trace")
    with open(path, "w", encoding="ascii") as handle:
        for rank in sorted(MIXED_LINES):
            handle.write("\n".join(MIXED_LINES[rank]) + "\n")
    return path


def _btrace_dir(tmp_path, mixed_dir):
    from repro.core.binfmt import binary_trace_file_name
    from repro.core.trace import read_trace_dir

    trace = read_trace_dir(mixed_dir)
    directory = tmp_path / "bt"
    os.makedirs(directory)
    for rank in trace.ranks():
        write_binary_trace(trace.actions_of(rank), rank,
                           str(directory / binary_trace_file_name(rank)))
    return str(directory)


def _in_memory(tmp_path, mixed_dir):
    from repro.core.trace import read_trace_dir

    return read_trace_dir(mixed_dir)


@pytest.mark.parametrize("build", [_merged, _btrace_dir, _in_memory],
                         ids=["merged", "btrace", "in-memory"])
@pytest.mark.parametrize("mode", ["auto", "never"])
def test_timed_trace_has_one_record_per_action_for_every_source(
        tmp_path, mixed_dir, build, mode):
    source = build(tmp_path, mixed_dir)
    result = replay_dir(source, compiled=mode, record_timed_trace=True)
    assert result.n_actions == sum(len(v) for v in MIXED_LINES.values())
    assert len(result.timed_trace) == result.n_actions
    reference = replay_dir(mixed_dir, record_timed_trace=True)
    assert result.timed_trace == reference.timed_trace


def test_bad_compiled_mode_rejected():
    platform = make_platform(2)
    with pytest.raises(ValueError, match="compiled mode"):
        make_replayer(platform, 2, compiled="sometimes")


# ---------------------------------------------------------------------------
# Fault-plan parity: the compiled feed runs unfused and produces the very
# same FaultReport bytes as the streamed one
# ---------------------------------------------------------------------------
def ring_dir(tmp_path, n_ranks, iterations):
    directory = tmp_path / "ring"
    os.makedirs(directory, exist_ok=True)
    for rank in range(n_ranks):
        lines = []
        for _ in range(iterations):
            lines += [f"p{rank} Irecv p{(rank - 1) % n_ranks} "
                      f"{RENDEZVOUS:.0f}",
                      f"p{rank} compute 1000000",
                      f"p{rank} compute 500000",
                      f"p{rank} send p{(rank + 1) % n_ranks} "
                      f"{RENDEZVOUS:.0f}",
                      f"p{rank} wait"]
        with open(directory / trace_file_name(rank), "w",
                  encoding="ascii") as handle:
            handle.write("\n".join(lines) + "\n")
    return str(directory)


def test_fault_reports_byte_identical_across_drivers(tmp_path):
    from repro.faults import FaultPlan, HostCrash

    n = 4
    directory = ring_dir(tmp_path, n, iterations=6)
    plan = FaultPlan(events=(HostCrash("c-2", 0.05),))
    reports = {}
    for mode in ("never", "auto"):
        platform = make_platform(n)
        result = make_replayer(platform, n, fault_plan=plan,
                               compiled=mode).replay(directory)
        reports[mode] = result.fault_report.to_json()
    assert reports["never"] == reports["auto"]
