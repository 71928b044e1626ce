"""Tests for repro.core.compile and the compiled replay feed.

Covers: compute fusion, ``.tic`` sidecar caching and byte-level
invalidation, the campaign cache's handling of sidecars, error-message
parity between the whole-program and the windowed feed, feed-selection
rules and the timed-trace pins.  That both feeds replay alike on every
path is tests/test_differential.py's.
"""

import os

import pytest

from repro.campaign import (
    CalibrationSpec, PlatformSpec, ReplaySpec, Scenario, TraceSpec,
    scenario_cache_key,
)
from repro.core.actions import Compute
from repro.core.compile import (
    compile_source, fuse_computes, op_tokens, sidecar_path,
)
from repro.core.replay import TraceReplayer
from repro.core.trace import InMemoryTrace, trace_file_name

from .lattice import (
    MIXED_LINES, RENDEZVOUS, assert_equivalent, make_replayer, replay,
    shared_platform, source_forms, write_program,
)


@pytest.fixture()
def mixed_dir(tmp_path):
    return write_program(tmp_path / "ti", MIXED_LINES)


# ---------------------------------------------------------------------------
# What the compiled feed does on top of the windowed one (their results
# agree: tests/test_differential.py)
# ---------------------------------------------------------------------------
def test_compiled_feed_fuses_compute_runs_and_caches_merged_files(
        mixed_dir, tmp_path):
    result = replay(mixed_dir, 4, collect_metrics=True)
    # p0 has runs of 3 and 2 computes, p3 a run of 3: 2 + 1 + 2 absorbed.
    assert result.metrics["replay"]["computes_fused"] == 5
    assert result.metrics["engine"]["idle_advances"] > 0
    # A merged file gets one multi-rank container sidecar.
    merged = str(tmp_path / "merged.trace")
    with open(merged, "w", encoding="ascii") as handle:
        for lines in MIXED_LINES.values():
            handle.write("\n".join(lines) + "\n")
    replay(merged, 4)
    assert os.path.exists(sidecar_path(merged))


def test_in_memory_trace_compiles_whole_under_auto():
    trace = InMemoryTrace()
    for rank in range(2):
        trace.emit(Compute(rank, 1e8))
    platform = shared_platform(2)
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
    windowed = replay(mixed_dir, 4, compiled="never")
    comp = replay(mixed_dir, 4, compiled="auto")
    assert_equivalent(windowed, comp)
    assert not any(name.endswith(".tic") for name in os.listdir(mixed_dir))


def test_unwritable_sidecar_notes_once_and_stays_compiled(
        mixed_dir, monkeypatch, caplog):
    # Repeated replays against a read-only trace directory must stay
    # quiet — a single debug-level note for the directory, never
    # per-rank warning spam — and must keep running the whole-program
    # feed under compiled='auto' (no silent windowed fallback).
    import logging

    from repro.core import compile as compile_mod

    real_replace = os.replace

    def deny_tic(src, dst, *args, **kwargs):
        if str(dst).endswith(".tic"):
            raise PermissionError(13, "Read-only file system", str(dst))
        return real_replace(src, dst, *args, **kwargs)

    monkeypatch.setattr(compile_mod.os, "replace", deny_tic)
    monkeypatch.setattr(compile_mod, "_TIC_WRITE_FAILED_DIRS", set())

    reference = replay(mixed_dir, 4, compiled="never")
    with caplog.at_level(logging.DEBUG, logger="repro.core.compile"):
        results = [replay(mixed_dir, 4, compiled="auto",
                          collect_metrics=True) for _ in range(3)]
    for result in results:
        assert_equivalent(reference, result)
        # Still the whole-program feed: the op programs were built and run.
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
    # scenario or the cache format does: this one moved when the example
    # dropped its explicit feed, leaving the default whole-program form,
    # and when format 6 dropped ReplaySpec's path selectors.
    from repro.campaign import load_campaign_spec

    examples = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "examples")
    spec = load_campaign_spec(os.path.join(examples, "ai_workloads.json"))
    (scenario,) = [s for s in spec.scenarios
                   if s.name == "moe-routing-seed-7"]
    assert scenario.replay.compiled == "auto"
    assert scenario_cache_key(scenario) == (
        "fc45e5d259d26734cbdd1e9eb611c808128ca205724c2f8119f8883c261c4769")


# ---------------------------------------------------------------------------
# Error-message parity and driver-selection rules
# ---------------------------------------------------------------------------
def write_one_rank(tmp_path, lines):
    return write_program(tmp_path / "bad", {0: lines})


@pytest.mark.parametrize("lines,match", [
    (["p0 wait"], "'wait' with no pending Irecv"),
    (["p0 bcast 100"], "bcast before comm_size"),
    (["p0 comm_size 99"], "comm_size 99 exceeds the deployment"),
])
def test_compiled_replay_errors_match_windowed_feed(tmp_path, lines, match):
    directory = write_one_rank(tmp_path, lines)
    for mode in ("never", "auto"):
        platform = shared_platform(1)
        with pytest.raises(ValueError, match=match):
            make_replayer(platform, 1, compiled=mode).replay(directory)


@pytest.mark.parametrize("lines,match", [
    (["p0 frobnicate 1"], "unregistered action 'frobnicate'"),
    (["p0 compute"], "malformed trace line"),
    (["p0 send p1"], "malformed trace line"),
])
def test_compile_time_errors_match_windowed_feed_wording(tmp_path, lines,
                                                        match):
    directory = write_one_rank(tmp_path, lines)
    with pytest.raises(ValueError, match=match):
        compile_source(directory)
    platform = shared_platform(1)
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
            replay(mixed_dir, 4, compiled=mode)


def test_timed_trace_runs_on_the_compiled_feed(mixed_dir):
    results = {mode: replay(mixed_dir, 4, compiled=mode,
                            record_timed_trace=True, collect_metrics=True)
               for mode in ("auto", "never")}
    counters = results["auto"].metrics["replay"]
    assert counters["ops_compiled"] > 0
    # One record per source action: recording replays run unfused.
    assert counters["computes_fused"] == 0
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
    lines_of = {}
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
        lines_of[rank] = lines
    return write_program(directory, lines_of)


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
        dump_platform(shared_platform(max(ALLCOLL_SIZES)), xml)
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
        directory, n_ranks = write_program(tmp_path / "ti", MIXED_LINES), 4
    else:
        # 16 ranks of MoE dispatch/combine: allToAllv split tables.
        directory, n_ranks = str(tmp_path / "moe"), 16
        write_synthetic_ai_trace(
            "moe", directory, n_ranks, 2, seed=3, layers=1,
            tokens_bytes=1 << 14, gate_flops=1e5, expert_flops=1e6,
            dense_bytes=1 << 12)
    xml = str(tmp_path / "platform.xml")
    dump_platform(shared_platform(n_ranks), xml)
    out = tmp_path / "timed.trace"
    assert main_replay([directory, "--platform-xml", xml, "--ranks",
                        str(n_ranks), "--timed-trace", str(out)]
                       + flags) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == TIMED_TRACE_PINS[name]


@pytest.mark.parametrize("form", ["merged", "btrace", "memory"],
                         ids=["merged", "btrace", "in-memory"])
@pytest.mark.parametrize("mode", ["auto", "never"])
def test_timed_trace_has_one_record_per_action_for_every_source(
        tmp_path, mixed_dir, form, mode):
    source = source_forms(MIXED_LINES, tmp_path)[form]
    result = replay(source, 4, compiled=mode, record_timed_trace=True)
    assert result.n_actions == sum(len(v) for v in MIXED_LINES.values())
    assert len(result.timed_trace) == result.n_actions
    reference = replay(mixed_dir, 4, record_timed_trace=True)
    assert result.timed_trace == reference.timed_trace


def test_bad_compiled_mode_rejected():
    platform = shared_platform(2)
    with pytest.raises(ValueError, match="compiled mode"):
        make_replayer(platform, 2, compiled="sometimes")
