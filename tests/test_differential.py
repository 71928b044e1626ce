"""One differential harness over every replay path.

A time-independent trace replays the same way however it is stored or
fed (the paper's §3).  So every cell of the lattice in
:mod:`tests.lattice` — feed, solver, incremental re-solve, phase
batching, sharding, collective algorithm — either equals the oracle
cell (the ledger's ``CONSERVATIVE``) to 1e-9, metrics projection
included, or is refused with a ``ValueError``, and the refused cells
are pinned here.  Fault plans give byte-identical ``FaultReport``s on
every path, and every source form of a trace replays to the same
numbers, compared with ``==``.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import compile as compile_mod
from repro.core import shard
from repro.core.actions import ACTION_NAMES
from repro.core.compile import compile_windows
from repro.core.trace import read_trace_dir
from repro.faults import FaultPlan, HostCrash, LinkDegrade

from .lattice import (
    CELLS, CORPUS, PLATFORMS, assert_equivalent, build_corpus, cell_config,
    every_keyword_lines, fatpipe_platform, oracle_config, programs, replay,
    source_forms, write_program,
)

#: The (member, platform) pairs the lattice runs on: the generated
#: members on both platforms, the written and imported ones, which are
#: in the corpus for their actions, on the shared backbone.
PAIRS = [(member, platform) for member in sorted(CORPUS)
         for platform in sorted(PLATFORMS)
         if platform == "shared" or member in ("lu8", "lu4-b", "dp8", "pp8",
                                               "moe8")]

#: Why the sharded cells that reach a replay are refused, per pair (a
#: message fragment).  A shared backbone is never decoupled; on the fat
#: pipe only ``lu4-b`` shards.
SHARD_REFUSALS = {
    **{(member, "shared"): "decoupled platform" for member in CORPUS},
    ("lu8", "fatpipe"): "still draining",
    ("dp8", "fatpipe"): "back-to-back collectives",
    ("pp8", "fatpipe"): "eager flow to p6 still in flight",
    ("moe8", "fatpipe"): "cannot run allToAllv",
}


def expected_refusal(member, platform, cell):
    """The refusal a cell must meet, as a message fragment, or None."""
    if not cell["shards"]:
        return None
    if cell["compiled"] == "never":
        return "incompatible with compiled='never'"
    if cell["collective_algorithm"] != "binomial":
        return "use collective_algorithm='binomial'"
    return SHARD_REFUSALS.get((member, platform))


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    return build_corpus(tmp_path_factory.mktemp("corpus"))


def test_every_keyword_member_spells_the_whole_action_table(corpus):
    used = {line.split()[1] for rank in range(2)
            for line in every_keyword_lines(rank)}
    assert used == set(ACTION_NAMES)
    source, n = corpus["every-keyword"]
    volumes = replay(source, n, collect_metrics=True).metrics["replay"][
        "volumes_by_type"]
    assert set(volumes) == set(ACTION_NAMES) - {"barrier", "wait",
                                                "comm_size"}


@pytest.mark.parametrize("member,platform", PAIRS)
def test_every_cell_equals_the_oracle_or_is_refused(corpus, member,
                                                    platform):
    source, n = corpus[member]
    build = PLATFORMS[platform]
    oracles = {algorithm: replay(source, n, build, collect_metrics=True,
                                 **oracle_config(algorithm))
               for algorithm in ("binomial", "flat")}
    assert oracles["binomial"].simulated_time > 0
    refused = {}
    for name, cell in CELLS.items():
        try:
            result = replay(source, n, build, collect_metrics=True,
                            **cell_config(cell))
        except ValueError as exc:
            refused[name] = str(exc)
            continue
        try:
            assert_equivalent(oracles[cell["collective_algorithm"]], result)
        except AssertionError as exc:
            raise AssertionError(f"cell {name}: {exc}") from None
        counters = result.metrics["replay"]
        assert (counters["ops_compiled"] == 0) == \
            (cell["compiled"] == "never"), name
        assert (counters["shard_merges"] > 0) == bool(cell["shards"]), name
    expected = {name: expected_refusal(member, platform, cell)
                for name, cell in CELLS.items()}
    expected = {name: why for name, why in expected.items() if why}
    assert sorted(refused) == sorted(expected)
    for name, message in refused.items():
        assert expected[name] in message, (name, message)


# ---------------------------------------------------------------------------
# Fault plans: byte-identical reports on every path
# ---------------------------------------------------------------------------
#: Corpus members replayed under a fault plan, with their platform.
FAULT_SLICE = [("lu8", "shared"), ("lu4-b", "fatpipe"),
               ("mixed", "shared"), ("fig1-ring", "shared")]

#: The cells they replay in: every feed and solver setting, and batching
#: and sharding on the default path, which a fault plan turns off.
FAULT_CELLS = [
    name for name, cell in CELLS.items()
    if cell["collective_algorithm"] == "binomial"
    and (not cell["batch_phases"] and not cell["shards"]
         or cell["compiled"] == cell["solver"] == "auto"
         and cell["lmm_incremental"])]


@pytest.mark.parametrize("member,platform", FAULT_SLICE)
def test_fault_reports_are_byte_identical_on_every_path(
        corpus, member, platform, monkeypatch):
    # A fault plan never reaches the sharded driver: its workers cannot
    # replicate cross-band failure provenance byte for byte.
    monkeypatch.setattr(shard, "replay_sharded", lambda *a, **kw: pytest.fail(
        "a fault plan reached replay_sharded"))
    source, n = corpus[member]
    build = PLATFORMS[platform]
    horizon = replay(source, n, build, **oracle_config()).simulated_time
    plan = FaultPlan(events=(
        HostCrash("c-1", 0.5 * horizon),
        LinkDegrade("c.bb", 0.25 * horizon, factor=0.5)))
    oracle = replay(source, n, build, fault_plan=plan, **oracle_config())
    report = oracle.fault_report.to_json()
    assert oracle.fault_report.failed_ranks == [1]
    json.loads(report)
    for name in FAULT_CELLS:
        result = replay(source, n, build, fault_plan=plan,
                        **cell_config(CELLS[name]))
        assert result.fault_report.to_json() == report, name
        assert_equivalent(oracle, result)


# ---------------------------------------------------------------------------
# Source forms: text, gzip, binary, merged file and in memory
# ---------------------------------------------------------------------------
#: The file forms and the feeds that read them; the in-memory form is
#: the reference (either feed compiles it whole, the same way).
FORM_FEEDS = [(form, feed) for form in ("text", "gz", "btrace", "merged")
              for feed in ("auto", "never")]


def assert_forms_replay_alike(lines, n_ranks, root, window,
                              form_feeds=FORM_FEEDS):
    """Each (form, feed) of ``lines`` replays to exactly the in-memory
    trace's replay, timed trace included; the windowed feed reads
    ``window`` bytes of a rank file at a time.  The binary form decodes
    back to the text form's actions."""
    forms = source_forms(lines, root)
    assert read_trace_dir(forms["btrace"]).by_rank == \
        read_trace_dir(forms["text"]).by_rank
    reference = replay(forms["memory"], n_ranks, record_timed_trace=True)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(compile_mod, "WINDOW_BYTES", window)
        for form, feed in form_feeds:
            result = replay(forms[form], n_ranks, compiled=feed,
                            record_timed_trace=True)
            assert (result.simulated_time, result.per_rank_time,
                    result.n_actions, result.timed_trace) == \
                (reference.simulated_time, reference.per_rank_time,
                 reference.n_actions, reference.timed_trace), (form, feed)


@pytest.mark.parametrize("member", sorted(CORPUS))
def test_every_source_form_replays_alike(corpus, member, tmp_path):
    source, n = corpus[member]
    trace = read_trace_dir(source)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(compile_mod, "WINDOW_BYTES", 32)
        assert len(list(compile_windows(source)[0])) > 1
    assert_forms_replay_alike(
        {rank: trace.lines_of(rank) for rank in trace.ranks()}, n, tmp_path,
        window=32)


# ---------------------------------------------------------------------------
# Generated programs
# ---------------------------------------------------------------------------
#: The unsharded cells: generated programs replay on a shared backbone.
UNSHARDED = sorted(name for name, cell in CELLS.items()
                   if not cell["shards"])


def test_array_solver_breaks_completion_ties_like_the_oracle(tmp_path):
    """An array-backed group completes a same-instant wave in the order
    its flows joined, as the scalar oracle does, not in the row order
    swap-removal scrambles: otherwise the flat reduce's root matches a
    later-joined sender first.  The first program drains its wave inline
    at one settle; in the second the flows tie at the re-arm, which then
    completes them one event at a time."""
    cases = (
        (4, ["comm_size 4", "bcast 1000", "reduce 65537 1000"]),
        (5, ["comm_size 5", "allReduce 246900.0 32766.0",
             "reduce 65537.0 1000.0"]),
    )
    for i, (n, body) in enumerate(cases):
        lines = {r: [f"p{r} {line}" for line in body] for r in range(n)}
        source = write_program(tmp_path / str(i), lines)
        assert_equivalent(
            replay(source, n, **oracle_config("flat")),
            replay(source, n, collective_algorithm="flat",
                   vector_threshold=1))


@settings(max_examples=50, deadline=None)
@given(program=programs(), name=st.sampled_from(UNSHARDED))
def test_generated_programs_equal_the_oracle(program, name, tmp_path_factory):
    n_ranks, lines = program
    source = write_program(tmp_path_factory.mktemp("gen"), lines)
    cell = CELLS[name]
    oracle = replay(source, n_ranks, collect_metrics=True,
                    **oracle_config(cell["collective_algorithm"]))
    result = replay(source, n_ranks, collect_metrics=True,
                    **cell_config(cell))
    assert_equivalent(oracle, result)
    n_sync = sum(line.endswith(" barrier") or " allReduce " in line
                 for line in lines[0])
    batched = cell["batch_phases"] and cell["collective_algorithm"] == \
        "binomial"
    assert result.metrics["replay"]["phase_advances"] == \
        (n_sync if batched else 0)


@settings(max_examples=15, deadline=None)
@given(program=programs(phases=("compute", "ring")),
       victim=st.integers(0, 4),
       crash_at=st.floats(min_value=1e-4, max_value=0.05),
       name=st.sampled_from(UNSHARDED))
def test_generated_crashes_report_identical_bytes(program, victim, crash_at,
                                                  name, tmp_path_factory):
    n_ranks, lines = program
    source = write_program(tmp_path_factory.mktemp("gen"), lines)
    cell = CELLS[name]
    plan = FaultPlan(events=(HostCrash(f"c-{victim % n_ranks}", crash_at),))
    oracle, result = (
        replay(source, n_ranks, fault_plan=plan, **config)
        for config in (oracle_config(cell["collective_algorithm"]),
                       cell_config(cell)))
    assert result.fault_report.to_json() == oracle.fault_report.to_json()
    assert_equivalent(oracle, result)


#: The sharded cells the replayer builds (it refuses the others).
SHARDED = sorted(name for name, cell in CELLS.items() if cell["shards"]
                 and cell["compiled"] == "auto"
                 and cell["collective_algorithm"] == "binomial")


@settings(max_examples=8, deadline=None)
@given(program=programs("lu"), shards=st.integers(2, 4),
       name=st.sampled_from(SHARDED))
def test_generated_lu_shards_equal_the_oracle(program, shards, name,
                                              tmp_path_factory):
    n_ranks, lines = program
    source = write_program(tmp_path_factory.mktemp("lu"), lines)
    config = dict(cell_config(CELLS[name]), shards=shards)
    oracle = replay(source, n_ranks, fatpipe_platform, collect_metrics=True,
                    **oracle_config())
    result = replay(source, n_ranks, fatpipe_platform, collect_metrics=True,
                    **config)
    assert_equivalent(oracle, result)
    n_windows = sum(" allReduce " in line for line in lines[0])
    assert result.metrics["replay"]["shard_merges"] == n_windows
    assert result.metrics["replay"]["phase_advances"] == n_windows


@settings(max_examples=33, deadline=None)
@given(program=st.sampled_from(["phases", "dp", "pp", "moe"]).flatmap(
    programs), form_feed=st.sampled_from(FORM_FEEDS),
    window=st.integers(1, 64))
def test_generated_programs_replay_alike_in_every_form(
        program, form_feed, window, tmp_path_factory):
    n_ranks, lines = program
    assert_forms_replay_alike(lines, n_ranks, tmp_path_factory.mktemp("forms"),
                              window, [form_feed])
