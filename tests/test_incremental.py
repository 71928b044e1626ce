"""Incremental certified max-min re-solve and the heap event calendar.

The headline contracts:

* ``patch_solve`` either produces exactly the allocation a full
  ``solve_reference`` would (to 1e-9) or reports failure with the rate
  vector untouched — on randomized arrival/departure histories, not
  just hand-picked ones;
* the engine's patch path changes no observable result: completion
  times match the non-incremental engine exactly, even when every
  patch attempt is forced to fall back;
* the ``_Calendar`` event heap pops in (time, FIFO-seq) order, skips
  and counts lazily invalidated entries, and compacts without changing
  what is popped (model-checked against a sorted list).
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simkernel import ActivityFailed, Constraint, Engine
from repro.simkernel.engine import _Calendar
from repro.simkernel.lmm import (
    Variable, fill_vectorized, patch_solve, solve_reference,
)
from repro.simkernel.telemetry import EngineMetrics


# ---------------------------------------------------------------------------
# patch_solve: unit cases
# ---------------------------------------------------------------------------

def test_patch_applies_on_local_departure():
    """Two independent links; a departure on link 0 re-rates only its
    survivor and leaves link 1 untouched."""
    caps = np.asarray([100.0, 60.0])
    # Variables 0 (link 0), 1 and 2 (link 1); variable 0's former peer
    # on link 0 just departed, so rates still show the old 50/50 split.
    rates = np.asarray([50.0, 30.0, 30.0])
    bounds = np.full(3, np.inf)
    var_idx = np.asarray([0, 1, 2], dtype=np.intp)
    cons_idx = np.asarray([0, 1, 1], dtype=np.intp)
    ok, levels, cone = patch_solve(caps, bounds, rates, var_idx, cons_idx,
                                   np.asarray([0], dtype=np.intp))
    assert ok
    assert cone == 1
    np.testing.assert_allclose(rates, [100.0, 30.0, 30.0])


def test_patch_fallback_restores_rates_exactly():
    caps = np.asarray([100.0])
    rates = np.asarray([50.0, 0.0])  # arrival with rate 0, stale peer
    bounds = np.full(2, np.inf)
    var_idx = np.asarray([0, 1], dtype=np.intp)
    cons_idx = np.asarray([0, 0], dtype=np.intp)
    before = rates.copy()
    ok, _, _ = patch_solve(caps, bounds, rates, var_idx, cons_idx,
                           np.asarray([0], dtype=np.intp), cone_limit=0)
    assert not ok
    np.testing.assert_array_equal(rates, before)


def test_patch_refuses_nonfinite_state():
    caps = np.asarray([np.inf])
    rates = np.asarray([1.0])
    bounds = np.asarray([np.inf])
    idx = np.asarray([0], dtype=np.intp)
    ok, _, _ = patch_solve(caps, bounds, rates, idx, idx,
                           np.asarray([0], dtype=np.intp))
    assert not ok


def test_patch_empty_cone_when_last_user_departs():
    """Seeds whose columns have no remaining users: nothing to re-rate,
    trivially certified."""
    caps = np.asarray([100.0, 60.0])
    rates = np.asarray([60.0])           # only link 1's user remains
    bounds = np.asarray([np.inf])
    var_idx = np.asarray([0], dtype=np.intp)
    cons_idx = np.asarray([1], dtype=np.intp)
    ok, levels, cone = patch_solve(caps, bounds, rates, var_idx, cons_idx,
                                   np.asarray([0], dtype=np.intp))
    assert ok and cone == 0 and levels == 0
    np.testing.assert_array_equal(rates, [60.0])


# ---------------------------------------------------------------------------
# patch_solve: randomized arrival/departure histories vs the oracle
# ---------------------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_patch_history_matches_reference_oracle(data):
    """Replay a random history of arrivals and swap-remove departures
    (mixed private bounds, equal weights — the engine's contract) through
    ``patch_solve``.  After every step the live rate vector must equal a
    from-scratch ``solve_reference`` to 1e-9: directly when the patch
    certifies, and after the counted full-fill fallback when it does
    not.  Fatpipe resources never reach this layer (the engine turns
    them into the private bounds drawn here)."""
    ncols = data.draw(st.integers(1, 5))
    caps_list = data.draw(st.lists(st.floats(0.1, 1e6),
                                   min_size=ncols, max_size=ncols))
    caps = np.asarray(caps_list)
    active = []            # (cols, bound) per live variable
    rates = np.zeros(0)
    fallbacks = 0
    for _ in range(data.draw(st.integers(1, 10))):
        if active and data.draw(st.booleans()):
            i = data.draw(st.integers(0, len(active) - 1))
            seeds = set(active[i][0])
            last = len(active) - 1
            active[i] = active[last]
            active.pop()
            rates[i] = rates[last]       # engine-style swap-remove
            rates = rates[:last].copy()
        else:
            cols = data.draw(st.lists(st.integers(0, ncols - 1),
                                      min_size=1, max_size=ncols,
                                      unique=True))
            bound = data.draw(st.one_of(st.none(),
                                        st.floats(0.1, 1e6)))
            active.append((cols, bound))
            rates = np.append(rates, 0.0)
            seeds = set(cols)
        if not active:
            continue
        bounds = np.asarray([np.inf if b is None else b
                             for _, b in active])
        var_idx = np.asarray([vi for vi, (cols, _) in enumerate(active)
                              for _ in cols], dtype=np.intp)
        cons_idx = np.asarray([c for cols, _ in active for c in cols],
                              dtype=np.intp)
        ok, _, _ = patch_solve(caps, bounds, rates, var_idx, cons_idx,
                               np.asarray(sorted(seeds), dtype=np.intp))
        if not ok:
            fallbacks += 1
            rates, _ = fill_vectorized(caps, bounds, var_idx, cons_idx)
        cons_objs = [Constraint(c) for c in caps_list]
        variables = [Variable([cons_objs[c] for c in cols], bound=b)
                     for cols, b in active]
        solve_reference(variables)
        expect = np.asarray([v.rate for v in variables])
        np.testing.assert_allclose(rates, expect, rtol=1e-9, atol=1e-9)


# ---------------------------------------------------------------------------
# The heap event calendar
# ---------------------------------------------------------------------------

class _FakeAct:
    """The two attributes _Calendar reads off an activity."""

    __slots__ = ("epoch", "done")

    def __init__(self) -> None:
        self.epoch = 0
        self.done = False


def test_calendar_pops_by_time_then_fifo():
    cal = _Calendar()
    a, b, c, d = (_FakeAct() for _ in range(4))
    cal.push(2.0, a)
    cal.push(1.0, b)
    cal.push(2.0, c)
    cal.push(2.0, d)
    assert cal.pop() == (1.0, b)
    assert cal.pop() == (2.0, a)   # FIFO among simultaneous events
    assert cal.pop() == (2.0, c)
    assert cal.pop() == (2.0, d)
    assert cal.pop() is None
    assert cal.stale == 0


def test_calendar_skips_and_counts_stale_entries():
    """An epoch bump or a ``done`` flag invalidates an entry lazily: it
    stays in the heap, never fires, and is counted when it surfaces."""
    cal = _Calendar()
    rearmed, finished, kept = _FakeAct(), _FakeAct(), _FakeAct()
    cal.push(1.0, rearmed)
    cal.push(2.0, finished)
    cal.push(4.0, kept)
    rearmed.epoch += 1             # re-arm = bump + fresh push
    cal.push(3.0, rearmed)
    finished.done = True
    assert len(cal.heap) == 4           # nothing is deleted eagerly
    assert cal.pop() == (3.0, rearmed)
    assert cal.stale == 2
    assert cal.pop() == (4.0, kept)
    assert cal.pop() is None
    assert cal.stale == 2
    finished.done = False          # only stale entries: None, all counted
    finished.epoch += 1
    cal.push(5.0, finished)
    finished.epoch += 1
    assert cal.pop() is None
    assert cal.stale == 3 and len(cal.heap) == 0


def test_calendar_compaction_drops_stale_and_keeps_order():
    """The regression the compaction watermark exists for: exactly the
    invalidated entries (done flag or epoch bump) are dropped, and the
    survivors still pop in exact (time, FIFO) order afterwards."""
    cal = _Calendar()
    acts = [_FakeAct() for _ in range(50)]
    times = [float((i * 7 % 50) // 2) for i in range(50)]  # shuffled, ties
    for time_, act in zip(times, acts):
        cal.push(time_, act)
    for i, act in enumerate(acts):
        if i % 4 == 0:
            act.done = True
        elif i % 2 == 0:
            act.epoch += 1
    expect = sorted((times[i], i) for i in range(50) if i % 2 == 1)
    cal.compact()
    assert len(cal.heap) == 25
    assert cal.stale == 25
    cal.compact()                  # nothing stale left: a no-op
    assert len(cal.heap) == 25 and cal.stale == 25
    popped = [cal.pop() for _ in range(25)]
    assert popped == [(t, acts[i]) for t, i in expect]
    assert cal.pop() is None
    assert cal.stale == 25


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(
    st.tuples(st.just("push"), st.integers(0, 7), st.integers(0, 5)),
    st.tuples(st.just("invalidate"), st.integers(0, 7)),
    st.tuples(st.just("complete"), st.integers(0, 7)),
    st.tuples(st.just("pop")),
    st.tuples(st.just("compact")),
), max_size=80))
def test_calendar_matches_sorted_list_oracle(ops):
    """Random push / invalidate / complete / pop / compact histories
    against a sorted list of ``(time, push order, epoch, act)``: same
    pops in the same order, and every invalidated entry is counted as
    stale exactly once, whether a pop or a compaction discards it."""
    cal = _Calendar()
    acts = [_FakeAct() for _ in range(8)]
    model = []                     # every entry not yet discarded
    pushes = stale = 0

    def valid(entry):
        return not entry[3].done and entry[2] == entry[3].epoch

    for op in ops:
        if op[0] == "push":
            act = acts[op[1]]
            pushes += 1
            model.append((float(op[2]), pushes, act.epoch, act))
            cal.push(float(op[2]), act)
        elif op[0] == "invalidate":
            acts[op[1]].epoch += 1
        elif op[0] == "complete":
            acts[op[1]].done = True
        elif op[0] == "compact":
            stale += sum(not valid(e) for e in model)
            model = [e for e in model if valid(e)]
            cal.compact()
        else:
            model.sort(key=lambda e: e[:2])
            expect = None
            while model:
                entry = model.pop(0)
                if valid(entry):
                    expect = (entry[0], entry[3])
                    break
                stale += 1
            assert cal.pop() == expect
        assert len(cal.heap) == len(model)
        assert cal.stale == stale


def test_run_until_leaves_the_next_event_in_place():
    """``run(until=...)`` looks at the next event without popping it:
    resuming fires that same event at its original instant, and the
    pause costs neither a stale entry nor a popped event."""
    def run(horizons):
        metrics = EngineMetrics()
        engine = Engine(metrics=metrics)
        cpu = Constraint(1e9, "cpu")
        ends = []

        def proc():
            for flops in (3e9, 2e9):
                yield engine.exec_activity(cpu, flops)
                ends.append(engine.now)

        engine.add_process("p", proc())
        paused = [engine.run(until=h) for h in horizons]
        assert paused == list(horizons)
        return engine.run(), ends, metrics.as_dict()

    straight = run(())
    assert straight[:2] == (5.0, [3.0, 5.0])
    resumed = run((1.0, 2.5, 4.0))
    assert resumed[:2] == straight[:2]
    assert resumed[2]["stale_heap_entries_skipped"] == 0
    # A pause pops nothing: only the two real completions are counted.
    assert resumed[2]["events_popped"] == straight[2]["events_popped"] == 2


def test_engine_counts_calendar_rebuilds():
    """Churny workload with a lowered watermark: compactions fire, are
    surfaced as ``calendar_rebuilds``, and change nothing observable.
    Forty concurrent single-activity groups keep forty armed calendar
    slots live, so the occupied prefix clears the tiny watermark."""
    def run(lowered):
        metrics = EngineMetrics()
        engine = Engine(metrics=metrics)
        if lowered:
            engine._heap_floor = 8
        cpus = [Constraint(1e9, f"cpu{k}") for k in range(40)]
        ends = {}

        def proc(name, k):
            for i in range(20):
                yield engine.exec_activity(cpus[k],
                                           1e6 * (1 + (k + i) % 5))
            ends[name] = engine.now

        for k in range(40):
            engine.add_process(f"p{k}", proc(f"p{k}", k))
        engine.run()
        return ends, metrics.as_dict()

    base_ends, base = run(lowered=False)
    ends, lowered = run(lowered=True)
    assert ends == base_ends
    assert base["calendar_rebuilds"] == 0
    assert lowered["calendar_rebuilds"] >= 1
    assert "heap_compactions" not in lowered


# ---------------------------------------------------------------------------
# The engine's incremental path
# ---------------------------------------------------------------------------

def _staggered_run(metrics=None, **engine_kwargs):
    """A workload whose arrivals/departures hit a vectorized
    multi-constraint group at distinct instants: flows over a small
    link ring (one shared group — single-constraint groups would take
    the engine's scalar fast path and never reach the solver), mixed
    bounds for multi-level fillings, staggered starts for patch seeds.
    """
    engine = Engine(metrics=metrics, vector_threshold=4, **engine_kwargs)
    links = [Constraint(1e8, f"l{i}") for i in range(3)]
    pairs = [(0, 1), (1, 2), (0, 2)]
    ends = {}

    def proc(name, k):
        if k:
            yield engine.timer(0.02 * k)
        a, b = pairs[k % 3]
        bound = [None, 0.6e8, 0.2e8][k % 3]
        yield engine.comm_activity([links[a], links[b]],
                                   size=1e7 * (k + 2), latency=0.0,
                                   bound=bound)
        ends[name] = engine.now

    for k in range(12):
        engine.add_process(f"p{k}", proc(f"p{k}", k))
    engine.run()
    return ends


def test_incremental_engine_matches_full_engine(monkeypatch):
    monkeypatch.setattr("repro.simkernel.engine._PATCH_MIN_LEVELS", 0)
    metrics = EngineMetrics()
    ends = _staggered_run(metrics=metrics, incremental=True)
    assert ends == _staggered_run(incremental=False)
    assert ends == _staggered_run()    # incremental defaults on
    doc = metrics.as_dict()
    assert doc["incremental_patches"] > 0
    assert doc["full_resolves"] > 0
    assert doc["filling_level_histogram"]
    # Histogram keys are strings (JSON/merge-friendly) counting levels.
    assert all(int(k) >= 1 for k in doc["filling_level_histogram"])


def test_every_patch_forced_to_fall_back_is_counted_and_harmless(
        monkeypatch):
    """The loud-fallback contract: even if no patch ever certifies, the
    replay result is untouched and every failure is counted."""
    monkeypatch.setattr("repro.simkernel.engine._PATCH_MIN_LEVELS", 0)
    baseline = _staggered_run(incremental=False)
    monkeypatch.setattr("repro.simkernel.engine.patch_solve",
                        lambda *a, **k: (False, 0, 0))
    metrics = EngineMetrics()
    assert _staggered_run(metrics=metrics, incremental=True) == baseline
    doc = metrics.as_dict()
    assert doc["patch_fallbacks"] > 0
    assert doc["incremental_patches"] == 0


def test_incremental_toggle_defaults_and_validation():
    assert Engine().incremental is True
    assert Engine(incremental=False).incremental is False
    with pytest.raises(ValueError, match="unknown lmm_mode"):
        Engine(lmm_mode="fancy")


# ---------------------------------------------------------------------------
# Array-backed groups: merges are absorbed in place, shrunk groups demote
# ---------------------------------------------------------------------------

def _scripted_run(script, n_links, caps=None, metrics=None, lmm_mode="auto",
                  vector_threshold=2, incremental=True, faults=()):
    """Run ``script`` — ``(start, link indices, size, bound)`` per flow —
    on ``n_links`` fresh links with ``vector_threshold=2`` by default (any
    group of two activities goes array-backed).  ``faults`` entries are
    ``(when, "fail", flow index)``, ``(when, "cap", link, capacity)`` or
    ``(when, "call", fn)`` (a probe, called with the links).
    Returns ``(completion time or "failed" per flow, engine, links)``.
    """
    engine = Engine(metrics=metrics, lmm_mode=lmm_mode,
                    vector_threshold=vector_threshold,
                    incremental=incremental)
    caps = caps or [1e8] * n_links
    links = [Constraint(c, f"l{i}") for i, c in enumerate(caps)]
    ends = [None] * len(script)
    acts = [None] * len(script)

    def flow(k, start, idx, size, bound):
        if start:
            yield engine.timer(start)
        acts[k] = engine.comm_activity([links[i] for i in idx], size=size,
                                       latency=0.0, bound=bound)
        try:
            yield acts[k]
            ends[k] = engine.now
        except ActivityFailed:
            ends[k] = "failed"

    def saboteur():
        clock = 0.0
        for when, what, *args in sorted(faults, key=lambda f: f[0]):
            yield engine.timer(when - clock)
            clock = when
            if what == "fail":
                engine.fail_activity(acts[args[0]], "test")
            elif what == "cap":
                engine.set_capacity(links[args[0]], args[1])
            else:
                args[0](links)

    for k, (start, idx, size, bound) in enumerate(script):
        engine.add_process(f"f{k}", flow(k, start, idx, size, bound))
    if faults:
        engine.add_process("saboteur", saboteur(), daemon=True)
    engine.run()
    return ends, engine, links


def _assert_ends_close(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if isinstance(w, str) or isinstance(g, str):
            assert g == w
        else:
            assert g == pytest.approx(w, rel=1e-9, abs=1e-12)


def _assert_all_configs_agree(script, n_links, monkeypatch, **kw):
    """Absorbing engine (patching on, every patch attempted) == absorbing
    engine without patches == the scalar oracle, on every flow."""
    monkeypatch.setattr("repro.simkernel.engine._PATCH_MIN_LEVELS", 0)
    oracle, _, _ = _scripted_run(script, n_links, lmm_mode="reference", **kw)
    assert None not in oracle
    for threshold, incremental in ((2, True), (2, False), (1, True)):
        got, _, _ = _scripted_run(script, n_links,
                                  vector_threshold=threshold,
                                  incremental=incremental, **kw)
        _assert_ends_close(got, oracle)
    return oracle


def test_array_backed_group_survives_a_scalar_side_with_more_constraints(
        monkeypatch):
    """Flows 0-1 make a 2-link array-backed group; flow 2 sits alone on
    three links (scalar: one activity is under the threshold).  Flow 3
    bridges them: the array-backed side must survive although the
    scalar side brings more constraints, and nothing re-attaches."""
    script = [(0.0, (0, 1), 4e7, None), (0.0, (0, 1), 6e7, 3e7),
              (0.0, (2, 3, 4), 9e7, None), (0.1, (1, 2), 2e7, None)]
    seen = []

    def probe(links):
        groups = (links[0].group, links[2].group)
        seen.append([(g, g.vectorized, len(g.cons)) for g in groups])

    metrics = EngineMetrics()
    _scripted_run(script, 5, metrics=metrics,
                  faults=[(0.05, "call", probe), (0.15, "call", probe)])
    (array_side, *before), (_, *scalar_before) = seen[0]
    assert before == [True, 2] and scalar_before == [False, 3]
    assert seen[1] == [(array_side, True, 5)] * 2
    doc = metrics.as_dict()
    assert doc["group_merges"] == 1
    assert doc["vector_attaches"] == 1
    _assert_all_configs_agree(script, 5, monkeypatch)


def test_array_backed_group_absorbs_an_array_backed_group(monkeypatch):
    """Two array-backed groups bridged by a fifth flow: one survives,
    the other's rows are appended to it — two attaches in all, none
    caused by the merge."""
    script = [(0.0, (0, 1), 4e7, None), (0.0, (0, 1), 5e7, 2e7),
              (0.0, (2, 3), 7e7, None), (0.0, (2, 3), 3e7, None),
              (0.2, (1, 2), 6e7, None), (0.9, (0, 3), 1e7, None)]
    probed = []

    def probe(links):
        # Inside the run: the engine releases its groups when it ends.
        assert len({id(link.group) for link in links}) == 1
        assert links[0].group.vectorized
        probed.append(True)

    metrics = EngineMetrics()
    _scripted_run(script, 4, metrics=metrics, faults=[(0.5, "call", probe)])
    doc = metrics.as_dict()
    assert doc["group_merges"] == 1
    assert doc["vector_attaches"] == 2
    assert probed
    _assert_all_configs_agree(script, 4, monkeypatch)


def test_row_order_of_an_array_backed_group_is_activity_start_order():
    """Iteration order is a function of the input: rows (hence fill
    summation order and arg-min tie-breaks) follow activity start order,
    through the attach and through an absorbed scalar group — never
    object addresses."""
    engine = Engine(vector_threshold=3)
    links = [Constraint(1e8, f"l{i}") for i in range(6)]
    started = []

    def flow(k, start, idx):
        if start:
            yield engine.timer(start)
        act = engine.comm_activity([links[i] for i in idx], size=1e9,
                                   latency=0.0, name=f"a{k}")
        started.append(act)
        yield act

    def probe():
        yield engine.timer(0.5)
        group = links[0].group
        assert group.vectorized and group is links[4].group
        names = [a.name for a in group.acts_list]
        # Flows 0-3 attach in start order; flow 6 bridges to the scalar
        # group of flows 4-5, whose members are appended in *their*
        # start order, then flow 6 itself.
        assert names == ["a0", "a1", "a2", "a3", "a4", "a5", "a6"]
        assert list(group.acts) == group.acts_list
        assert list(links[0].users) == [started[0], started[1],
                                        started[2]]
        for act in started:
            engine.fail_activity(act, "probe done")

    specs = [(0.0, (0, 1)), (0.0, (0, 1)), (0.0, (0, 2)), (0.1, (1, 2)),
             (0.2, (3, 4)), (0.2, (4, 5)), (0.3, (2, 3))]
    for k, (start, idx) in enumerate(specs):
        engine.add_process(f"f{k}", flow(k, start, idx))
    engine.add_process("probe", probe(), daemon=True)
    engine.run()
    assert len(started) == 7


def test_fail_absorbed_activity_and_lazy_column_capacity_change(monkeypatch):
    """fail_activity on an activity that entered the arrays by being
    absorbed, and set_capacity on constraints whose column is created
    lazily: l6 is a member of the array-backed group from the absorb on
    (its flow is long gone: no row, no column) and l5 of no group at
    all when their capacities change — nothing to patch, each column is
    born with the new capacity when its first user arrives — then l5
    and l1 again under load."""
    script = [(0.0, (0, 1), 6e7, None), (0.0, (1, 2), 8e7, 5e7),
              (0.05, (3, 4), 9e7, 4e7),       # scalar, absorbed at 0.1
              (0.0, (4, 6), 2e6, None),       # done by 0.02: l6 idle
              (0.1, (2, 3), 5e7, None),       # the bridge
              (0.4, (4, 5), 3e7, None),       # l5's first user
              (0.4, (5, 0), 2e7, None),
              (0.4, (6, 0), 4e7, None)]       # l6's first array user
    faults = [(0.2, "fail", 2), (0.3, "cap", 5, 2e7), (0.3, "cap", 6, 1e7),
              (0.5, "cap", 5, 6e7), (0.6, "cap", 1, 3e7)]
    ends = _assert_all_configs_agree(script, 7, monkeypatch, faults=faults)
    assert ends[2] == "failed"
    assert all(isinstance(t, float) for i, t in enumerate(ends) if i != 2)
    # The lazily created column really carries the reduced capacity.
    assert ends[7] >= 0.4 + 4e7 / 1e7

    probed = []

    def probe(links):
        # Inside the run: the engine releases its groups when it ends.
        group = links[0].group
        assert group.vectorized and links[6].group is group
        assert links[6] in group.col and links[5] in group.col
        probed.append(True)

    _scripted_run(script, 7, faults=faults[:3] + [(0.45, "call", probe)])
    assert probed


_INF = float("inf")


@pytest.mark.filterwarnings("ignore:invalid value encountered")  # inf * 0
def test_absorbed_activities_with_infinite_rate_and_zero_remaining(
        monkeypatch):
    """Two corner rows an absorb must carry over intact.  Flow 3 runs
    alone on an uncapped link (rate inf, completion armed for *now*)
    when flow 4, started at the same instant, bridges it into the
    array-backed group: the invalidated event must not lose it.  Flow 2
    has drained to exactly zero at t=0.5, its completion still in the
    calendar, when flow 5 (an earlier-armed timer) bridges it in."""
    caps = [1e8, 1e8, _INF, 1e8]
    script = [(0.0, (0, 1), 9e7, None), (0.0, (0, 1), 9e7, 2e7),
              (0.0, (3,), 5e7, None),
              (0.25, (2,), 5e7, None), (0.25, (1, 2), 1e7, None),
              (0.5, (0, 3), 1e7, None)]
    # Timers fire FIFO: registering the 0.5 bridge first puts it ahead
    # of flow 2's completion event at that instant.
    script = [script[5]] + script[:5]
    ends = _assert_all_configs_agree(script, 4, monkeypatch, caps=caps)
    assert ends[4] == 0.25      # the uncapped flow: instantaneous
    assert ends[3] == 0.5       # the drained flow: on time


def _live_rate(act):
    """An activity's current rate: the clock rate while its group runs
    on its single-bottleneck clock, its row while the group is otherwise
    array-backed, its attribute otherwise."""
    group = act.constraints[0].group
    if group.vectorized:
        if group.clock is not None:
            return group.clock_rate
        return float(group.rate[group.row[act]])
    return act.rate


def _demotion_run(**engine_kwargs):
    """Two waves of eight flows over l0+l1 / l1+l2 (mixed bounds), the
    second at t=1.  A daemon probes every 13.7 ms — between events —
    and records each live flow's rate and the shared group's state.
    Returns ``(probes, metrics)``."""
    metrics = EngineMetrics()
    engine = Engine(metrics=metrics, **engine_kwargs)
    links = [Constraint(1e8, f"l{i}") for i in range(3)]
    bounds = [None, 4e6, None, None, 2e7, None, 6e6, None]
    acts = {}
    probes = []

    def flow(k):
        if k >= 8:
            yield engine.timer(1.0)
        idx = (0, 1) if k % 2 else (1, 2)
        acts[k] = engine.comm_activity([links[i] for i in idx],
                                       size=1e6 * (k % 8 + 1), latency=0.0,
                                       bound=bounds[k % 8])
        yield acts[k]

    def probe():
        while engine.now < 2.5:
            yield engine.timer(0.0137)
            group = links[1].group
            rates = {k: _live_rate(a) for k, a in acts.items()
                     if a.registered}
            probes.append((rates, group.vectorized,
                           getattr(group, "rem", None) is None))

    for k in range(16):
        engine.add_process(f"f{k}", flow(k))
    engine.add_process("probe", probe(), daemon=True)
    engine.run()
    return probes, metrics.as_dict()


def test_shrunk_group_demotes_to_scalar_and_regrows_into_arrays():
    """Threshold 8 puts the demotion cut at 2: the first wave attaches
    the group at t=0 and drains until one flow is left, the re-rate
    that finds it alone hands the group back to the scalar filling and
    drops its arrays, and the second wave re-attaches it.  At every
    probe each live flow's rate equals the reference engine's."""
    probes, doc = _demotion_run(vector_threshold=8)
    oracle, _ = _demotion_run(lmm_mode="reference")
    assert len(probes) == len(oracle)
    for (rates, _, _), (want, _, _) in zip(probes, oracle):
        assert rates.keys() == want.keys()
        for k, rate in rates.items():
            assert rate == pytest.approx(want[k], rel=1e-9)
    states = [(vectorized, dropped) for rates, vectorized, dropped in probes
              if rates]
    first_scalar = states.index((False, True))
    assert states[0] == (True, False)
    assert (True, False) in states[first_scalar:]
    assert all(state in ((True, False), (False, True)) for state in states)
    assert doc["vector_attaches"] == 2
    assert doc["vector_demotions"] == 2


def test_threshold_one_never_demotes():
    """vector_threshold=1 (array filling on every group) gives a cut of
    0: the group stays array-backed down to its last flow."""
    probes, doc = _demotion_run(vector_threshold=1)
    assert all(vectorized for rates, vectorized, _ in probes if rates)
    assert doc["vector_demotions"] == 0


@pytest.mark.filterwarnings("ignore:invalid value encountered")  # inf * 0
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_random_merge_histories_match_the_scalar_oracle(data):
    """Random arrival/merge histories with array-backing forced
    (threshold 2): array+scalar, array+array and scalar+array unions,
    merges while the survivor holds an armed event, absorbed activities
    with finite bounds, infinite rates (an uncapped link) and zero
    remaining (starts quantised so that merges land on completion
    instants).  Threshold 8 puts the demotion cut at 2, and a second
    wave of arrivals 30 s in regrows groups that drained and demoted,
    so demote/re-attach cycles are drawn too.  Every completion time
    equals the reference engine's to 1e-9, with and without incremental
    patching."""
    n_links = data.draw(st.integers(3, 8), label="links")
    caps = [data.draw(st.sampled_from([1e8, 1e8, 5e7, 2.5e7, _INF]),
                      label=f"cap{i}") for i in range(n_links)]
    script = []
    for k in range(data.draw(st.integers(2, 24), label="flows")):
        width = data.draw(st.integers(1, min(3, n_links)))
        idx = tuple(data.draw(st.permutations(range(n_links)))[:width])
        script.append((
            0.25 * data.draw(st.integers(0, 6))
            + 30.0 * data.draw(st.integers(0, 1), label="wave"),
            idx,
            2.5e7 * data.draw(st.integers(1, 8)),
            data.draw(st.sampled_from([None, None, 1e8, 5e7, 1.25e7])),
        ))
    oracle, _, _ = _scripted_run(script, n_links, caps=caps,
                                 lmm_mode="reference")
    assert None not in oracle
    # (not the monkeypatch fixture: it is function-scoped, @given is not)
    with mock.patch("repro.simkernel.engine._PATCH_MIN_LEVELS", 0):
        for threshold in (2, 8):
            for incremental in (True, False):
                metrics = EngineMetrics()
                got, _, _ = _scripted_run(script, n_links, caps=caps,
                                          metrics=metrics,
                                          vector_threshold=threshold,
                                          incremental=incremental)
                _assert_ends_close(got, oracle)
                doc = metrics.as_dict()
                assert doc["vector_demotions"] <= doc["vector_attaches"]
