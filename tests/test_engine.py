"""Unit tests for the fluid discrete-event engine."""

import pytest

from repro.simkernel import (
    Constraint,
    DeadlockError,
    Engine,
    WaitAny,
)


def test_single_exec_duration():
    engine = Engine()
    cpu = Constraint(1e9, "cpu")
    times = {}

    def proc():
        act = engine.exec_activity(cpu, 2e9)
        yield act
        times["end"] = engine.now

    engine.add_process("p", proc())
    engine.run()
    assert times["end"] == pytest.approx(2.0)


def test_two_execs_share_cpu():
    engine = Engine()
    cpu = Constraint(1e9, "cpu")
    ends = {}

    def proc(name, flops):
        yield engine.exec_activity(cpu, flops)
        ends[name] = engine.now

    engine.add_process("a", proc("a", 1e9))
    engine.add_process("b", proc("b", 1e9))
    engine.run()
    # Each gets 0.5 Gflop/s while both run: both end at t=2.
    assert ends["a"] == pytest.approx(2.0)
    assert ends["b"] == pytest.approx(2.0)


def test_shorter_task_releases_capacity():
    engine = Engine()
    cpu = Constraint(1e9, "cpu")
    ends = {}

    def proc(name, flops):
        yield engine.exec_activity(cpu, flops)
        ends[name] = engine.now

    engine.add_process("short", proc("short", 1e9))
    engine.add_process("long", proc("long", 3e9))
    engine.run()
    # Shared until t=2 (short done: 1e9 at 0.5e9/s); long then has
    # 2e9 left at full speed -> ends at t=4.
    assert ends["short"] == pytest.approx(2.0)
    assert ends["long"] == pytest.approx(4.0)


def test_exec_bound_limits_rate():
    engine = Engine()
    cpu = Constraint(4e9, "cpu")  # 4-core host
    ends = {}

    def proc():
        yield engine.exec_activity(cpu, 1e9, bound=1e9)  # one core max
        ends["t"] = engine.now

    engine.add_process("p", proc())
    engine.run()
    assert ends["t"] == pytest.approx(1.0)


def test_timer():
    engine = Engine()
    ends = {}

    def proc():
        yield engine.timer(2.5)
        ends["t"] = engine.now

    engine.add_process("p", proc())
    engine.run()
    assert ends["t"] == pytest.approx(2.5)


def test_comm_latency_plus_bandwidth():
    engine = Engine()
    link = Constraint(1e8, "link")
    ends = {}

    def proc():
        act = engine.comm_activity([link], size=1e8, latency=0.5)
        yield act
        ends["t"] = engine.now

    engine.add_process("p", proc())
    engine.run()
    assert ends["t"] == pytest.approx(1.5)  # 0.5 latency + 1.0 transfer


def test_comm_rate_factor_scales_throughput():
    engine = Engine()
    link = Constraint(1e8, "link")
    ends = {}

    def proc():
        yield engine.comm_activity([link], size=1e8, latency=0.0,
                                   rate_factor=0.5)
        ends["t"] = engine.now

    engine.add_process("p", proc())
    engine.run()
    assert ends["t"] == pytest.approx(2.0)


def test_two_flows_share_link():
    engine = Engine()
    link = Constraint(1e8, "link")
    ends = {}

    def proc(name):
        yield engine.comm_activity([link], size=1e8, latency=0.0)
        ends[name] = engine.now

    engine.add_process("a", proc("a"))
    engine.add_process("b", proc("b"))
    engine.run()
    assert ends["a"] == pytest.approx(2.0)
    assert ends["b"] == pytest.approx(2.0)


def test_zero_size_comm_costs_latency_only():
    engine = Engine()
    link = Constraint(1e8, "link")
    ends = {}

    def proc():
        yield engine.comm_activity([link], size=0.0, latency=0.25)
        ends["t"] = engine.now

    engine.add_process("p", proc())
    engine.run()
    assert ends["t"] == pytest.approx(0.25)


def test_wait_any_returns_first_completion():
    engine = Engine()
    winner = {}

    def proc():
        slow = engine.timer(5.0, name="slow")
        fast = engine.timer(1.0, name="fast")
        done = yield WaitAny([slow, fast])
        winner["name"] = done.name
        winner["t"] = engine.now
        yield slow  # drain the other

    engine.add_process("p", proc())
    engine.run()
    assert winner["name"] == "fast"
    assert winner["t"] == pytest.approx(1.0)


def test_wait_on_already_done_activity_resumes_immediately():
    engine = Engine()
    order = []

    def proc():
        act = engine.timer(1.0)
        yield act
        order.append(("first", engine.now))
        yield act  # already done: no extra time
        order.append(("second", engine.now))

    engine.add_process("p", proc())
    engine.run()
    assert order == [("first", 1.0), ("second", 1.0)]


def test_deadlock_detection():
    engine = Engine()

    def proc():
        from repro.simkernel.activity import Waitable
        never = Waitable()
        yield never

    engine.add_process("stuck", proc())
    with pytest.raises(DeadlockError) as err:
        engine.run()
    assert "stuck" in str(err.value)


def test_run_until_pauses_clock():
    engine = Engine()

    def proc():
        yield engine.timer(10.0)

    engine.add_process("p", proc())
    t = engine.run(until=3.0)
    assert t == pytest.approx(3.0)
    t = engine.run()
    assert t == pytest.approx(10.0)


def test_process_result_captured():
    engine = Engine()

    def proc():
        yield engine.timer(1.0)
        return 42

    handle = engine.add_process("p", proc())
    engine.run()
    assert handle.result == 42
    assert not handle.alive


def test_bad_yield_type_raises():
    engine = Engine()

    def proc():
        yield "nonsense"

    engine.add_process("p", proc())
    with pytest.raises(TypeError):
        engine.run()


def test_sequential_chain_of_processes():
    """A -> B -> C message-free handoff via shared waitables."""
    engine = Engine()
    from repro.simkernel.activity import Waitable
    token_ab = Waitable()
    token_bc = Waitable()
    log = []

    def a():
        yield engine.timer(1.0)
        log.append(("a", engine.now))
        engine.complete_waitable(token_ab)

    def b():
        yield token_ab
        yield engine.timer(1.0)
        log.append(("b", engine.now))
        engine.complete_waitable(token_bc)

    def c():
        yield token_bc
        log.append(("c", engine.now))

    engine.add_process("a", a())
    engine.add_process("b", b())
    engine.add_process("c", c())
    engine.run()
    assert log == [("a", 1.0), ("b", 2.0), ("c", 2.0)]


def _fan_in_run(lmm_mode, metrics=None, vector_threshold=48):
    """96 flows over a few heterogeneous links: big enough to cross the
    vectorization threshold, lopsided enough to need several filling
    levels per recompute."""
    engine = Engine(metrics=metrics, lmm_mode=lmm_mode,
                    vector_threshold=vector_threshold)
    links = [Constraint(1e9 * (i + 1), f"l{i}") for i in range(4)]
    ends = {}

    def flow(name, link, other, size):
        yield engine.comm_activity([link, other], size, 1e-5)
        ends[name] = engine.now

    for i in range(96):
        engine.add_process(
            f"f{i}",
            flow(f"f{i}", links[i % 4], links[(i + 1) % 4], 1e8 * (1 + i % 7)),
        )
    engine.run()
    return ends


def test_vectorized_engine_matches_reference_engine():
    ref = _fan_in_run("reference")
    vec = _fan_in_run("auto", vector_threshold=1)
    assert ref.keys() == vec.keys()
    for name in ref:
        assert vec[name] == pytest.approx(ref[name], rel=1e-9)


def test_auto_mode_records_vectorized_recomputes():
    from repro.simkernel import Telemetry

    telemetry = Telemetry()
    _fan_in_run("auto", metrics=telemetry.engine)
    assert telemetry.engine.vectorized_recomputes > 0
    doc = telemetry.engine.as_dict()
    assert doc["vectorized_recomputes"] == telemetry.engine.vectorized_recomputes


def test_engine_rejects_unknown_lmm_mode():
    with pytest.raises(ValueError):
        Engine(lmm_mode="fancy")


# ----------------------------------------------------------------------
# Same-instant batching and the drained rule
# ----------------------------------------------------------------------
def _fire_order(horizons):
    """Two 1 s timers started as a, b; the order their completions fire
    in, after pausing the run at each of ``horizons``."""
    engine = Engine()
    order = []
    timers = [engine.timer(1.0, name=name) for name in ("a", "b")]
    for t in timers:
        t.on_complete(lambda t: order.append(t.name))

    def proc():
        for t in timers:
            yield t

    engine.add_process("p", proc())
    for h in horizons:
        assert engine.run(until=h) == h
    assert engine.run() == 1.0
    return order


def test_run_until_keeps_fifo_order_of_simultaneous_events():
    """A pause used to pop the next event and push it back with a fresh
    sequence number, so it fired after its simultaneous peers."""
    assert _fire_order(()) == ["a", "b"]
    assert _fire_order((0.5,)) == ["a", "b"]
    assert _fire_order((0.25, 0.5, 1.0)) == ["a", "b"]


@pytest.mark.parametrize("k, own_links", [(7, False), (64, True)])
def test_equal_flows_ending_together_cost_one_recompute(k, own_links):
    """k equal flows share one link with a short perturber: the link is
    saturated throughout, so the k flows all end at the closed-form
    instant (k * size + small) / capacity, and that instant costs one
    sharing recompute (the inline wave drains every flow but the armed
    one).  With a private link per flow the group is multi-constraint,
    and at k = 64 array-backed."""
    from repro.simkernel import EngineMetrics

    metrics = EngineMetrics()
    engine = Engine(metrics=metrics)
    cap, size, small = 1.25e9, 1e6, 1e5
    link = Constraint(cap, "link")
    ends = {}

    def flow(name, volume):
        links = [link, Constraint(1e15, f"own-{name}")] if own_links \
            else [link]
        yield engine.comm_activity(links, volume, 0.0)
        ends[name] = engine.now

    for i in range(k):
        engine.add_process(f"f{i}", flow(i, size))
    engine.add_process("small", flow("small", small))
    engine.run()
    assert ends.pop("small") == pytest.approx((k + 1) * small / cap,
                                              rel=1e-12)
    (end,) = set(ends.values())
    assert end == pytest.approx((k * size + small) / cap, rel=1e-12)
    doc = metrics.as_dict()
    # One recompute per instant: the start, the perturber's end, the end.
    assert doc["sharing_recomputes"] == 3
    assert doc["events_popped"] == 2
    assert (doc["vectorized_recomputes"] > 0) == (k >= 48)


def test_residue_row_drains_in_the_wave(monkeypatch):
    """Two 200 kB flows share a 1 GB/s link with a 100 kB one that joins
    at 0.1 ms.  When the armed flow ends at 0.5 ms its twin is left with
    float residue; it finishes in the same inline wave instead of being
    armed at 0.5 ms, so it costs no event of its own."""
    from repro.simkernel import EngineMetrics
    from repro.simkernel import engine as engine_mod

    residues = []
    drained = engine_mod._drained

    def spy(now, remaining, rate):
        hit = drained(now, remaining, rate)
        if hit and remaining > 0.0:
            residues.append(remaining)
        return hit

    monkeypatch.setattr(engine_mod, "_drained", spy)
    metrics = EngineMetrics()
    engine = Engine(metrics=metrics)
    link = Constraint(1e9, "link")
    ends = {}

    def flow(name, start, volume):
        if start:
            yield engine.timer(start)
        yield engine.comm_activity([link], volume, 0.0)
        ends[name] = engine.now

    engine.add_process("a", flow("a", 0.0, 2e5))
    engine.add_process("b", flow("b", 1e-4, 1e5))
    engine.add_process("c", flow("c", 0.0, 2e5))
    engine.run()
    assert ends == {"a": 5e-4, "b": 4e-4, "c": 5e-4}
    assert residues and max(residues) < 1e-6
    # b's start timer, b's end and a's end: c's residue popped nothing.
    assert metrics.as_dict()["events_popped"] == 3


def test_compaction_inside_a_batch_changes_nothing():
    """Forty processes, two per CPU, run equal bursts, so every round
    ends in one same-instant batch of twenty events.  A lowered
    watermark forces a calendar compaction in the middle of the first
    batch, which rebinds the heap list under the drain loop; times and
    per-process ends must match the unforced run exactly."""
    from repro.simkernel import EngineMetrics

    def run(lowered):
        metrics = EngineMetrics()
        engine = Engine(metrics=metrics)
        if lowered:
            engine._heap_floor = 4
        cpus = [Constraint(1e9, f"cpu{k}") for k in range(20)]
        ends = {}

        def proc(name, cpu):
            for _ in range(5):
                yield engine.exec_activity(cpu, 1e6)
            ends[name] = engine.now

        for k in range(40):
            engine.add_process(f"p{k}", proc(f"p{k}", cpus[k // 2]))
        return engine.run(), ends, metrics.as_dict()

    plain, forced = run(False), run(True)
    assert plain[2]["calendar_rebuilds"] == 0
    assert forced[2]["calendar_rebuilds"] >= 1
    assert forced[2]["same_instant_events"] > 0
    assert forced[:2] == plain[:2]
    assert plain[0] == pytest.approx(5 * 2 * 1e6 / 1e9, rel=1e-12)
