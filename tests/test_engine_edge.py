"""Edge-case and property tests for the lazy engine internals."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simkernel import Constraint, Engine, WaitAny
from repro.simkernel.activity import Waitable


def test_single_constraint_fast_path_mixed_bounds():
    """Bounded tasks below the fair share keep their bound; the rest split
    the remainder — on one CPU this exercises the dedicated fast path."""
    engine = Engine()
    cpu = Constraint(10e9, "cpu")
    ends = {}

    def proc(name, flops, bound):
        yield engine.exec_activity(cpu, flops, bound=bound)
        ends[name] = engine.now

    # slow is bounded to 1e9 (< fair share 10/3); fast pair splits 9e9.
    engine.add_process("slow", proc("slow", 1e9, 1e9))
    engine.add_process("fast1", proc("fast1", 4.5e9, None))
    engine.add_process("fast2", proc("fast2", 4.5e9, None))
    engine.run()
    assert ends["slow"] == pytest.approx(1.0)
    assert ends["fast1"] == pytest.approx(1.0)
    assert ends["fast2"] == pytest.approx(1.0)


def test_fast_path_matches_generic_solver():
    """A folded CPU must behave identically whether re-rated through the
    fast path or the generic component solver (forced by adding a second
    constraint to one activity)."""
    def run(couple_with_link: bool):
        engine = Engine()
        cpu = Constraint(1e9, "cpu")
        link = Constraint(1e12, "wide-link")  # never the bottleneck
        ends = {}

        def worker(name, flops):
            yield engine.exec_activity(cpu, flops, bound=5e8)
            ends[name] = engine.now

        def coupler():
            # A comm crossing cpu? Not physical; instead couple via a
            # second activity on the link so the component merges only
            # when requested.
            if couple_with_link:
                yield engine.comm_activity([link, cpu], size=1.0, latency=0)
            else:
                yield engine.timer(0.0)

        engine.add_process("a", worker("a", 1e9))
        engine.add_process("b", worker("b", 1e9))
        engine.add_process("c", coupler())
        engine.run()
        return ends

    plain = run(False)
    coupled = run(True)
    assert plain["a"] == pytest.approx(coupled["a"], rel=1e-6)
    assert plain["b"] == pytest.approx(coupled["b"], rel=1e-6)


def test_heap_compaction_under_churn():
    """Thousands of short overlapping activities force stale heap entries;
    compaction must not lose events or corrupt timing."""
    engine = Engine()
    cpu = Constraint(1e9, "cpu")
    done = []

    def proc(i):
        for _ in range(20):
            yield engine.exec_activity(cpu, 1e6)
        done.append(i)

    for i in range(300):
        engine.add_process(f"p{i}", proc(i))
    total = engine.run()
    assert len(done) == 300
    # 300 procs x 20 x 1e6 flops on 1e9 flops/s, perfectly shared.
    assert total == pytest.approx(6.0, rel=1e-6)


def test_wait_any_stale_registration_ignored():
    """After a WaitAny wakes on the first completion, the other waitable's
    later completion must not wake the process again."""
    engine = Engine()
    log = []

    def proc():
        fast = engine.timer(1.0, name="fast")
        slow = engine.timer(2.0, name="slow")
        winner = yield WaitAny([fast, slow])
        log.append(("woke", winner.name, engine.now))
        yield engine.timer(5.0)  # outlives slow's completion
        log.append(("end", engine.now))

    engine.add_process("p", proc())
    engine.run()
    assert log == [("woke", "fast", 1.0), ("end", 6.0)]


def test_zero_duration_everything():
    engine = Engine()
    log = []

    def proc():
        yield engine.timer(0.0)
        yield engine.exec_activity(Constraint(1e9), 0.0)
        yield engine.comm_activity([Constraint(1e8)], size=0.0, latency=0.0)
        log.append(engine.now)

    engine.add_process("p", proc())
    engine.run()
    assert log == [0.0]


def test_complete_waitable_idempotent():
    engine = Engine()
    token = Waitable()
    fired = []
    token.on_complete(lambda w: fired.append(1))
    engine.complete_waitable(token)
    engine.complete_waitable(token)
    assert fired == [1]


def test_until_inside_latency_phase():
    engine = Engine()

    def proc():
        yield engine.comm_activity([Constraint(1e8)], size=1e8, latency=0.5)

    engine.add_process("p", proc())
    t = engine.run(until=0.25)
    assert t == pytest.approx(0.25)
    t = engine.run()
    assert t == pytest.approx(1.5)


@settings(max_examples=60, deadline=None)
@given(
    flops=st.lists(st.floats(min_value=1e3, max_value=1e9), min_size=1,
                   max_size=12),
    capacity=st.floats(min_value=1e6, max_value=1e10),
)
def test_property_work_conservation_on_one_cpu(flops, capacity):
    """Total simulated time on one shared CPU equals total work divided by
    capacity (work conservation of max-min sharing), regardless of the
    job mix."""
    engine = Engine()
    cpu = Constraint(capacity, "cpu")

    def proc(amount):
        yield engine.exec_activity(cpu, amount)

    for i, amount in enumerate(flops):
        engine.add_process(f"p{i}", proc(amount))
    total = engine.run()
    assert total == pytest.approx(sum(flops) / capacity, rel=1e-6)


@settings(max_examples=40, deadline=None)
@given(
    durations=st.lists(st.floats(min_value=1e-3, max_value=10.0),
                       min_size=1, max_size=20),
)
def test_property_timers_finish_at_max(durations):
    engine = Engine()

    def proc(d):
        yield engine.timer(d)

    for i, duration in enumerate(durations):
        engine.add_process(f"p{i}", proc(duration))
    total = engine.run()
    assert total == pytest.approx(max(durations), rel=1e-9)


@settings(max_examples=40, deadline=None)
@given(
    sizes=st.lists(st.floats(min_value=1.0, max_value=1e8), min_size=2,
                   max_size=10),
)
def test_property_link_work_conservation(sizes):
    """Concurrent flows over one link finish, in aggregate, exactly when
    the link has moved all bytes."""
    engine = Engine()
    link = Constraint(1e8, "link")

    def proc(nbytes):
        yield engine.comm_activity([link], size=nbytes, latency=0.0)

    for i, nbytes in enumerate(sizes):
        engine.add_process(f"p{i}", proc(nbytes))
    total = engine.run()
    assert total == pytest.approx(sum(sizes) / 1e8, rel=1e-6)


def test_fatpipe_constraint_is_a_cap_not_shared():
    """Flows crossing a fatpipe link never contend on it, but are capped
    at its capacity (SimGrid's FATPIPE policy — non-blocking fabrics)."""
    engine = Engine()
    fat = Constraint(1e8, "fabric", fatpipe=True)
    ends = {}

    def flow(name):
        from repro.simkernel.activity import CommActivity
        act = CommActivity([fat], size=1e8, latency=0.0)
        engine.start_activity(act)
        yield act
        ends[name] = engine.now

    engine.add_process("a", flow("a"))
    engine.add_process("b", flow("b"))
    engine.run()
    # Both transfer at the full fabric rate concurrently: 1 s each, not 2.
    assert ends["a"] == pytest.approx(1.0)
    assert ends["b"] == pytest.approx(1.0)


def test_fatpipe_combines_with_shared_links():
    """A flow over [shared GigE, fatpipe fabric] is limited by the GigE
    link and by fair sharing on it."""
    engine = Engine()
    gige = Constraint(1.25e8, "up")
    fat = Constraint(1.25e10, "fabric", fatpipe=True)
    ends = {}

    def flow(name):
        from repro.simkernel.activity import CommActivity
        act = CommActivity([gige, fat], size=1.25e8, latency=0.0)
        engine.start_activity(act)
        yield act
        ends[name] = engine.now

    engine.add_process("a", flow("a"))
    engine.add_process("b", flow("b"))
    engine.run()
    # Two flows share the 1.25e8 up-link: 2 s each.
    assert ends["a"] == pytest.approx(2.0)
    assert ends["b"] == pytest.approx(2.0)


def test_unconstrained_zero_bound_stalls_to_deadlock():
    """Regression: an unconstrained activity with bound=0.0 used to get
    rate=INF (the bound's truthiness was tested, not its presence) and
    complete instantly; it must stall toward deadlock detection instead."""
    from repro.simkernel import DeadlockError

    engine = Engine()

    def proc():
        yield engine.comm_activity([], size=1.0, latency=0.0, bound=0.0)

    engine.add_process("p", proc())
    with pytest.raises(DeadlockError) as err:
        engine.run()
    assert "p" in err.value.blocked


def test_zero_capacity_fatpipe_stalls_to_deadlock():
    """The realistic trigger of the bound=0.0 bug: a flow whose fatpipe
    link has zero capacity has no shared constraints and a zero bound."""
    from repro.simkernel import DeadlockError
    from repro.simkernel.activity import CommActivity

    engine = Engine()
    dead_fabric = Constraint(0.0, "fabric", fatpipe=True)

    def proc():
        act = CommActivity([dead_fabric], size=1e6, latency=0.0)
        engine.start_activity(act)
        yield act

    engine.add_process("p", proc())
    with pytest.raises(DeadlockError):
        engine.run()


def test_zero_bound_on_shared_constraint_stalls_both_paths():
    """bound=0.0 must stall on the single-constraint fast path and in the
    generic component solver alike."""
    from repro.simkernel import DeadlockError

    # Fast path: one CPU, one user.
    engine = Engine()
    cpu = Constraint(1e9, "cpu")

    def proc(e, *cons):
        yield e.comm_activity(cons, size=1.0, latency=0.0, bound=0.0)

    engine.add_process("p", proc(engine, cpu))
    with pytest.raises(DeadlockError):
        engine.run()

    # Generic solver: the activity spans two constraints.
    engine2 = Engine()
    up = Constraint(1e9, "up")
    down = Constraint(1e9, "down")
    engine2.add_process("p", proc(engine2, up, down))
    with pytest.raises(DeadlockError):
        engine2.run()


def test_unconstrained_positive_bound_still_rated():
    """The bound=0.0 fix must not disturb positive and absent bounds."""
    engine = Engine()
    ends = {}

    def bounded():
        yield engine.comm_activity([], size=1e6, latency=0.0, bound=1e6)
        ends["bounded"] = engine.now

    def unbounded():
        yield engine.comm_activity([], size=1e6, latency=0.0)
        ends["unbounded"] = engine.now

    engine.add_process("a", bounded())
    engine.add_process("b", unbounded())
    engine.run()
    assert ends["bounded"] == pytest.approx(1.0)
    assert ends["unbounded"] == pytest.approx(0.0)


@pytest.mark.parametrize("lmm_mode,vector_threshold",
                         [("reference", 48), ("auto", 48), ("auto", 2)])
def test_survivor_is_rerated_after_a_simultaneous_completion_wave(
        lmm_mode, vector_threshold):
    """Flows b (l0+l1) and c (l1) drain at the same instant while a (l0)
    is still running.  b's event fires; the re-rate that follows is cut
    short by completing c inline, which re-dirties only l1 — now
    user-less.  The user-less shortcut must not swallow the re-rate the
    group still owes a (it used to, whenever b happened to be the armed
    one: a was left rated but unarmed, and the run deadlocked)."""
    engine = Engine(lmm_mode=lmm_mode, vector_threshold=vector_threshold)
    l0, l1 = Constraint(1e8, "l0"), Constraint(1e8, "l1")
    ends = {}

    def flow(name, links, size):
        yield engine.comm_activity(links, size=size, latency=0.0)
        ends[name] = engine.now

    engine.add_process("a", flow("a", [l0], 5e7))
    engine.add_process("b", flow("b", [l0, l1], 2.5e7))
    engine.add_process("c", flow("c", [l1], 2.5e7))
    engine.run()
    assert ends == {"b": 0.5, "c": 0.5, "a": 0.75}
