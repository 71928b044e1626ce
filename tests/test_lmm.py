"""Unit tests for the linear max-min (progressive filling) solver."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simkernel import Engine, EngineMetrics
from repro.simkernel.lmm import (
    LMM_MODES, VECTOR_THRESHOLD, Constraint, Variable, fill_vectorized,
    single_bottleneck, solve_reference,
)


def test_single_variable_gets_full_capacity():
    cons = Constraint(100.0)
    var = Variable([cons])
    solve_reference([var])
    assert var.rate == pytest.approx(100.0)


def test_two_variables_share_equally():
    cons = Constraint(100.0)
    a, b = Variable([cons]), Variable([cons])
    solve_reference([a, b])
    assert a.rate == pytest.approx(50.0)
    assert b.rate == pytest.approx(50.0)


def test_bound_caps_variable_and_frees_capacity():
    cons = Constraint(100.0)
    slow = Variable([cons], bound=10.0)
    fast = Variable([cons])
    solve_reference([slow, fast])
    assert slow.rate == pytest.approx(10.0)
    assert fast.rate == pytest.approx(90.0)


def test_unconstrained_variable_is_infinite():
    var = Variable([])
    solve_reference([var])
    assert var.rate == float("inf")


def test_bound_only_variable():
    var = Variable([], bound=42.0)
    solve_reference([var])
    assert var.rate == pytest.approx(42.0)


def test_classic_three_flow_two_link_topology():
    """Flow 0 crosses both links; flows 1 and 2 cross one each.

    With capacities 1 on both links, max-min gives the long flow 0.5 and
    each short flow 0.5 on link0... actually: progressive filling saturates
    both links at share 0.5, leaving everyone at 0.5.  Using asymmetric
    capacities exposes the bottleneck ordering.
    """
    link0 = Constraint(1.0, "l0")
    link1 = Constraint(2.0, "l1")
    long_flow = Variable([link0, link1], name="long")
    short0 = Variable([link0], name="s0")
    short1 = Variable([link1], name="s1")
    solve_reference([long_flow, short0, short1])
    # link0 is the bottleneck: share 0.5 fixes long_flow and short0.
    assert long_flow.rate == pytest.approx(0.5)
    assert short0.rate == pytest.approx(0.5)
    # short1 then gets the rest of link1.
    assert short1.rate == pytest.approx(1.5)


def test_zero_capacity_constraint_blocks():
    cons = Constraint(0.0)
    var = Variable([cons])
    solve_reference([var])
    assert var.rate == pytest.approx(0.0)


def test_rejects_bad_inputs():
    with pytest.raises(ValueError):
        Constraint(-1.0)
    with pytest.raises(ValueError):
        Constraint(float("nan"))
    with pytest.raises(ValueError):
        Variable([], bound=-5.0)


def test_fatpipe_constraint_is_rejected_by_solver():
    """The engine's contract: a fatpipe resource is a per-activity cap,
    never a shared constraint.  Sharing it max-min style would
    under-allocate every crossing flow, so the solver's input refuses
    it at construction."""
    fat = Constraint(100.0, "backbone", fatpipe=True)
    with pytest.raises(ValueError, match="fatpipe"):
        Variable([Constraint(1.0), fat])


def _fill(variables):
    """``fill_vectorized`` over the arrays of a :class:`Variable`
    instance: the rate vector, in the variables' order."""
    columns = {}
    var_idx, cons_idx = [], []
    for i, var in enumerate(variables):
        for cons in var.constraints:
            var_idx.append(i)
            cons_idx.append(columns.setdefault(cons, len(columns)))
    rates, _ = fill_vectorized(
        np.asarray([cons.capacity for cons in columns], dtype=float),
        np.asarray([np.inf if var.bound is None else var.bound
                    for var in variables], dtype=float),
        np.asarray(var_idx, dtype=np.intp),
        np.asarray(cons_idx, dtype=np.intp))
    return rates


@settings(max_examples=200, deadline=None)
@given(
    caps=st.lists(st.floats(min_value=0.1, max_value=1e6),
                  min_size=1, max_size=6),
    topology=st.data(),
)
def test_vectorized_path_matches_reference_oracle(caps, topology):
    """On randomized instances (bounds, unconstrained variables), the
    NumPy filling and the scalar oracle produce the same rate vector to
    1e-9 (relative, with infinities matching exactly)."""
    constraints = [Constraint(c, f"c{i}") for i, c in enumerate(caps)]
    n_vars = topology.draw(st.integers(min_value=1, max_value=16))
    variables = []
    for v in range(n_vars):
        crossed = topology.draw(
            st.lists(st.sampled_from(constraints), min_size=0,
                     max_size=len(constraints), unique_by=id)
        )
        bound = topology.draw(
            st.one_of(st.none(), st.floats(min_value=0.1, max_value=1e6))
        )
        variables.append(Variable(crossed, bound=bound, name=f"v{v}"))
    rates = _fill(variables)
    solve_reference(variables)
    for ref, vec in zip(variables, rates.tolist()):
        if math.isinf(ref.rate):
            assert math.isinf(vec), f"{ref.name}: {vec}"
        else:
            assert vec == pytest.approx(ref.rate, rel=1e-9, abs=1e-9)


def _bottleneck_instance(caps, rows, bounds):
    """``(caps, load, bounds, var_idx, cons_idx)`` arrays of an instance
    given as per-variable column lists."""
    var_idx = np.asarray([i for i, cols in enumerate(rows) for _ in cols],
                         dtype=np.intp)
    cons_idx = np.asarray([j for cols in rows for j in cols], dtype=np.intp)
    caps = np.asarray(caps, dtype=float)
    load = np.bincount(cons_idx, minlength=len(caps)).astype(float)
    return (caps, load, np.asarray(bounds, dtype=float), var_idx, cons_idx)


def test_single_bottleneck_recognises_only_one_level_fills():
    # Three flows over one backbone (column 0) and their own links.
    rows = [[0, 1], [0, 2], [0, 3]]
    caps = [30.0, 100.0, 100.0, 100.0]
    args = _bottleneck_instance(caps, rows, [np.inf] * 3)
    assert single_bottleneck(*args[:3]) == 10.0
    # A private link below the backbone's share: two levels.
    args = _bottleneck_instance([30.0, 100.0, 5.0, 100.0], rows,
                                [np.inf] * 3)
    assert single_bottleneck(*args[:3]) is None
    # A bound at the share fixes its row by bound, not by the column.
    args = _bottleneck_instance(caps, rows, [np.inf, 10.0, np.inf])
    assert single_bottleneck(*args[:3]) is None
    # No column crossed by every row.
    args = _bottleneck_instance(caps, [[0, 1], [0, 2], [3]], [np.inf] * 3)
    assert single_bottleneck(*args[:3]) is None


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_single_bottleneck_share_is_the_filling(data):
    """Whenever single_bottleneck returns a share, fill_vectorized gives
    that share to every variable in exactly one level, bit for bit.
    Instances are drawn with and without a column every variable
    crosses, integer capacities (so shares tie across columns), zero
    capacities, and bounds below, at and just above the share."""
    n_cols = data.draw(st.integers(min_value=1, max_value=5))
    cap = st.one_of(st.integers(min_value=0, max_value=64).map(float),
                    st.floats(min_value=0.1, max_value=1e6))
    caps = data.draw(st.lists(cap, min_size=n_cols, max_size=n_cols))
    n_vars = data.draw(st.integers(min_value=1, max_value=12))
    common = data.draw(st.booleans())
    rows = []
    for _ in range(n_vars):
        cols = set(data.draw(st.lists(
            st.integers(min_value=0, max_value=n_cols - 1),
            max_size=n_cols)))
        if common:
            cols.add(0)
        rows.append(sorted(cols))
    share = caps[0] / n_vars
    threshold = share + 1e-12 * max(share, 1.0)
    # Unbounded variables, and at most two with a bound near the share.
    bounds = [np.inf] * n_vars
    for _ in range(data.draw(st.integers(min_value=0, max_value=2))):
        bounds[data.draw(st.integers(min_value=0, max_value=n_vars - 1))] = (
            data.draw(st.sampled_from([
                share * 0.5, share, threshold,
                float(np.nextafter(threshold, np.inf)),
                share * (1 + 1e-11), share * 2.0])))
    caps, load, bounds, var_idx, cons_idx = _bottleneck_instance(
        caps, rows, bounds)
    got = single_bottleneck(caps, load, bounds)
    if got is None:
        return
    rates, levels = fill_vectorized(caps, bounds, var_idx, cons_idx,
                                    load=load)
    assert levels == 1
    assert (rates == got).all(), (rates, got)


def _fan_in(n, lmm_mode):
    """``n`` flows crossing the same two links, of five sizes; returns
    the completion times and the count of array fillings."""
    metrics = EngineMetrics()
    engine = Engine(metrics=metrics, lmm_mode=lmm_mode)
    links = [Constraint(120.0, "l0"), Constraint(240.0, "l1")]
    ends = []

    def flow(size):
        yield engine.comm_activity(links, size, 0.0)
        ends.append(engine.now)

    for i in range(n):
        engine.add_process(f"f{i}", flow(10.0 * (1 + i % 5)))
    engine.run()
    return ends, metrics.vectorized_recomputes


def test_auto_mode_vectorizes_above_threshold():
    """The engine's auto mode hands a sharing group to the array filling
    from VECTOR_THRESHOLD activities on, and to solve_reference below;
    reference mode never does.  The times agree either way."""
    for n in (3, 96):  # below and above the cutoff
        runs = {mode: _fan_in(n, mode) for mode in LMM_MODES}
        assert runs["auto"][0] == pytest.approx(runs["reference"][0],
                                                rel=1e-9)
        assert runs["reference"][1] == 0
        assert (runs["auto"][1] > 0) == (n >= VECTOR_THRESHOLD)


@settings(max_examples=200, deadline=None)
@given(
    caps=st.lists(st.floats(min_value=0.1, max_value=1e6), min_size=1, max_size=5),
    topology=st.data(),
)
def test_feasibility_and_saturation_invariants(caps, topology):
    """Property: the allocation never violates a capacity, and every
    variable is blocked by *something* (a saturated constraint or its own
    bound) — the definition of max-min optimality."""
    constraints = [Constraint(c, f"c{i}") for i, c in enumerate(caps)]
    n_vars = topology.draw(st.integers(min_value=1, max_value=8))
    variables = []
    for v in range(n_vars):
        crossed = topology.draw(
            st.lists(
                st.sampled_from(constraints), min_size=1, max_size=len(constraints),
                unique_by=id,
            )
        )
        bound = topology.draw(
            st.one_of(st.none(), st.floats(min_value=0.1, max_value=1e6))
        )
        variables.append(Variable(crossed, bound=bound, name=f"v{v}"))
    solve_reference(variables)

    usage = {id(c): 0.0 for c in constraints}
    for var in variables:
        assert var.rate >= 0.0
        assert not math.isnan(var.rate)
        for cons in var.constraints:
            usage[id(cons)] += var.rate
    for cons in constraints:
        assert usage[id(cons)] <= cons.capacity * (1 + 1e-6)

    # Max-min optimality: no variable could be increased without breaking
    # a constraint or its bound.
    for var in variables:
        at_bound = var.bound is not None and var.rate >= var.bound * (1 - 1e-6)
        saturated = any(
            usage[id(c)] >= c.capacity * (1 - 1e-6) for c in var.constraints
        )
        assert at_bound or saturated, (
            f"{var.name} at {var.rate} is not blocked by anything"
        )
