"""A metamorphic property of max-min sharing, over generated programs.

Hypothesis draws random-but-valid trace programs (tests/lattice.py's
strategy); the replay must be homogeneous in capacity.  That every
replay path agrees with the oracle on such programs is
tests/test_differential.py's.
"""

import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from .lattice import SOLVERS, make_replayer, programs, shared_platform, \
    write_program


@settings(max_examples=25, deadline=None)
@given(program=programs(), j=st.sampled_from([-3, 1, 5]),
       solver=st.sampled_from(sorted(SOLVERS)))
def test_capacity_scaling_scales_times_by_its_inverse(program, j, solver):
    """Max-min rates are homogeneous in capacity: with every host speed
    and link bandwidth multiplied by k = 2**j, one rank per host and
    zero link latency, every finish time is divided by exactly k."""
    n_ranks, lines = program
    k = 2.0 ** j
    with tempfile.TemporaryDirectory() as directory:
        write_program(directory, lines)
        base, scaled = (
            make_replayer(shared_platform(n_ranks, scale=scale, latency=0.0),
                          n_ranks, **SOLVERS[solver]).replay(directory)
            for scale in (1.0, k))
    assert scaled.simulated_time * k == pytest.approx(base.simulated_time,
                                                      rel=1e-9)
    assert [t * k for t in scaled.per_rank_time] == \
        pytest.approx(base.per_rank_time, rel=1e-9)
