"""The replayer's option surface, pinned: which keywords exist, and that
the solver mode removed with the Numba kernel fails loudly at every
layer instead of being accepted and ignored.
"""

import inspect

import pytest

from repro.campaign import ReplaySpec
from repro.cli import main_replay
from repro.core.replay import TraceReplayer
from repro.simkernel import Engine
from repro.simkernel.lmm import LMM_MODES

#: Every ``TraceReplayer`` keyword, tagged: *semantic* ones change the
#: simulated result, *mechanical* ones must not.  Adding or deleting a
#: keyword means editing this table on purpose.
REPLAYER_KEYWORDS = (
    ("comm_model", "semantic"),
    ("eager_threshold", "semantic"),
    ("collective_algorithm", "semantic"),
    ("record_timed_trace", "mechanical"),
    ("collect_metrics", "mechanical"),
    ("lmm_mode", "mechanical"),
    ("fault_plan", "semantic"),
    ("fault_mode", "semantic"),
    ("compiled", "mechanical"),
    ("batch_phases", "mechanical"),
    ("shards", "mechanical"),
    ("shard_halo", "mechanical"),
    ("lmm_incremental", "mechanical"),
)


def test_replayer_signature_snapshot():
    params = tuple(inspect.signature(TraceReplayer.__init__).parameters)
    assert params == ("self", "platform", "deployment") + tuple(
        name for name, _kind in REPLAYER_KEYWORDS)
    assert LMM_MODES == ("auto", "reference", "vectorized")


@pytest.mark.parametrize("build", [
    lambda: Engine(lmm_mode="native"),
    lambda: ReplaySpec(lmm_mode="native"),
])
def test_native_lmm_mode_is_an_unknown_mode(build):
    with pytest.raises(ValueError) as err:
        build()
    assert "'native'" in str(err.value)
    for mode in ("auto", "reference", "vectorized"):
        assert mode in str(err.value)


def test_cli_rejects_lmm_native_with_a_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main_replay(["trace-dir", "--platform-xml", "p.xml",
                     "--lmm", "native"])
    assert err.value.code == 2
    stderr = capsys.readouterr().err
    assert "usage:" in stderr and "Traceback" not in stderr
