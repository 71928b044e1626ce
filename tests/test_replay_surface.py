"""The replayer's option surface, pinned: which keywords exist, and that
the removed solver modes (``native`` went with the Numba kernel,
``vectorized`` is ``vector_threshold = 1``) fail loudly at every layer
instead of being accepted and ignored.
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
    assert LMM_MODES == ("auto", "reference")


#: Solver modes that existed once; each must now be an unknown mode.
REMOVED_MODES = ("native", "vectorized")


@pytest.mark.parametrize("build", [
    lambda mode: Engine(lmm_mode=mode),
    lambda mode: ReplaySpec(lmm_mode=mode),
])
def test_native_lmm_mode_is_an_unknown_mode(build):
    for mode in REMOVED_MODES:
        with pytest.raises(ValueError) as err:
            build(mode)
        assert f"unknown lmm_mode {mode!r}" in str(err.value)
        assert str(LMM_MODES) in str(err.value)


def test_cli_rejects_lmm_native_with_a_usage_error(capsys):
    for mode in REMOVED_MODES:
        with pytest.raises(SystemExit) as err:
            main_replay(["trace-dir", "--platform-xml", "p.xml",
                         "--lmm", mode])
        assert err.value.code == 2
        stderr = capsys.readouterr().err
        assert "usage:" in stderr and "Traceback" not in stderr
        assert f"invalid choice: {mode!r}" in stderr
