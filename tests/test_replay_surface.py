"""The replayer's option surface, pinned: which keywords exist, which
options ``repro-replay`` and a campaign's ``replay`` block offer, and
that removed options fail loudly at every layer instead of being
accepted and ignored — the solver modes (``native`` went with the Numba
kernel, ``vectorized`` is ``vector_threshold = 1``) and the path
selectors, which stay ``TraceReplayer`` keywords but left the CLI and
the specs.
"""

import dataclasses
import inspect
import re

import pytest

from repro.campaign import CampaignSpec, ReplaySpec
from repro.cli import main_replay
from repro.core.replay import TraceReplayer
from repro.service import ServiceClient, ServiceError
from repro.simkernel import Engine
from repro.simkernel.lmm import LMM_MODES

from tests.test_service import server, sleepy_spec_doc  # noqa: F401

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


#: ``repro-replay``'s option strings.  Which kernel path computes the
#: answer is not a CLI option.
REPLAY_OPTIONS = (
    "-h", "--platform-xml", "--deployment-xml", "--ranks", "--collectives",
    "--eager-threshold", "--no-compiled", "--faults", "--fault-mode",
    "--fault-report", "--timed-trace", "--metrics",
)

#: ``ReplaySpec``'s fields: a campaign's ``replay`` block.
REPLAY_SPEC_FIELDS = ("collectives", "eager_threshold", "lmm_mode",
                      "collect_metrics", "compiled")

#: Arguments ``repro-replay`` must refuse as a usage error.
REMOVED_ARGS = [("--lmm", mode) for mode in REMOVED_MODES] + [
    ("--lmm", "reference"), ("--no-lmm-incremental",), ("--batch-phases",),
    ("--shards", "2"), ("--shard-halo", "4"),
]

#: ``replay`` fields a campaign spec must refuse.
REMOVED_SPEC_FIELDS = {"batch_phases": True, "shards": 2, "shard_halo": 4}


def test_replay_cli_options_snapshot(capsys):
    with pytest.raises(SystemExit) as err:
        main_replay(["--help"])
    assert err.value.code == 0
    usage = capsys.readouterr().out.split("\n\n")[0]
    assert tuple(re.findall(r"(?<![\w-])--?[a-z][a-z-]*", usage)) == \
        REPLAY_OPTIONS
    assert tuple(f.name for f in dataclasses.fields(ReplaySpec)) == \
        REPLAY_SPEC_FIELDS


@pytest.mark.parametrize("args", REMOVED_ARGS, ids=" ".join)
def test_cli_refuses_removed_options_with_a_usage_error(capsys, args):
    with pytest.raises(SystemExit) as err:
        main_replay(["trace-dir", "--platform-xml", "p.xml", *args])
    assert err.value.code == 2
    stderr = capsys.readouterr().err
    assert "usage:" in stderr and "Traceback" not in stderr
    assert f"unrecognized arguments: {' '.join(args)}" in stderr


def _spec_doc(field, value):
    doc = sleepy_spec_doc(n=1)
    doc["base"]["replay"] = {field: value}
    return doc


@pytest.mark.parametrize("field", sorted(REMOVED_SPEC_FIELDS))
def test_campaign_spec_refuses_removed_replay_fields(field):
    with pytest.raises(ValueError, match=rf"ReplaySpec: .*'{field}'"):
        CampaignSpec.from_dict(_spec_doc(field, REMOVED_SPEC_FIELDS[field]))


def test_service_refuses_removed_replay_fields(server):  # noqa: F811
    client = ServiceClient(server.url)
    for field, value in sorted(REMOVED_SPEC_FIELDS.items()):
        with pytest.raises(ServiceError) as err:
            client.submit(_spec_doc(field, value))
        assert err.value.status == 400 and f"'{field}'" in \
            err.value.message
    assert client.jobs() == []
