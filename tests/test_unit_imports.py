"""What a work unit imports, checked in fresh interpreters (pytest's own
imports would hide a miss): the entry points stay light, and once a
process has started one :class:`ScenarioChild`, running a scenario of
any trace or calibration kind imports nothing more — every unit child is
forked warm."""

import json
import os
import subprocess
import sys

from repro.campaign import CalibrationSpec, Scenario, TraceSpec
from repro.core.synth import write_synthetic_lu_trace

from tests.test_campaign import lu_scenario
from tests.test_service import REPO_SRC


def run_fresh(code, *args):
    """Run ``code`` in a new interpreter; returns its stdout, stripped."""
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_entry_points_import_neither_numpy_nor_the_replay_stack():
    loaded = run_fresh(
        "import sys\n"
        "import repro.campaign.cli, repro.service.cli, repro.service.worker\n"
        "print(sorted({'numpy', 'repro.core.replay'} & set(sys.modules)))")
    assert loaded == "[]"


WARM_THEN_RUN = """
import json, sys
from multiprocessing.connection import wait
from repro.campaign.runner import ScenarioChild, execute_scenario

child = ScenarioChild({"name": "nap", "ranks": 2,
                       "trace": {"kind": "sleep", "seconds": 0.0}},
                      60.0, name="first-unit")
wait([child.conn])
assert child.collect()[0] == "ok"
leaks = {}
for name, sdict in json.loads(sys.argv[1]).items():
    before = set(sys.modules)
    execute_scenario(sdict)
    leaks[name] = sorted(m for m in set(sys.modules) - before
                         if m.split(".")[0] in ("repro", "numpy"))
print(json.dumps(leaks))
"""


def test_a_unit_child_imports_nothing(tmp_path):
    trace_dir = str(tmp_path / "trace")
    write_synthetic_lu_trace(trace_dir, 4, 1, cls="S", inorm=1)
    scenarios = [
        lu_scenario("lu", trace=TraceSpec(kind="synth", cls="S",
                                          iterations=1, inorm=1)),
        *(lu_scenario(family, trace=TraceSpec(kind="synth", family=family,
                                              iterations=1))
          for family in ("dp", "pp", "moe")),
        lu_scenario("dir", trace=TraceSpec(kind="dir", path=trace_dir)),
        lu_scenario("acquire", ranks=2,
                    trace=TraceSpec(kind="acquire", app="ring")),
        lu_scenario("auto", calibration=CalibrationSpec(
            kind="auto", calib_app="ring", calib_ranks=2, runs=1)),
    ]
    leaks = json.loads(run_fresh(WARM_THEN_RUN, json.dumps(
        {s.name: s.to_dict() for s in scenarios})))
    assert leaks == {s.name: [] for s in scenarios}
