"""Deleted code stays deleted: names that went with a removed subsystem
must not come back under ``src/``, the docs or the CI config, and the
action table stays the only place that knows an action's shape."""

import os
import re

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: (pattern, paths — a ``!`` prefix excludes one, what was deleted).
DELETED = [
    (r"native_fill|native_available|simkernel\._native|repro\[native\]",
     ("src", "pyproject.toml", ".github"),
     "the Numba kernel and its extra"),
    (r"_unit_main|units_dir|no-verify|_write_json_atomic|settle_dispatched",
     ("src", ".github", "docs"),
     "the worker's nested campaign, its off-switch and duplicated helpers"),
    (r"_job_main|outcome\.json|_terminate_pid|drain_timeout_s|on_record",
     ("src", "docs"),
     "local dispatch's per-job runner and its PID-signalling recovery"),
    (r"_VOLUME_TOKEN|_P2P_CODES|_do_bcast",
     ("src", "docs", ".github"),
     "the hand-kept copies of the action set"),
    (r"tokens\[[23]\]|isinstance\(action, ",
     ("src/repro/core", "!src/repro/core/actions.py",
      "!src/repro/core/validate.py"),
     "token positions and action shapes outside the action table"),
    (r"_on_sigterm|class _Live\b|class _Job\b",
     ("src",),
     "run_campaign's own fleet loop and SIGTERM drain"),
    (r"max\(3, ",
     ("src/repro", "docs"),
     "the queue's second retry policy"),
    (r"^\s*(from|import)\s+(\.\.service|repro\.service)",
     ("src/repro/campaign", "!src/repro/campaign/cli.py"),
     "the campaign tier importing the service (but the remote client)"),
]


def _files(paths):
    skip = {os.path.join(ROOT, p[1:]) for p in paths if p.startswith("!")}
    for rel in paths:
        top = os.path.join(ROOT, rel)
        if rel.startswith("!") or not os.path.exists(top):
            continue
        if os.path.isfile(top):
            yield top
            continue
        for dirpath, dirs, names in os.walk(top):
            dirs[:] = sorted(d for d in dirs if d != "__pycache__"
                             and not d.endswith(".egg-info"))
            for name in sorted(names):
                path = os.path.join(dirpath, name)
                if path not in skip:
                    yield path


def _matches(pattern, paths):
    regex = re.compile(pattern)
    hits = []
    for path in _files(paths):
        try:
            with open(path, encoding="utf-8") as handle:
                lines = handle.read().splitlines()
        except (UnicodeDecodeError, OSError):
            continue    # binary data files carry no names
        hits += [f"{os.path.relpath(path, ROOT)}:{number}: {line.strip()}"
                 for number, line in enumerate(lines, 1)
                 if regex.search(line)]
    return hits


@pytest.mark.parametrize("pattern, paths, deleted", DELETED,
                         ids=[row[2] for row in DELETED])
def test_deleted_names_stay_deleted(pattern, paths, deleted):
    assert _matches(pattern, paths) == [], f"{deleted} came back"


def test_the_opcode_map_is_defined_once():
    hits = _matches(r"^OPCODE_OF = ", ("src",))
    assert [hit.split(":")[0] for hit in hits] == \
        ["src/repro/core/actions.py"]
