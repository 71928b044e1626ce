"""Content-addressed result cache for campaign scenarios.

A scenario's *cache key* is a SHA-256 digest over everything that
determines its outcome:

* the trace content address — for ``synth`` traces the generator
  parameter tuple (seed included; :func:`repro.core.synth.synth_metadata`
  guarantees the tuple ↔ bytes bijection), for ``acquire`` traces the
  acquisition parameters (the pipeline is deterministic per PAPI seed),
  for ``dir`` traces the *bytes* of the trace files themselves;
* the platform — catalog parameters for named platforms, the file bytes
  for platform XML (editing the XML busts the key);
* the calibration parameters (a changed flop rate or network segment
  busts the key);
* the replay options and rank count.

Keys are computed from canonical JSON (sorted keys, fixed separators) —
never from Python's randomised ``hash()`` — so the same scenario hashes
identically in every process and on every run, which is what lets a
re-run campaign skip every unchanged scenario.

The cache itself is a plain directory of JSON records,
``<root>/<key[:2]>/<key>.json``, safe to share between campaigns and to
prune with ``rm``.  Writes go through a same-directory temp file +
``os.replace`` so concurrent writers (campaign workers finishing
together) can never leave a torn record.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from typing import Any, Dict, Iterator, Optional, Tuple

from .spec import Scenario
from .store import STATUS_OK, _write_json

__all__ = ["CACHE_FORMAT_VERSION", "canonical_json", "digest_of",
           "digest_file", "digest_tree", "tree_files", "scenario_cache_key",
           "ResultCache"]

#: Bump when the record schema or key composition changes; part of every
#: key, so stale-format records can never be served.
#: v2: fault-injection specs joined the key composition.
#: v3: ReplaySpec grew the ``compiled`` driver field.
#: v4: ReplaySpec grew batch_phases/shards/shard_halo, and synthetic
#: trace addresses normalise the seed to 0 when jitter is 0 (the seed
#: cannot influence a jitter-free trace, so it must not split the key).
#: v5: TraceSpec grew family/params (AI-workload generators) and the
#: opcode space grew the allToAll/allGather/reduceScatter/allToAllv
#: collectives.
CACHE_FORMAT_VERSION = 5


def canonical_json(obj: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace, no NaN surprises."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def digest_of(obj: Any) -> str:
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def digest_file(path: str) -> str:
    """SHA-256 of a file's bytes (streamed)."""
    h = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def tree_files(directory: str) -> Iterator[Tuple[str, str]]:
    """``(path, relative name)`` of every file of a trace tree, in sorted
    order.  ``.tic`` sidecars are left out: they are derived artifacts
    keyed to their source's bytes (repro.core.compile), so they are not
    part of the tree's content address, never ship, and are not counted
    as bytes a cache saved."""
    for root, _dirs, files in sorted(os.walk(directory)):
        for name in sorted(files):
            if not name.endswith(".tic"):
                path = os.path.join(root, name)
                yield path, os.path.relpath(path, directory)


def digest_tree(directory: str) -> str:
    """SHA-256 over a directory's (relative name, bytes) pairs
    (:func:`tree_files`) — byte-identical trees digest identically
    regardless of mtime, inode churn or warm sidecars."""
    h = hashlib.sha256()
    for path, rel in tree_files(directory):
        h.update(rel.encode("utf-8"))
        h.update(b"\0")
        with open(path, "rb") as handle:
            for chunk in iter(lambda: handle.read(1 << 20), b""):
                h.update(chunk)
        h.update(b"\0")
    return h.hexdigest()


def _trace_address(scenario: Scenario) -> Dict[str, Any]:
    trace = scenario.trace
    address = trace.digest_fields()
    if trace.kind == "dir":
        address["content"] = digest_tree(trace.path)
    if trace.kind == "synth":
        # The synth generator needs the rank count too.
        address["n_ranks"] = scenario.ranks
        # A jitter-free trace never draws from its RNG, so the seed
        # cannot influence a single byte of it; leaving it in the
        # address would split identical traces across cache keys
        # (spurious misses when a sweep varies the seed with jitter 0).
        # synth_metadata applies the same normalisation.  The moe family
        # is the exception: its expert-routing splits are a function of
        # the seed even at jitter 0, so its seed always addresses.
        if address.get("jitter") == 0.0 and trace.family != "moe":
            address["seed"] = 0
    return address


def _platform_address(scenario: Scenario) -> Dict[str, Any]:
    platform = scenario.platform
    address = platform.digest_fields()
    if platform.kind == "xml":
        address["content"] = digest_file(platform.xml_path)
    return address


def _faults_address(scenario: Scenario) -> Optional[Dict[str, Any]]:
    if scenario.faults is None:
        return None
    address = scenario.faults.digest_fields()
    if scenario.faults.plan_path:
        address["content"] = digest_file(scenario.faults.plan_path)
    return address


def scenario_cache_key(scenario: Scenario) -> str:
    """The content address of one scenario's result."""
    return digest_of({
        "format": CACHE_FORMAT_VERSION,
        "ranks": scenario.ranks,
        "measure_actual": scenario.measure_actual,
        "trace": _trace_address(scenario),
        "platform": _platform_address(scenario),
        "calibration": scenario.calibration.digest_fields(),
        "replay": scenario.replay.digest_fields(),
        "faults": _faults_address(scenario),
    })


class ResultCache:
    """Directory-backed map from cache key to result record (a dict)."""

    def __init__(self, root: str) -> None:
        self.root = root

    def path_for(self, key: str) -> str:
        return os.path.join(self.root, key[:2], key + ".json")

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        path = self.path_for(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                record = json.load(handle)
        except FileNotFoundError:
            return None
        except (ValueError, OSError):
            # A torn/corrupt record is a miss, not a crash.
            return None
        try:
            # Recency signal for size-bounded shared caches (the service
            # artifact store evicts least-recently-*used*, not least-
            # recently-written).  Best-effort: a read-only cache still
            # serves hits.
            os.utime(path, None)
        except OSError:
            pass
        return record

    def put(self, key: str, record: Dict[str, Any]) -> str:
        path = self.path_for(key)
        _write_json(path, record)
        return path

    def put_result(self, key: str, scenario_name: str,
                   payload: Dict[str, Any]) -> str:
        """Record a successful scenario's result payload under its key."""
        return self.put(key, {
            "format": CACHE_FORMAT_VERSION,
            "status": STATUS_OK,
            "cache_key": key,
            "scenario_name": scenario_name,
            "result": payload,
            "created_at": time.time(),
        })
