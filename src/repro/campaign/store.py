"""On-disk campaign state: one JSON record per run plus a manifest.

Layout of a campaign directory (the ``--out`` of ``repro-campaign``)::

    <out>/
      manifest.json          # spec echo + campaign metrics + status map
      runs/<scenario>.json   # one RunRecord per scenario (latest attempt)
      cache/...              # the content-addressed ResultCache (default)

Records are plain JSON documents so downstream tooling (the report
module, notebooks, `jq`) never needs this package to read them.  Writes
use temp-file + ``os.replace`` — a campaign killed mid-write leaves the
previous consistent record, never a torn one.  Should a manifest still
end up truncated (a pre-atomic writer, a torn copy, disk trouble), it is
*derived* state: :meth:`CampaignStore.rebuild_manifest` reconstructs it
from the run records, and :meth:`CampaignStore.load_or_rebuild_manifest`
does so automatically whenever the file is missing or unparsable while
run records exist.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["RunRecord", "CampaignStore"]

#: RunRecord.status values.
STATUS_OK = "ok"
STATUS_FAILED = "failed"
STATUS_TIMEOUT = "timeout"


@dataclass
class RunRecord:
    """Everything one scenario run produced (or how it failed)."""

    name: str
    cache_key: str
    status: str                     # ok | failed | timeout
    attempts: int = 0               # worker executions this campaign
    cache_hit: bool = False
    cache_source: str = ""          # "" | "cache" | "store"
    wall_seconds: float = 0.0       # scheduling wall of this scenario
    scenario: Dict[str, Any] = field(default_factory=dict)   # spec echo
    #: Worker payload: simulated_time, actual_time, rel_error, n_actions,
    #: n_ranks, replay_wall_seconds, stage_wait_s, metrics (telemetry
    #: document sans per_rank), calibration {speed, ...}.
    result: Dict[str, Any] = field(default_factory=dict)
    #: On failure: {type, message, traceback} of the last attempt.
    error: Optional[Dict[str, str]] = None
    #: One entry per *failed* attempt (even when a later attempt
    #: succeeded): {attempt, status, error_type, message, backoff_s}.
    retry_history: List[Dict[str, Any]] = field(default_factory=list)
    finished_at: float = 0.0        # unix time

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunRecord":
        known = {f for f in cls.__dataclass_fields__}  # tolerate extras
        return cls(**{k: v for k, v in data.items() if k in known})


def _write_json(path: str, document: Any) -> None:
    """The one atomic JSON writer of the campaign and service tiers:
    same-directory temp file + ``os.replace``."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class CampaignStore:
    """Reader/writer of a campaign directory."""

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self.runs_dir = os.path.join(out_dir, "runs")
        self.manifest_path = os.path.join(out_dir, "manifest.json")

    # -- runs ------------------------------------------------------------
    def run_path(self, name: str) -> str:
        return os.path.join(self.runs_dir, f"{name}.json")

    def write_run(self, record: RunRecord) -> str:
        if not record.finished_at:
            record.finished_at = time.time()
        path = self.run_path(record.name)
        _write_json(path, record.to_dict())
        return path

    def read_run(self, name: str) -> Optional[RunRecord]:
        try:
            with open(self.run_path(name), "r", encoding="utf-8") as handle:
                return RunRecord.from_dict(json.load(handle))
        except (FileNotFoundError, ValueError):
            return None

    def serve_known(self, scenario, key: str,
                    lookup: Callable[[str], Optional[Dict[str, Any]]],
                    resume: bool
                    ) -> Tuple[Optional[RunRecord], List[Dict[str, Any]]]:
        """Serve a scenario without executing it, when its result is
        already known: under ``resume`` from this store's own record of
        the same cache key, else from ``lookup(key)`` (a result cache).

        Returns ``(record, prior_history)``.  ``record`` is the written
        cache-hit :class:`RunRecord`, or ``None`` when the scenario must
        run.  ``prior_history`` is the stored attempt history of this
        exact experiment — provenance worth keeping whatever happens
        next, so the caller carries it into the run that supersedes a
        stale failure; carried entries are tagged ``resumed``.  A re-run
        overwrites ``runs/<name>.json``; records are never duplicated.
        """
        served: Optional[Dict[str, Any]] = None
        source = ""
        prior_history: List[Dict[str, Any]] = []
        if resume:
            prior = self.read_run(scenario.name)
            if prior is not None and prior.cache_key == key:
                prior_history = [
                    dict(entry, resumed=True)
                    if not entry.get("resumed") else dict(entry)
                    for entry in prior.retry_history
                ]
                if prior.ok:
                    served, source = prior.result, "store"
        if served is None:
            cached = lookup(key)
            if cached is not None and cached.get("status") == STATUS_OK:
                served, source = cached.get("result", {}), "cache"
        if served is None:
            return None, prior_history
        record = RunRecord(
            name=scenario.name, cache_key=key, status=STATUS_OK,
            attempts=0, cache_hit=True, cache_source=source,
            scenario=scenario.to_dict(), result=served,
            retry_history=prior_history,
        )
        self.write_run(record)
        return record, prior_history

    def read_runs(self) -> List[RunRecord]:
        if not os.path.isdir(self.runs_dir):
            return []
        records = []
        for fname in sorted(os.listdir(self.runs_dir)):
            if fname.endswith(".json"):
                record = self.read_run(fname[:-len(".json")])
                if record is not None:
                    records.append(record)
        return records

    # -- manifest --------------------------------------------------------
    def write_manifest(self, spec_doc: Dict[str, Any],
                       metrics_doc: Dict[str, Any],
                       records: List[RunRecord],
                       extra: Optional[Dict[str, Any]] = None) -> str:
        document = {
            "campaign": spec_doc.get("name", ""),
            "spec": spec_doc,
            "metrics": metrics_doc,
            "scenarios": {
                r.name: {
                    "status": r.status,
                    "cache_key": r.cache_key,
                    "cache_hit": r.cache_hit,
                    "attempts": r.attempts,
                    "simulated_time": r.result.get("simulated_time"),
                }
                for r in records
            },
            "generated_at": time.time(),
        }
        if extra:
            document.update(extra)
        _write_json(self.manifest_path, document)
        return self.manifest_path

    def read_manifest(self) -> Optional[Dict[str, Any]]:
        try:
            with open(self.manifest_path, "r", encoding="utf-8") as handle:
                return json.load(handle)
        except (FileNotFoundError, ValueError):
            return None

    def rebuild_manifest(self) -> Optional[Dict[str, Any]]:
        """Reconstruct the manifest from ``runs/*.json``.

        The manifest is a *view* over the run records — everything in it
        except the spec echo and the fleet metrics can be derived from
        them.  A rebuilt manifest says so (``"rebuilt": true``) and
        carries empty ``spec``/``metrics`` blocks rather than inventing
        numbers it cannot know.  Returns the document (also written to
        ``manifest.json``), or ``None`` when there are no run records to
        rebuild from.
        """
        records = self.read_runs()
        if not records:
            return None
        self.write_manifest({}, {}, records, extra={"rebuilt": True})
        return self.read_manifest()

    def load_or_rebuild_manifest(self) -> Optional[Dict[str, Any]]:
        """The manifest, rebuilt from run records when the file is
        missing or torn.  Detection is by parse: ``manifest.json`` either
        loads as JSON or it is treated as lost and re-derived."""
        manifest = self.read_manifest()
        if manifest is not None:
            return manifest
        return self.rebuild_manifest()
