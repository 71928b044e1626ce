"""Declarative experiment-campaign specifications.

The paper's evaluation (§6) is a *sweep*: the same acquire → calibrate →
replay pipeline executed over a grid of (application, class, rank count,
platform, acquisition mode, replay options) points whose results are
compared side by side.  This module gives that grid a first-class,
serialisable shape:

* :class:`Scenario` — one point of the sweep: what trace to replay
  (:class:`TraceSpec`), on which platform (:class:`PlatformSpec`),
  calibrated how (:class:`CalibrationSpec`), with which replay options
  (:class:`ReplaySpec`), plus the execution policy (timeout, retries).
* :class:`CampaignSpec` — a named, ordered set of scenarios with the
  runner defaults (worker count, retry backoff).
* :func:`expand_grid` — the cross-product helper that turns a base
  scenario plus ``{"trace.cls": ["B", "C"], "ranks": [8, 16]}`` into the
  scenario list, with stable auto-generated names.

Everything is plain dataclasses over JSON-primitive fields: a spec
round-trips through ``to_dict``/``from_dict`` (the ``repro-campaign``
file format), pickles cleanly into worker processes, and digests
deterministically for the content-addressed result cache
(:mod:`repro.campaign.cache`).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence

__all__ = [
    "TraceSpec", "PlatformSpec", "CalibrationSpec", "ReplaySpec",
    "FaultSpec", "Scenario", "CampaignSpec", "expand_grid",
    "load_campaign_spec",
]


def _from_mapping(cls, data: Mapping[str, Any]):
    """Build a dataclass from a mapping, rejecting unknown keys loudly
    (a typo in a spec file must not silently become a default)."""
    known = {f.name for f in fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise ValueError(
            f"{cls.__name__}: unknown field(s) {sorted(unknown)}; "
            f"known: {sorted(known)}"
        )
    return cls(**dict(data))


@dataclass(frozen=True)
class TraceSpec:
    """Where the time-independent trace of a scenario comes from.

    ``kind`` selects the source; only the fields of that kind matter
    (the cache digests kind-relevant fields only, see
    :meth:`digest_fields`):

    * ``synth`` — a synthetic generator, selected by ``family``:

      - ``lu`` (default) — the :mod:`repro.core.synth` LU-mix generator:
        ``cls``, ``iterations``, ``inorm``, ``seed``, ``jitter``,
        ``compute_split`` (compute records per sweep; > 1 models
        function-level instrumentation).
      - ``dp`` / ``pp`` / ``moe`` — the :mod:`repro.core.synth_ai`
        AI-workload generators; ``iterations`` is the training-step
        count and ``params`` carries the family's keyword arguments
        (e.g. ``{"bucket_bytes": 1048576}``) as an inline JSON object,
        canonicalised so equal parameter sets digest identically.
    * ``acquire`` — the full §4 pipeline on the scenario's (ground-truth)
      platform: ``app``, ``cls``, ``mode``, ``papi_jitter``,
      ``papi_seed``, ``itmax_cap`` (0 = the class's full ``itmax``).
    * ``dir`` — an existing trace directory at ``path``; its *content*
      (file bytes) is the cache address, so editing any trace file busts
      the key.
    * ``sleep`` / ``fail`` — deterministic fixtures for exercising the
      runner itself (scheduling, timeouts, retries); ``sleep`` blocks
      ``seconds`` of wall time and reports it as the simulated time,
      ``fail`` raises until ``state_path`` has seen ``fail_times``
      attempts.

    ``stage_wait_s`` applies to every kind: the wall-clock cost of
    staging the trace from an external resource (a batch queue, a remote
    filesystem) before the replay can start.  It is part of the content
    address — a scenario staged differently is a different experiment —
    and it is the component of a campaign the runner's workers overlap.
    """

    kind: str = "synth"
    # synth
    family: str = "lu"
    cls: str = "B"
    iterations: int = 4
    inorm: int = 2
    seed: int = 0
    jitter: float = 0.0
    compute_split: int = 1
    #: Extra generator kwargs for the AI families, as canonical JSON
    #: (spec files may write an inline object; it is canonicalised).
    params: str = ""
    # acquire
    app: str = "lu"
    mode: str = "R"
    papi_jitter: float = 0.0
    papi_seed: int = 0
    itmax_cap: int = 0
    # dir
    path: str = ""
    # fixtures
    seconds: float = 0.0
    fail_times: int = 0
    state_path: str = ""
    # all kinds
    stage_wait_s: float = 0.0

    _KINDS = ("synth", "acquire", "dir", "sleep", "fail")
    _FAMILIES = ("lu", "dp", "pp", "moe")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(
                f"unknown trace kind {self.kind!r}; use one of {self._KINDS}"
            )
        if self.kind == "dir" and not self.path:
            raise ValueError("trace kind 'dir' needs a path")
        if self.kind == "synth" and self.family not in self._FAMILIES:
            raise ValueError(
                f"unknown synth family {self.family!r}; "
                f"use one of {self._FAMILIES}"
            )
        if self.params and not isinstance(self.params, str):
            # Spec files naturally write the kwargs inline as an object;
            # canonicalise so equal parameter sets compare and digest
            # equal.
            object.__setattr__(
                self, "params",
                json.dumps(self.params, sort_keys=True,
                           separators=(",", ":")),
            )
        if self.params:
            decoded = json.loads(self.params)
            if not isinstance(decoded, dict):
                raise ValueError(
                    "trace params must be a JSON object of generator "
                    f"keyword arguments, got {type(decoded).__name__}"
                )

    def generator_params(self) -> Dict[str, Any]:
        """The decoded ``params`` object (empty dict when unset)."""
        return json.loads(self.params) if self.params else {}

    def digest_fields(self) -> Dict[str, Any]:
        """The kind-relevant parameters (what the cache key digests for
        this source — content digests for ``dir`` are added by the cache
        layer, which reads the files)."""
        base: Dict[str, Any] = {"kind": self.kind,
                                "stage_wait_s": self.stage_wait_s}
        if self.kind == "synth":
            base["family"] = self.family
            if self.family == "lu":
                base.update(cls=self.cls, iterations=self.iterations,
                            inorm=self.inorm, seed=self.seed,
                            jitter=self.jitter,
                            compute_split=self.compute_split)
            else:
                # AI families: iterations is the step count; the rest of
                # the generator surface travels in the canonical params
                # JSON (decoded so the digest sees values, not spelling).
                base.update(iterations=self.iterations, seed=self.seed,
                            jitter=self.jitter,
                            params=self.generator_params())
        elif self.kind == "acquire":
            base.update(app=self.app, cls=self.cls, mode=self.mode,
                        papi_jitter=self.papi_jitter,
                        papi_seed=self.papi_seed, itmax_cap=self.itmax_cap)
        elif self.kind == "sleep":
            base.update(seconds=self.seconds)
        elif self.kind == "fail":
            base.update(fail_times=self.fail_times)
        return base


@dataclass(frozen=True)
class PlatformSpec:
    """The platform a scenario replays on (and acquires from).

    * ``named`` — a catalog factory (``bordereau``/``gdx``/``grid5000``)
      instantiated with ``hosts``/``cores``; acquisition uses its
      ground-truth flavour, replay its calibrated flavour.
    * ``xml`` — a SimGrid v3 platform file at ``xml_path``; the file
      *bytes* are the cache address, so editing the XML busts the key.
    """

    kind: str = "named"
    name: str = "bordereau"
    hosts: int = 0             # 0 = the catalog's full cluster
    cores: int = 1
    xml_path: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ("named", "xml"):
            raise ValueError(f"unknown platform kind {self.kind!r}")
        if self.kind == "xml" and not self.xml_path:
            raise ValueError("platform kind 'xml' needs xml_path")

    def digest_fields(self) -> Dict[str, Any]:
        if self.kind == "xml":
            return {"kind": "xml"}  # + file digest, added by the cache layer
        return {"kind": "named", "name": self.name, "hosts": self.hosts,
                "cores": self.cores}


@dataclass(frozen=True)
class CalibrationSpec:
    """How the replay platform gets its *pertinent values* (§5).

    * ``nominal`` — no calibration: the platform's nominal rates and the
      default piece-wise-linear MPI model.
    * ``fixed`` — explicit values: ``speed`` (flop/s, 0 = keep nominal)
      and optionally ``segments`` (``[lower, upper, lat_factor,
      bw_factor]`` rows of a fitted network model).  This is how a
      campaign shares one up-front calibration across scenarios.
    * ``auto`` — each worker runs the paper's procedure itself
      (:func:`~repro.core.calibration.calibrate_flop_rate` +
      ``calibrate_network``) on the scenario's ground-truth platform,
      with ``calib_cls``/``calib_ranks``/``runs``/``calib_jitter``/
      ``calib_seed`` — deterministic per seed, hence cacheable.
    """

    kind: str = "nominal"
    speed: float = 0.0
    segments: tuple = ()       # ((lower, upper, lat_factor, bw_factor), ...)
    calib_app: str = "lu"
    calib_cls: str = "W"
    calib_ranks: int = 4
    runs: int = 5
    calib_jitter: float = 0.002
    calib_seed: int = 42

    def __post_init__(self) -> None:
        if self.kind not in ("nominal", "fixed", "auto"):
            raise ValueError(f"unknown calibration kind {self.kind!r}")
        # JSON round-trips tuples as lists; normalise for equality and
        # digest stability.
        object.__setattr__(
            self, "segments",
            tuple(tuple(float(x) for x in row) for row in self.segments),
        )

    def digest_fields(self) -> Dict[str, Any]:
        if self.kind == "fixed":
            # Canonical JSON refuses non-finite floats; the last network
            # segment's upper bound is +inf, so spell it out.
            rows = [[("inf" if x == float("inf") else x) for x in row]
                    for row in self.segments]
            return {"kind": "fixed", "speed": self.speed, "segments": rows}
        if self.kind == "auto":
            return {"kind": "auto", "calib_app": self.calib_app,
                    "calib_cls": self.calib_cls,
                    "calib_ranks": self.calib_ranks, "runs": self.runs,
                    "calib_jitter": self.calib_jitter,
                    "calib_seed": self.calib_seed}
        return {"kind": "nominal"}


@dataclass(frozen=True)
class ReplaySpec:
    """The :class:`~repro.core.replay.TraceReplayer` options."""

    collectives: str = "binomial"
    eager_threshold: float = 65536.0
    lmm_mode: str = "auto"
    collect_metrics: bool = True
    # The form of the replay loop's feed: "auto" (whole programs) or
    # "never" (windows).  Part of the cache address even though both
    # agree to 1e-9: a cached record must say which form produced it.
    compiled: str = "auto"

    def __post_init__(self) -> None:
        # Deliberately no spec field for the incremental toggle: the
        # incremental patch is certified-identical to the full solve,
        # so it is not part of a result's address.
        from ..simkernel.lmm import LMM_MODES

        if self.lmm_mode not in LMM_MODES:
            raise ValueError(
                f"unknown lmm_mode {self.lmm_mode!r}; use one of "
                f"{LMM_MODES}"
            )
        if self.compiled not in ("auto", "never"):
            raise ValueError(
                f"unknown compiled mode {self.compiled!r}; use 'auto' or "
                "'never'"
            )

    def digest_fields(self) -> Dict[str, Any]:
        # collect_metrics changes what is *recorded*, not the simulated
        # outcome (telemetry is arithmetic-neutral by design), but a
        # cached record without metrics should not satisfy a request
        # that wants them — so it is part of the address.
        return asdict(self)


@dataclass(frozen=True)
class FaultSpec:
    """Fault injection for a scenario (:mod:`repro.faults`).

    Exactly one plan source:

    * ``plan_json`` — the plan document inline (a dict in the spec file;
      stored canonicalised so equal plans digest identically);
    * ``plan_path`` — a plan file; its *bytes* are the cache address, so
      editing the plan busts the key.

    ``mode`` selects the failure-aware replay semantics — ``abort``
    (default) or ``checkpoint-restart`` (the plan then needs a
    ``checkpoint`` block).
    """

    mode: str = "abort"
    plan_path: str = ""
    plan_json: str = ""

    def __post_init__(self) -> None:
        if self.mode not in ("abort", "checkpoint-restart"):
            raise ValueError(
                f"unknown fault mode {self.mode!r}; use 'abort' or "
                "'checkpoint-restart'"
            )
        if bool(self.plan_path) == bool(self.plan_json):
            raise ValueError(
                "FaultSpec needs exactly one of plan_path / plan_json"
            )
        if self.plan_json and not isinstance(self.plan_json, str):
            # Spec files naturally write the plan inline as an object;
            # canonicalise so equal plans compare and digest equal.
            object.__setattr__(
                self, "plan_json",
                json.dumps(self.plan_json, sort_keys=True,
                           separators=(",", ":")),
            )
        if self.plan_json:
            # Validate the document shape eagerly — a typo'd plan must
            # fail at spec-load time, not inside a worker.
            from ..faults.plan import FaultPlan
            FaultPlan.loads(self.plan_json)

    def load_plan(self):
        """Materialise the :class:`~repro.faults.plan.FaultPlan`."""
        from ..faults.plan import FaultPlan, load_fault_plan
        if self.plan_path:
            return load_fault_plan(self.plan_path)
        return FaultPlan.loads(self.plan_json)

    def digest_fields(self) -> Dict[str, Any]:
        # plan_path content digest is added by the cache layer.
        base: Dict[str, Any] = {"mode": self.mode}
        if self.plan_json:
            base["plan_json"] = self.plan_json
        return base


@dataclass(frozen=True)
class Scenario:
    """One experiment of a campaign: a trace replayed on a platform."""

    name: str
    ranks: int
    trace: TraceSpec = field(default_factory=TraceSpec)
    platform: PlatformSpec = field(default_factory=PlatformSpec)
    calibration: CalibrationSpec = field(default_factory=CalibrationSpec)
    replay: ReplaySpec = field(default_factory=ReplaySpec)
    #: Optional fault injection (host crashes, link outages) during the
    #: replay; the report payload then carries a ``fault_report`` block.
    faults: Optional[FaultSpec] = None
    #: Also measure the "actual" execution time on the ground-truth
    #: platform (the Fig. 8 comparison baseline); only meaningful for
    #: ``acquire`` traces.
    measure_actual: bool = False
    #: Wall-clock budget of one attempt; exceeded -> the worker is
    #: terminated and the attempt counts as a failure.
    timeout_s: float = 300.0
    #: Re-executions after a failed attempt (0 = single attempt).
    max_retries: int = 1

    def __post_init__(self) -> None:
        if not self.name or "/" in self.name or self.name.startswith("."):
            raise ValueError(f"bad scenario name {self.name!r} (it names "
                             "files; no slashes, not dot-led)")
        if self.ranks < 1:
            raise ValueError("ranks must be >= 1")
        if self.timeout_s <= 0:
            raise ValueError("timeout_s must be > 0")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")

    # -- serialisation ---------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        doc = asdict(self)
        doc["calibration"]["segments"] = [
            list(row) for row in self.calibration.segments
        ]
        return doc

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Scenario":
        data = dict(data)
        for key, sub in (("trace", TraceSpec), ("platform", PlatformSpec),
                         ("calibration", CalibrationSpec),
                         ("replay", ReplaySpec), ("faults", FaultSpec)):
            if key in data and isinstance(data[key], Mapping):
                data[key] = _from_mapping(sub, data[key])
        return _from_mapping(cls, data)


@dataclass
class CampaignSpec:
    """A named fleet of scenarios plus the runner policy defaults."""

    name: str
    scenarios: List[Scenario] = field(default_factory=list)
    jobs: int = 4
    #: Base delay before retry k is ``retry_backoff * 2**(k-1)`` seconds.
    retry_backoff: float = 0.5
    notes: str = ""

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        seen = set()
        for scenario in self.scenarios:
            if scenario.name in seen:
                raise ValueError(
                    f"duplicate scenario name {scenario.name!r}; names key "
                    "run records and must be unique"
                )
            seen.add(scenario.name)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "jobs": self.jobs,
            "retry_backoff": self.retry_backoff,
            "notes": self.notes,
            "scenarios": [s.to_dict() for s in self.scenarios],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CampaignSpec":
        data = dict(data)
        base = data.pop("base", None)
        vary = data.pop("vary", None)
        scenarios = [Scenario.from_dict(s)
                     for s in data.pop("scenarios", [])]
        if vary:
            scenarios = list(scenarios) + expand_grid(
                data.get("name", "campaign"), base or {}, vary
            )
        spec = cls(scenarios=scenarios,
                   **{k: v for k, v in data.items()
                      if k in ("name", "jobs", "retry_backoff", "notes")})
        return spec


# ----------------------------------------------------------------------
# Grid expansion
# ----------------------------------------------------------------------
def _set_dotted(doc: Dict[str, Any], dotted: str, value: Any) -> None:
    parts = dotted.split(".")
    node = doc
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ValueError(f"cannot descend into {dotted!r}")
    node[parts[-1]] = value


def _name_token(value: Any) -> str:
    text = str(value)
    return "".join(ch if (ch.isalnum() or ch in "-.") else "-"
                   for ch in text)


def expand_grid(
    name: str,
    base: Mapping[str, Any],
    vary: Mapping[str, Sequence[Any]],
) -> List[Scenario]:
    """Cross-product scenario expansion.

    ``base`` is a (possibly partial) scenario dict; ``vary`` maps dotted
    field paths to value lists, e.g.::

        expand_grid("lu", {"trace": {"kind": "synth"}},
                    {"trace.cls": ["B", "C"], "ranks": [8, 16]})

    yields 4 scenarios named ``lu-B-8`` ... ``lu-C-16`` (name tokens
    follow ``vary``'s key order).  An explicit ``base["name"]`` becomes
    the prefix instead of ``name``.
    """
    if not vary:
        raise ValueError("vary must name at least one axis")
    keys = list(vary.keys())
    prefix = str(base.get("name", name))
    scenarios: List[Scenario] = []
    for combo in itertools.product(*(vary[k] for k in keys)):
        doc = json.loads(json.dumps(dict(base)))  # deep copy, JSON-clean
        for key, value in zip(keys, combo):
            _set_dotted(doc, key, value)
        doc["name"] = "-".join([prefix] + [_name_token(v) for v in combo])
        scenarios.append(Scenario.from_dict(doc))
    return scenarios


def load_campaign_spec(path: str) -> CampaignSpec:
    """Load a campaign spec JSON file (the ``repro-campaign run`` input).

    The document is :meth:`CampaignSpec.to_dict`'s shape, optionally with
    ``base``/``vary`` keys that :func:`expand_grid` turns into scenarios
    (explicit ``scenarios`` entries are kept and run first).
    """
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if "name" not in data:
        raise ValueError(f"{path}: campaign spec needs a 'name'")
    return CampaignSpec.from_dict(data)
