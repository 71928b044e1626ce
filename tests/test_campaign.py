"""Tests for repro.campaign: specs, cache-key invalidation, the runner
fleet (retries, timeouts, graceful failure), and the CLI."""

import json
import multiprocessing
import os
import time

import pytest

from repro.campaign import (
    CalibrationSpec, CampaignSpec, PlatformSpec, ReplaySpec, Scenario,
    TraceSpec, expand_grid, run_campaign, scenario_cache_key,
)
from repro.campaign.cli import main_campaign
from repro.campaign.runner import execute_scenario
from repro.campaign.store import CampaignStore
from repro.platforms import bordereau
from repro.simkernel import dump_platform


def lu_scenario(name="lu", ranks=4, **overrides):
    """A small, fast synth-LU scenario with a fixed calibration."""
    fields = dict(
        name=name, ranks=ranks,
        trace=TraceSpec(kind="synth", cls="S", iterations=2, inorm=1),
        platform=PlatformSpec(name="bordereau", hosts=8),
        calibration=CalibrationSpec(kind="fixed", speed=2e9),
    )
    fields.update(overrides)
    return Scenario(**fields)


# ----------------------------------------------------------------------
# Spec layer
# ----------------------------------------------------------------------
def test_scenario_roundtrips_through_dict():
    scenario = lu_scenario(measure_actual=True, timeout_s=12.5)
    assert Scenario.from_dict(scenario.to_dict()) == scenario
    # ...including through actual JSON (tuples become lists).
    assert Scenario.from_dict(json.loads(json.dumps(scenario.to_dict()))) \
        == scenario


def test_spec_rejects_unknown_fields():
    doc = lu_scenario().to_dict()
    doc["trace"]["typo_field"] = 1
    with pytest.raises(ValueError, match="typo_field"):
        Scenario.from_dict(doc)


def test_bad_kinds_and_names_rejected():
    with pytest.raises(ValueError, match="trace kind"):
        TraceSpec(kind="nope")
    with pytest.raises(ValueError, match="name"):
        Scenario(name="a/b", ranks=4)
    with pytest.raises(ValueError, match="duplicate"):
        CampaignSpec(name="c", scenarios=[lu_scenario(), lu_scenario()])


def test_expand_grid_cross_product():
    scenarios = expand_grid(
        "lu", {"ranks": 4, "trace": {"kind": "synth", "cls": "S",
                                     "iterations": 1, "inorm": 1}},
        {"trace.cls": ["S", "W"], "ranks": [2, 4]},
    )
    assert [s.name for s in scenarios] == \
        ["lu-S-2", "lu-S-4", "lu-W-2", "lu-W-4"]
    assert scenarios[3].trace.cls == "W" and scenarios[3].ranks == 4


# ----------------------------------------------------------------------
# Cache keys: what must (and must not) bust them
# ----------------------------------------------------------------------
def test_cache_key_deterministic_across_objects():
    assert scenario_cache_key(lu_scenario()) == \
        scenario_cache_key(lu_scenario())
    # The scenario *name* is a label, not an input to the result.
    assert scenario_cache_key(lu_scenario(name="other")) == \
        scenario_cache_key(lu_scenario())


def test_cache_key_busted_by_synth_seed_only_with_jitter():
    # With jitter the RNG shapes the trace, so the seed is part of the
    # content address ...
    jittered = lu_scenario(trace=TraceSpec(
        kind="synth", cls="S", iterations=2, inorm=1, seed=0, jitter=0.05))
    reseeded = lu_scenario(trace=TraceSpec(
        kind="synth", cls="S", iterations=2, inorm=1, seed=1, jitter=0.05))
    assert scenario_cache_key(jittered) != scenario_cache_key(reseeded)
    # ... but a jitter-free generator never draws from its RNG: two
    # seeds write byte-identical traces and must share one cache key
    # (the old behaviour split them — spurious misses on seed sweeps).
    base = lu_scenario()
    reseeded_flat = lu_scenario(trace=TraceSpec(
        kind="synth", cls="S", iterations=2, inorm=1, seed=1))
    assert scenario_cache_key(base) == scenario_cache_key(reseeded_flat)


def test_jitter_free_seed_normalisation_matches_trace_bytes(tmp_path):
    # The key-level normalisation mirrors a byte-level fact: check it.
    from repro.campaign.cache import digest_tree
    from repro.core.synth import synth_metadata, write_synthetic_lu_trace

    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    write_synthetic_lu_trace(a, 4, 2, cls="S", inorm=1, seed=0)
    write_synthetic_lu_trace(b, 4, 2, cls="S", inorm=1, seed=42)
    assert digest_tree(a) == digest_tree(b)
    assert synth_metadata(4, 2, "S", 1, seed=0) == \
        synth_metadata(4, 2, "S", 1, seed=42)
    # With jitter the same seeds diverge, byte-level and key-level.
    c, d = str(tmp_path / "c"), str(tmp_path / "d")
    write_synthetic_lu_trace(c, 4, 2, cls="S", inorm=1, seed=0, jitter=0.05)
    write_synthetic_lu_trace(d, 4, 2, cls="S", inorm=1, seed=42, jitter=0.05)
    assert digest_tree(c) != digest_tree(d)
    assert synth_metadata(4, 2, "S", 1, seed=0, jitter=0.05) != \
        synth_metadata(4, 2, "S", 1, seed=42, jitter=0.05)


def test_cache_key_busted_by_calibration_change():
    base = lu_scenario()
    faster = lu_scenario(calibration=CalibrationSpec(kind="fixed",
                                                     speed=3e9))
    segs = lu_scenario(calibration=CalibrationSpec(
        kind="fixed", speed=2e9,
        segments=((0.0, 1024.0, 1.5, 0.9),
                  (1024.0, float("inf"), 2.0, 0.95))))
    keys = {scenario_cache_key(s) for s in (base, faster, segs)}
    assert len(keys) == 3


def test_cache_key_busted_by_platform_xml_edit(tmp_path):
    xml = str(tmp_path / "p.xml")
    dump_platform(bordereau(n_hosts=4, ground_truth=False), xml)
    scenario = lu_scenario(platform=PlatformSpec(kind="xml", xml_path=xml))
    key_before = scenario_cache_key(scenario)
    # Byte-identical re-read: same key.
    assert scenario_cache_key(scenario) == key_before
    with open(xml, "a", encoding="utf-8") as handle:
        handle.write("<!-- faster links tomorrow -->\n")
    assert scenario_cache_key(scenario) != key_before


def test_cache_key_busted_by_replay_options_and_ranks():
    base = lu_scenario()
    flat = lu_scenario(replay=ReplaySpec(collectives="flat"))
    wider = lu_scenario(ranks=8)
    keys = {scenario_cache_key(s) for s in (base, flat, wider)}
    assert len(keys) == 3


# ----------------------------------------------------------------------
# Worker-side execution
# ----------------------------------------------------------------------
def test_execute_scenario_synth_is_deterministic():
    payload = execute_scenario(lu_scenario().to_dict())
    again = execute_scenario(lu_scenario().to_dict())
    assert payload["simulated_time"] == pytest.approx(
        again["simulated_time"])
    assert payload["simulated_time"] > 0
    assert payload["n_ranks"] == 4
    assert payload["metrics"] is not None
    assert "per_rank" not in payload["metrics"]


def test_execute_scenario_acquire_with_actual():
    scenario = lu_scenario(
        trace=TraceSpec(kind="acquire", app="lu", cls="S", itmax_cap=1),
        measure_actual=True,
    )
    payload = execute_scenario(scenario.to_dict())
    assert payload["actual_time"] > 0
    assert payload["simulated_time"] > 0
    assert payload["rel_error"] is not None


# ----------------------------------------------------------------------
# The runner fleet
# ----------------------------------------------------------------------
def test_campaign_runs_and_second_run_is_all_cache_hits(tmp_path):
    spec = CampaignSpec(name="two", jobs=2, scenarios=[
        lu_scenario("a"),
        lu_scenario("b", trace=TraceSpec(kind="synth", cls="S",
                                         iterations=2, inorm=1, seed=9,
                                         jitter=0.05)),
    ])
    out = str(tmp_path / "camp")
    first = run_campaign(spec, out)
    assert first.ok
    assert first.metrics.replays_executed == 2
    assert first.metrics.cached_hits == 0
    sims = {n: r.result["simulated_time"]
            for n, r in first.records.items()}
    assert sims["a"] != sims["b"]  # the seed perturbed the volumes

    # Byte-identical rerun: 100 % cache hits, zero replays executed.
    second = run_campaign(spec, out)
    assert second.ok
    assert second.metrics.cached_hits == 2
    assert second.metrics.replays_executed == 0
    assert {n: r.result["simulated_time"]
            for n, r in second.records.items()} == sims
    manifest = CampaignStore(out).read_manifest()
    assert manifest["scenarios"]["a"]["cache_hit"] is True


def test_campaign_retries_then_succeeds(tmp_path):
    state = str(tmp_path / "state")
    spec = CampaignSpec(name="retry", jobs=1, retry_backoff=0.05,
                        scenarios=[Scenario(
                            "flaky", 2,
                            trace=TraceSpec(kind="fail", fail_times=2,
                                            state_path=state),
                            max_retries=3)])
    result = run_campaign(spec, str(tmp_path / "camp"))
    assert result.ok
    record = result.records["flaky"]
    assert record.attempts == 3           # 2 failures + 1 success
    assert result.metrics.retries == 2
    # Why each retry happened is on the record, in attempt order, with
    # the applied exponential backoff.
    history = record.retry_history
    assert [h["attempt"] for h in history] == [1, 2]
    assert all(h["status"] == "failed" for h in history)
    assert all(h["error_type"] == "RuntimeError" for h in history)
    assert "injected failure" in history[0]["message"]
    assert history[0]["backoff_s"] == pytest.approx(0.05)
    assert history[1]["backoff_s"] == pytest.approx(0.10)
    # The history survives the JSON round trip through the run store.
    from repro.campaign.store import CampaignStore
    stored = CampaignStore(str(tmp_path / "camp")).read_run("flaky")
    assert stored.retry_history == history
    # ... and surfaces in the report's retry summary.
    from repro.campaign.report import render_retry_summary
    lines = render_retry_summary([stored])
    assert any("flaky" in line and "RuntimeError" in line
               for line in lines)


def test_resume_supersedes_stale_failure_and_keeps_history(tmp_path):
    # A failed record must not shadow (or survive alongside) the
    # successful re-run: --resume re-executes it, overwrites
    # runs/<name>.json and the manifest entry, and carries the old
    # attempt history forward tagged as resumed.
    state = str(tmp_path / "state")
    spec = CampaignSpec(name="res", jobs=1, retry_backoff=0.01,
                        scenarios=[Scenario(
                            "flaky", 2,
                            trace=TraceSpec(kind="fail", fail_times=2,
                                            state_path=state),
                            max_retries=0)])
    out = str(tmp_path / "camp")

    assert not run_campaign(spec, out).ok          # failure 1 of 2
    second = run_campaign(spec, out, resume=True)  # failure 2 of 2
    assert not second.ok
    assert [h.get("resumed", False)
            for h in second.records["flaky"].retry_history] == [True, False]

    third = run_campaign(spec, out, resume=True)   # succeeds
    assert third.ok
    record = third.records["flaky"]
    assert record.ok and not record.cache_hit
    assert len(record.retry_history) == 2
    assert all(h["resumed"] for h in record.retry_history)

    # Superseded, not duplicated: one run file, one manifest entry, ok.
    store = CampaignStore(out)
    assert os.listdir(os.path.join(out, "runs")) == ["flaky.json"]
    stored = store.read_run("flaky")
    assert stored.ok and stored.retry_history == record.retry_history
    manifest = store.read_manifest()
    assert manifest["scenarios"]["flaky"]["status"] == "ok"

    # A fourth resume serves the stored success — and must *keep* the
    # provenance, not reset it to an empty history.
    fourth = run_campaign(spec, out, resume=True)
    assert fourth.ok
    assert fourth.records["flaky"].cache_source == "store"
    assert fourth.records["flaky"].retry_history == record.retry_history
    assert store.read_run("flaky").retry_history == record.retry_history


def _run_hung_campaign(spec, out_dir):
    """Run a campaign whose scenario outsleeps its ``timeout_s``: the
    timeout must actually end the attempt (not wait out the sleep) and
    leave no worker process behind."""
    t0 = time.monotonic()
    result = run_campaign(spec, out_dir)
    assert time.monotonic() - t0 < 5.0
    assert multiprocessing.active_children() == []
    return result


def test_campaign_timeout_retry_reason_is_recorded(tmp_path):
    spec = CampaignSpec(name="hang2", jobs=1, retry_backoff=0.05,
                        scenarios=[Scenario(
                            "stuck", 2,
                            trace=TraceSpec(kind="sleep", seconds=30.0),
                            timeout_s=0.3, max_retries=1)])
    result = _run_hung_campaign(spec, str(tmp_path / "camp"))
    record = result.records["stuck"]
    assert record.status == "timeout"
    assert [h["status"] for h in record.retry_history] == \
        ["timeout", "timeout"]
    assert all(h["error_type"] == "Timeout" for h in record.retry_history)
    # The final (give-up) attempt triggered no backoff.
    assert record.retry_history[-1]["backoff_s"] == 0.0


def test_campaign_survives_a_permanently_failing_scenario(tmp_path):
    spec = CampaignSpec(name="mixed", jobs=2, retry_backoff=0.05,
                        scenarios=[
                            lu_scenario("good"),
                            Scenario("bad", 2,
                                     trace=TraceSpec(kind="fail",
                                                     fail_times=99),
                                     max_retries=1),
                        ])
    result = run_campaign(spec, str(tmp_path / "camp"))
    assert not result.ok
    assert result.failed_names == ["bad"]
    assert result.records["good"].ok
    bad = result.records["bad"]
    assert bad.status == "failed"
    assert bad.attempts == 2
    assert "injected failure" in bad.error["message"]
    assert "RuntimeError" in bad.error["traceback"]
    # Failures are never cached: a rerun tries again.
    rerun = run_campaign(spec, str(tmp_path / "camp"))
    assert rerun.metrics.cached_hits == 1
    assert rerun.metrics.replays_executed == 2


def test_campaign_times_out_a_hung_scenario(tmp_path):
    spec = CampaignSpec(name="hang", jobs=1, scenarios=[Scenario(
        "stuck", 2, trace=TraceSpec(kind="sleep", seconds=30.0),
        timeout_s=0.3, max_retries=0)])
    result = _run_hung_campaign(spec, str(tmp_path / "camp"))
    assert result.records["stuck"].status == "timeout"
    assert result.metrics.timeouts == 1


def _exit_3(conn, sdict):
    os._exit(3)


def test_campaign_records_a_worker_that_died_without_a_verdict(
        tmp_path, monkeypatch):
    from repro.campaign import runner
    monkeypatch.setattr(runner, "_scenario_worker", _exit_3)
    spec = CampaignSpec(name="dead", jobs=1, scenarios=[
        lu_scenario("gone", max_retries=0)])
    result = run_campaign(spec, str(tmp_path / "camp"))
    record = result.records["gone"]
    assert record.status == "failed" and record.attempts == 1
    assert record.error["type"] == "WorkerDied"
    assert "exitcode 3" in record.error["message"]
    assert multiprocessing.active_children() == []


def test_no_cache_forces_execution_and_resume_serves_from_store(tmp_path):
    spec = CampaignSpec(name="one", jobs=1, scenarios=[lu_scenario("a")])
    out = str(tmp_path / "camp")
    run_campaign(spec, out)
    forced = run_campaign(spec, out, use_cache=False)
    assert forced.metrics.replays_executed == 1
    # --resume consults the run store even with the cache disabled.
    resumed = run_campaign(spec, out, use_cache=False, resume=True)
    assert resumed.metrics.replays_executed == 0
    assert resumed.metrics.cached_from_store == 1
    assert resumed.records["a"].cache_source == "store"


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_campaign_cli_run_status_report(tmp_path, capsys):
    spec_path = str(tmp_path / "spec.json")
    with open(spec_path, "w", encoding="utf-8") as handle:
        json.dump({
            "name": "cli-sweep",
            "jobs": 2,
            "base": {
                "ranks": 2,
                "trace": {"kind": "synth", "cls": "S",
                          "iterations": 1, "inorm": 1},
                "platform": {"name": "bordereau", "hosts": 4},
                "calibration": {"kind": "fixed", "speed": 2e9},
            },
            "vary": {"ranks": [2, 4]},
        }, handle)
    out = str(tmp_path / "camp")
    rc = main_campaign(["run", spec_path, "--out", out, "--quiet"])
    assert rc == 0
    assert "2/2 scenarios ok" in capsys.readouterr().out

    rc = main_campaign(["run", spec_path, "--out", out, "--quiet"])
    assert rc == 0
    assert "(2 cached" in capsys.readouterr().out

    rc = main_campaign(["status", out])
    assert rc == 0
    status = capsys.readouterr().out
    assert "cli-sweep-2" in status and "cli-sweep-4" in status
    assert "cache:" in status

    report_path = str(tmp_path / "report.txt")
    rc = main_campaign(["report", out, "--output", report_path])
    assert rc == 0
    with open(report_path, encoding="utf-8") as handle:
        report = handle.read()
    assert "simulated" in report and "cli-sweep-2" in report


def test_campaign_cli_bad_spec_is_a_clean_error(tmp_path, capsys):
    bad = str(tmp_path / "bad.json")
    with open(bad, "w", encoding="utf-8") as handle:
        handle.write("{\"scenarios\": []}")
    rc = main_campaign(["run", bad, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "bad campaign spec" in capsys.readouterr().err


def test_campaign_cli_failure_exits_nonzero(tmp_path, capsys):
    spec_path = str(tmp_path / "spec.json")
    with open(spec_path, "w", encoding="utf-8") as handle:
        json.dump({
            "name": "doomed",
            "retry_backoff": 0.05,
            "scenarios": [{
                "name": "bad", "ranks": 2, "max_retries": 0,
                "trace": {"kind": "fail", "fail_times": 9},
            }],
        }, handle)
    rc = main_campaign(["run", spec_path, "--out",
                        str(tmp_path / "camp"), "--quiet"])
    assert rc == 1
    assert "failed: bad" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Crash-safety: truncated manifests, SIGTERM drain, concurrent caches
# ----------------------------------------------------------------------
def test_truncated_manifest_is_detected_and_rebuilt(tmp_path):
    from repro.campaign.report import render_status

    spec = CampaignSpec(name="frag", jobs=2,
                        scenarios=[lu_scenario("a"),
                                   lu_scenario("b", ranks=2)])
    out = str(tmp_path / "camp")
    run_campaign(spec, out)
    store = CampaignStore(out)

    # Simulate a crash mid-write: chop the manifest in half.  (The real
    # writer is atomic — temp file + os.replace — so this models a
    # pre-atomic file or disk-level truncation.)
    with open(store.manifest_path, "r+", encoding="utf-8") as handle:
        content = handle.read()
        handle.seek(0)
        handle.truncate(len(content) // 2)
    assert store.read_manifest() is None        # detected, not crashed

    rebuilt = store.load_or_rebuild_manifest()
    assert rebuilt["rebuilt"] is True
    assert rebuilt["metrics"] == {}             # derived view: runs only
    statuses = {name: s["status"]
                for name, s in rebuilt["scenarios"].items()}
    assert statuses == {"a": "ok", "b": "ok"}
    # ...and the rebuilt manifest was persisted atomically for next time.
    assert store.read_manifest()["rebuilt"] is True

    # The human surfaces keep working and say what happened.
    text = render_status(out)
    assert "manifest rebuilt from run records" in text

    # A directory with no run records at all cannot be rebuilt.
    empty = CampaignStore(str(tmp_path / "empty"))
    assert empty.load_or_rebuild_manifest() is None


def _drain_child(spec_doc, out):
    """Child: run a slow campaign; SIGTERM should drain, not kill."""
    spec = CampaignSpec.from_dict(spec_doc)
    result = run_campaign(spec, out, log=None)
    # Exit code encodes the drain verdict for the parent to assert on.
    os._exit(0 if result.interrupted else 7)


def test_sigterm_drains_inflight_and_resume_completes(tmp_path):
    import multiprocessing
    import signal
    import time

    spec = CampaignSpec(
        name="drainme", jobs=1,
        # Distinct ranks: three distinct cache keys, so the resume below
        # must really *replay* the unlaunched one, not cache-hit it.
        scenarios=[Scenario(f"s{i}", 2 + i,
                            trace=TraceSpec(kind="sleep", seconds=1.0))
                   for i in range(3)])
    out = str(tmp_path / "camp")
    ctx = multiprocessing.get_context("fork")
    child = ctx.Process(target=_drain_child, args=(spec.to_dict(), out))
    child.start()

    # Wait for the first scenario to be recorded, then ask for a drain.
    store = CampaignStore(out)
    deadline = time.monotonic() + 60
    while not store.read_runs():
        assert time.monotonic() < deadline, "no scenario ever finished"
        time.sleep(0.05)
    os.kill(child.pid, signal.SIGTERM)
    child.join(30)
    assert child.exitcode == 0      # drained gracefully, not killed

    # The manifest is resumable: interrupted, with the in-flight
    # scenario recorded and the never-launched ones listed.
    manifest = store.read_manifest()
    assert manifest["interrupted"] is True
    recorded = {r.name for r in store.read_runs()}
    assert recorded                      # in-flight work was not lost
    assert set(manifest["unlaunched"]) == \
        {f"s{i}" for i in range(3)} - recorded

    # Resume: recorded scenarios come from the store, the rest replay.
    resumed = run_campaign(spec, out, resume=True, log=None)
    assert resumed.ok and not resumed.interrupted
    assert resumed.metrics.cached_from_store == len(recorded)
    assert resumed.metrics.replays_executed == 3 - len(recorded)
    assert store.read_manifest().get("interrupted") is None


def _shared_cache_child(spec_doc, out, cache_dir, verdict_path):
    spec = CampaignSpec.from_dict(spec_doc)
    result = run_campaign(spec, out, cache_dir=cache_dir, log=None)
    with open(verdict_path, "w", encoding="utf-8") as handle:
        json.dump({"ok": result.ok,
                   "cached_hits": result.metrics.cached_hits,
                   "replays": result.metrics.replays_executed}, handle)


def test_concurrent_runners_share_one_cache_without_corruption(tmp_path):
    import multiprocessing

    from repro.campaign.cache import ResultCache, scenario_cache_key

    spec = CampaignSpec(name="shared", jobs=2,
                        scenarios=[lu_scenario("a"),
                                   lu_scenario("b", ranks=2)])
    cache_dir = str(tmp_path / "cache")
    ctx = multiprocessing.get_context("fork")
    verdicts = [str(tmp_path / f"v{i}.json") for i in range(2)]
    runners = [
        ctx.Process(target=_shared_cache_child,
                    args=(spec.to_dict(), str(tmp_path / f"camp{i}"),
                          cache_dir, verdicts[i]))
        for i in range(2)
    ]
    for proc in runners:
        proc.start()
    for proc in runners:
        proc.join(120)
        assert proc.exitcode == 0

    # Both runners finished every scenario; per-runner counters
    # reconcile (every scenario was either a hit or a replay) ...
    docs = [json.load(open(v)) for v in verdicts]
    assert all(d["ok"] for d in docs)
    assert all(d["cached_hits"] + d["replays"] == 2 for d in docs)
    # ... and racing writers never tore a record: every cache entry is
    # valid JSON with the atomic writer's schema.
    cache = ResultCache(cache_dir)
    for scenario in spec.scenarios:
        record = cache.get(scenario_cache_key(scenario))
        assert record is not None and record["status"] == "ok"
    # A third run is then 100% warm.
    third = run_campaign(spec, str(tmp_path / "camp3"),
                         cache_dir=cache_dir, log=None)
    assert third.metrics.cached_hits == 2
    assert third.metrics.replays_executed == 0
