"""Tests for the command-line tools."""

import gzip
import os

import pytest

from repro.cli import main_acquire, main_calibrate, main_replay, main_tau2ti

from .lattice import write_program


def test_cli_acquire_and_replay_roundtrip(tmp_path, capsys):
    workdir = str(tmp_path / "acq")
    rc = main_acquire([
        "--app", "ring", "--ranks", "4", "--platform", "bordereau",
        "--hosts", "4", "--workdir", workdir,
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "execution time" in out
    assert "TI trace size" in out
    ti_dir = os.path.join(workdir, "ti")
    assert os.path.exists(os.path.join(ti_dir, "SG_process0.trace"))

    # Calibrate, writing a platform XML, then replay from pure files.
    platform_xml = str(tmp_path / "calibrated.xml")
    rc = main_calibrate([
        "--app", "ring", "--ranks", "4", "--platform", "bordereau",
        "--hosts", "4", "--runs", "2", "--output", platform_xml,
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "flop rate" in out
    assert os.path.exists(platform_xml)

    timed = str(tmp_path / "timed.txt")
    rc = main_replay([
        ti_dir, "--platform-xml", platform_xml, "--ranks", "4",
        "--timed-trace", timed,
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Simulated execution time:" in out
    with open(timed) as handle:
        lines = handle.read().splitlines()
    assert len(lines) == 48  # 4 ranks x 12 actions
    assert lines[0].startswith("p0 ")


def test_cli_tau2ti(tmp_path, capsys):
    workdir = str(tmp_path / "acq")
    main_acquire([
        "--app", "ring", "--ranks", "2", "--platform", "bordereau",
        "--hosts", "2", "--workdir", workdir, "--skip-application-run",
    ])
    capsys.readouterr()
    out_dir = str(tmp_path / "ti2")
    rc = main_tau2ti([os.path.join(workdir, "tau"), "2", out_dir])
    assert rc == 0
    assert "extracted" in capsys.readouterr().out
    assert os.path.exists(os.path.join(out_dir, "SG_process1.trace"))


def test_cli_acquire_modes_and_lu(tmp_path, capsys):
    rc = main_acquire([
        "--app", "lu", "--class", "S", "--ranks", "4",
        "--platform", "grid5000", "--hosts", "8",
        "--mode", "SF-(2,2)", "--workdir", str(tmp_path),
        "--skip-application-run",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "mode:                SF-(2,2)" in out


def test_cli_replay_flat_collectives(tmp_path, capsys):
    workdir = str(tmp_path / "acq")
    main_acquire([
        "--app", "lu", "--class", "S", "--ranks", "4",
        "--platform", "bordereau", "--hosts", "4",
        "--workdir", workdir, "--skip-application-run",
    ])
    platform_xml = str(tmp_path / "p.xml")
    main_calibrate([
        "--app", "ring", "--ranks", "2", "--platform", "bordereau",
        "--hosts", "4", "--runs", "1", "--output", platform_xml,
    ])
    capsys.readouterr()
    rc = main_replay([
        os.path.join(workdir, "ti"), "--platform-xml", platform_xml,
        "--ranks", "4", "--collectives", "flat",
    ])
    assert rc == 0
    assert "Simulated execution time:" in capsys.readouterr().out


def test_cli_bad_platform_rejected():
    with pytest.raises(SystemExit):
        main_acquire(["--platform", "nonexistent", "--workdir", "/tmp/x"])


def test_cli_convert_roundtrip(tmp_path, capsys):
    workdir = str(tmp_path / "acq")
    main_acquire([
        "--app", "ring", "--ranks", "2", "--platform", "bordereau",
        "--hosts", "2", "--workdir", workdir, "--skip-application-run",
    ])
    capsys.readouterr()
    from repro.cli import main_convert
    ti = os.path.join(workdir, "ti")
    bin_dir = str(tmp_path / "bin")
    rc = main_convert([ti, bin_dir, "--to", "binary"])
    assert rc == 0
    assert "converted 2 ranks" in capsys.readouterr().out
    back = str(tmp_path / "text")
    rc = main_convert([bin_dir, back, "--to", "text"])
    assert rc == 0
    original = open(os.path.join(ti, "SG_process0.trace")).read()
    restored = open(os.path.join(back, "SG_process0.trace")).read()
    assert original == restored


def test_cli_validate(tmp_path, capsys):
    workdir = str(tmp_path / "acq")
    main_acquire([
        "--app", "ring", "--ranks", "2", "--platform", "bordereau",
        "--hosts", "2", "--workdir", workdir, "--skip-application-run",
    ])
    capsys.readouterr()
    from repro.cli import main_validate
    rc = main_validate([os.path.join(workdir, "ti")])
    assert rc == 0
    assert "OK" in capsys.readouterr().out
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "SG_process0.trace").write_text("p0 wait\n")
    rc = main_validate([str(bad)])
    assert rc == 2  # errors exit 2 (1 is reserved for warnings-only)
    assert "INVALID" in capsys.readouterr().out


def test_cli_validate_json_and_warning_taxonomy(tmp_path, capsys):
    import json

    from repro.cli import main_validate

    # Valid but warn-worthy: comm_size disagrees with the rank count.
    warn = tmp_path / "warn"
    warn.mkdir()
    (warn / "SG_process0.trace").write_text(
        "p0 comm_size 2\np0 compute 10\n")
    rc = main_validate([str(warn), "--format", "json"])
    assert rc == 1  # warnings only
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True
    assert doc["n_errors"] == 0 and doc["n_warnings"] >= 1
    assert all(f["severity"] == "warning" for f in doc["findings"])

    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "SG_process0.trace").write_text("p0 wait\n")
    rc = main_validate([str(bad), "--format", "json"])
    assert rc == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is False and doc["n_errors"] >= 1


@pytest.fixture()
def layouts(tmp_path):
    """One LU trace in four layouts: all text, all ``.btrace``, and
    mixed (text, ``.gz``, ``.btrace``, text)."""
    import gzip
    import shutil

    from repro.core.synth import write_synthetic_lu_trace

    text, binary, mixed = (str(tmp_path / name)
                           for name in ("text", "binary", "mixed"))
    write_synthetic_lu_trace(text, 4, 2, cls="S", seed=2, jitter=0.01)
    write_synthetic_lu_trace(binary, 4, 2, cls="S", seed=2, jitter=0.01,
                             binary=True)
    os.makedirs(mixed)
    for name in ("SG_process0.trace", "SG_process3.trace"):
        shutil.copy(os.path.join(text, name), mixed)
    with open(os.path.join(text, "SG_process1.trace"), "rb") as src, \
            gzip.open(os.path.join(mixed, "SG_process1.trace.gz"),
                      "wb") as dst:
        dst.write(src.read())
    shutil.copy(os.path.join(binary, "SG_process2.btrace"), mixed)
    return {"text": text, "binary": binary, "mixed": mixed}


@pytest.mark.parametrize("layout", ["binary", "mixed"])
def test_cli_validate_and_stats_read_every_layout(layouts, layout, capsys):
    from repro.cli import main_stats, main_validate

    reports = {}
    for name in ("text", layout):
        assert main_validate([layouts[name], "--format", "json"]) == 0
        assert main_stats([layouts[name]]) == 0
        reports[name] = capsys.readouterr().out
    assert reports[layout] == reports["text"]
    assert '"n_ranks": 4' in reports["text"]


def test_cli_convert_reads_gzip_and_mixed_layouts(layouts, tmp_path,
                                                  capsys):
    from repro.cli import main_convert

    to_binary, to_text = str(tmp_path / "b"), str(tmp_path / "t")
    assert main_convert([layouts["mixed"], to_binary, "--to", "binary"]) == 0
    assert "converted 4 ranks" in capsys.readouterr().out
    assert main_convert([to_binary, to_text, "--to", "text"]) == 0
    for rank in range(4):
        name = f"SG_process{rank}.btrace"
        with open(os.path.join(to_binary, name), "rb") as got, \
                open(os.path.join(layouts["binary"], name), "rb") as want:
            assert got.read() == want.read()
        name = f"SG_process{rank}.trace"
        with open(os.path.join(to_text, name)) as got, \
                open(os.path.join(layouts["text"], name)) as want:
            assert got.read() == want.read()


def test_cli_convert_refuses_to_overwrite_its_source(layouts, capsys):
    from repro.cli import main_convert

    text = layouts["text"]
    with open(os.path.join(text, "SG_process0.trace"), "rb") as handle:
        before = handle.read()
    assert main_convert([text, text + "/.", "--to", "text"]) == 2
    assert "same directory" in capsys.readouterr().err
    with open(os.path.join(text, "SG_process0.trace"), "rb") as handle:
        assert handle.read() == before


def test_cli_convert_refuses_a_destination_holding_rank_files(tmp_path,
                                                            capsys):
    from repro.cli import main_convert

    a = write_program(tmp_path / "a", {r: [f"p{r} compute 1e6"]
                                       for r in range(8)})
    b = write_program(tmp_path / "b", {r: [f"p{r} compute 2e6"]
                                       for r in range(4)})
    out = tmp_path / "out"
    assert main_convert([a, str(out), "--to", "text"]) == 0
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    assert main_convert([b, str(out), "--to", "binary"]) == 2
    assert "already holds rank files" in capsys.readouterr().err
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before


def rank_gap(tmp_path):
    gap = tmp_path / "gap"
    gap.mkdir()
    for rank in (0, 1, 3):
        (gap / f"SG_process{rank}.trace").write_text(f"p{rank} compute 1\n")
    return str(gap), "no trace file for p2"


def stored_twice(tmp_path):
    twice = tmp_path / "twice"
    twice.mkdir()
    (twice / "SG_process0.trace").write_text("p0 compute 1\n")
    with gzip.open(twice / "SG_process0.trace.gz", "wt") as handle:
        handle.write("p0 compute 1\n")
    return str(twice), "p0 is stored twice"


def missing(tmp_path):
    return str(tmp_path / "nowhere"), "nowhere"


def corrupt_btrace(tmp_path):
    bad = tmp_path / "corrupt"
    bad.mkdir()
    (bad / "SG_process0.btrace").write_bytes(
        b"TIBIN001\x01\x00\x00\x00\x00\x00\x00\x00\x7f")
    return str(bad), "record at byte 16: unknown opcode 127"


@pytest.mark.parametrize("tool", ["validate", "stats", "convert"])
@pytest.mark.parametrize("broken", [rank_gap, stored_twice, missing,
                                    corrupt_btrace])
def test_cli_trace_readers_fail_typed(tool, broken, tmp_path, capsys):
    from repro import cli

    source, message = broken(tmp_path)
    argv = [source] + ([str(tmp_path / "out"), "--to", "text"]
                       if tool == "convert" else [])
    assert getattr(cli, f"main_{tool}")(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{tool} failed: ")
    assert message in err
    assert "Traceback" not in err


def test_cli_acquire_cg_and_mg(tmp_path, capsys):
    for app in ("cg", "mg"):
        rc = main_acquire([
            "--app", app, "--class", "S", "--ranks", "4",
            "--platform", "bordereau", "--hosts", "4",
            "--workdir", str(tmp_path / app), "--skip-application-run",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "TI trace size" in out


def test_cli_stats(tmp_path, capsys):
    workdir = str(tmp_path / "acq")
    main_acquire([
        "--app", "lu", "--class", "S", "--ranks", "4",
        "--platform", "bordereau", "--hosts", "4",
        "--workdir", workdir, "--skip-application-run",
    ])
    capsys.readouterr()
    from repro.cli import main_stats
    rc = main_stats([os.path.join(workdir, "ti")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Trace statistics" in out
    assert "point-to-point" in out


def test_cli_replay_deadlock_exits_nonzero(tmp_path, capsys):
    """A failed replay must fail the invoking script — nonzero exit,
    diagnostics on stderr — while still emitting collected telemetry."""
    from repro.platforms import bordereau
    from repro.simkernel import dump_platform

    trace_dir = tmp_path / "dead"
    trace_dir.mkdir()
    # Two blocking recvs with no matching sends: a guaranteed deadlock.
    (trace_dir / "SG_process0.trace").write_text("p0 recv p1 100\n")
    (trace_dir / "SG_process1.trace").write_text("p1 recv p0 100\n")
    platform_xml = str(tmp_path / "p.xml")
    dump_platform(bordereau(n_hosts=4, ground_truth=False), platform_xml)

    rc = main_replay([str(trace_dir), "--platform-xml", platform_xml,
                      "--ranks", "2", "--metrics"])
    assert rc == 3
    captured = capsys.readouterr()
    assert "replay failed" in captured.err
    assert "DeadlockError" in captured.err
    assert "blocked processes" in captured.err
    # Telemetry collected up to the deadlock still comes out as JSON.
    assert '"engine"' in captured.out


def test_cli_replay_bad_trace_exits_nonzero(tmp_path, capsys):
    from repro.platforms import bordereau
    from repro.simkernel import dump_platform

    trace_dir = tmp_path / "bad"
    trace_dir.mkdir()
    (trace_dir / "SG_process0.trace").write_text("p0 frobnicate 1\n")
    platform_xml = str(tmp_path / "p.xml")
    dump_platform(bordereau(n_hosts=2, ground_truth=False), platform_xml)

    rc = main_replay([str(trace_dir), "--platform-xml", platform_xml,
                      "--ranks", "1"])
    assert rc == 3
    assert "replay failed" in capsys.readouterr().err


def test_cli_replay_with_faults_both_modes(tmp_path, capsys):
    import json

    from repro.platforms import bordereau
    from repro.simkernel import dump_platform

    workdir = str(tmp_path / "acq")
    main_acquire([
        "--app", "ring", "--ranks", "4", "--platform", "bordereau",
        "--hosts", "4", "--workdir", workdir, "--skip-application-run",
    ])
    capsys.readouterr()
    ti_dir = os.path.join(workdir, "ti")
    platform_xml = str(tmp_path / "p.xml")
    platform = bordereau(n_hosts=4, ground_truth=False)
    dump_platform(platform, platform_xml)
    victim = sorted(platform.hosts)[1]

    # Abort mode: the rank on the crashed host dies, the report says so.
    plan_path = str(tmp_path / "plan.json")
    with open(plan_path, "w") as handle:
        json.dump({"events": [
            {"kind": "host_crash", "host": victim, "t": 1e-5}]}, handle)
    report_path = str(tmp_path / "fault-report.json")
    rc = main_replay([ti_dir, "--platform-xml", platform_xml, "--ranks", "4",
                      "--faults", plan_path, "--fault-report", report_path])
    assert rc == 0
    out = capsys.readouterr().out
    assert "fault report (abort)" in out
    with open(report_path) as handle:
        doc = json.load(handle)
    assert [f["rank"] for f in doc["failures"]] == [1]
    assert doc["failures"][0]["host"] == victim

    # Checkpoint-restart mode needs a checkpoint block in the plan.
    with open(plan_path, "w") as handle:
        json.dump({
            "events": [{"kind": "host_crash", "host": victim, "t": 1e-5}],
            "checkpoint": {"interval": 1e-5, "cost": 1e-6, "restart": 1e-5},
        }, handle)
    rc = main_replay([ti_dir, "--platform-xml", platform_xml, "--ranks", "4",
                      "--faults", plan_path,
                      "--fault-mode", "checkpoint-restart"])
    assert rc == 0
    assert "checkpoint-restart" in capsys.readouterr().out


def test_cli_replay_bad_fault_plan_exits_2(tmp_path, capsys):
    from repro.platforms import bordereau
    from repro.simkernel import dump_platform

    trace_dir = tmp_path / "t"
    trace_dir.mkdir()
    (trace_dir / "SG_process0.trace").write_text("p0 compute 10\n")
    platform_xml = str(tmp_path / "p.xml")
    dump_platform(bordereau(n_hosts=2, ground_truth=False), platform_xml)
    plan_path = tmp_path / "plan.json"

    plan_path.write_text('{"events": [{"kind": "meteor", "t": 1}]}')
    rc = main_replay([str(trace_dir), "--platform-xml", platform_xml,
                      "--ranks", "1", "--faults", str(plan_path)])
    assert rc == 2
    assert "bad fault plan" in capsys.readouterr().err

    # Unknown host names are an input error too.
    plan_path.write_text(
        '{"events": [{"kind": "host_crash", "host": "ghost", "t": 1}]}')
    rc = main_replay([str(trace_dir), "--platform-xml", platform_xml,
                      "--ranks", "1", "--faults", str(plan_path)])
    assert rc == 2

    # checkpoint-restart without a checkpoint block: rejected up front.
    plan_path.write_text('{"events": []}')
    rc = main_replay([str(trace_dir), "--platform-xml", platform_xml,
                      "--ranks", "1", "--faults", str(plan_path),
                      "--fault-mode", "checkpoint-restart"])
    assert rc == 2


def test_worker_cli_has_no_verification_off_switch(tmp_path, capsys):
    from repro.service.worker import main_worker

    with pytest.raises(SystemExit) as exc:
        main_worker(["--server", "http://127.0.0.1:9", "--root",
                     str(tmp_path / "w"), "--no-verify"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: --no-verify" in err
    assert "Traceback" not in err
    assert not (tmp_path / "w").exists()
