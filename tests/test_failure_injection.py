"""Failure injection: corrupted inputs must fail loudly, never silently.

An off-line simulation pipeline lives or dies by trusting its artefacts;
every reader in the stack is attacked here with truncated, mismatched,
and corrupted inputs.
"""

import os
import struct

import pytest

from repro.apps import ring_program
from repro.core.acquisition import acquire
from repro.extract import tau2simgrid
from repro.extract.tfr import read_trace
from repro.platforms import bordereau
from repro.tracer import read_edf, read_records, trc_file_name


@pytest.fixture()
def archive(tmp_path):
    """A real 2-rank TAU archive to corrupt."""
    result = acquire(ring_program, bordereau(2), 2,
                     workdir=str(tmp_path), measure_application=False)
    return os.path.join(str(tmp_path), "tau")


def test_truncated_trace_file_detected(archive, tmp_path):
    path = os.path.join(archive, trc_file_name(0))
    blob = open(path, "rb").read()
    open(path, "wb").write(blob[:len(blob) - 7])  # cut mid-record
    with pytest.raises(ValueError) as err:
        list(read_records(path))
    assert "truncated" in str(err.value)


def test_truncated_header_detected(archive):
    path = os.path.join(archive, trc_file_name(0))
    open(path, "wb").write(b"TAUTRC01\x01")
    with pytest.raises(ValueError):
        list(read_records(path))


def _corrupt_rank1_trc(kind, blob):
    if kind == "truncated header":
        return blob[:9]
    if kind == "bad magic":
        return b"NOTATRC0" + blob[8:]
    if kind == "unsupported version":
        return blob[:8] + struct.pack("<I", 7) + blob[12:]
    if kind == "trailing partial record":
        return blob + blob[16:16 + 11]
    assert kind == "undeclared event id"
    return blob + struct.pack("<IHHqd", 4242, 1, 0, 1, 9e9)


@pytest.mark.parametrize("kind, message", [
    ("truncated header", "truncated header"),
    ("bad magic", "bad magic"),
    ("unsupported version", "unsupported version 7"),
    ("trailing partial record", "truncated record"),
    ("undeclared event id", "event id 4242 not declared"),
])
def test_tau2simgrid_rejects_hostile_trace_file(archive, kind, message):
    """The same hostile files through the real path: ``tau2simgrid``
    drives the one record parser directly, so each failure is a
    ``ValueError`` naming the offending file — never a ``struct.error``
    or a silently shortened action list."""
    path = os.path.join(archive, trc_file_name(1))
    blob = open(path, "rb").read()
    with open(path, "wb") as handle:
        handle.write(_corrupt_rank1_trc(kind, blob))
    with pytest.raises(ValueError) as err:
        tau2simgrid(archive, 2, out_dir=None)
    assert message in str(err.value)
    assert path in str(err.value)
    if kind != "undeclared event id":   # read_records sees no .edf
        with pytest.raises(ValueError) as err:
            list(read_records(path))
        assert message in str(err.value)


def test_trace_edf_mismatch_detected(archive):
    """Records referencing undeclared event ids mean gathering shipped
    inconsistent files; extraction must refuse."""
    edf0 = os.path.join(archive, "events.0.edf")
    defs = open(edf0).read().splitlines()
    # Drop the MPI_Send declaration (keep the header count consistent).
    kept = [l for l in defs if "MPI_Send" not in l]
    kept[0] = f"{len(kept) - 2} dynamic_trace_events"
    open(edf0, "w").write("\n".join(kept) + "\n")
    with pytest.raises(ValueError) as err:
        tau2simgrid(archive, 2, out_dir=None)
    assert "not declared" in str(err.value)


def test_corrupted_event_order_detected(archive):
    """A LeaveState without its EnterState is a corrupt trace."""
    from repro.tracer.tracefile import (
        HEADER_BYTES, RECORD_BYTES, TraceFileWriter,
    )
    from repro.tracer.events import ENTRY, EXIT

    path = os.path.join(archive, trc_file_name(0))
    edf = os.path.join(archive, "events.0.edf")
    defs = read_edf(edf)
    send_id = next(i for i, d in defs.items()
                   if d.name.startswith("MPI_Send"))
    writer = TraceFileWriter(path)
    writer.write(send_id, 0, 0, EXIT, 1.0)  # exit before any entry
    writer.close()
    with pytest.raises(ValueError):
        tau2simgrid(archive, 2, out_dir=None)


def test_missing_rank_file_detected(archive):
    os.remove(os.path.join(archive, trc_file_name(1)))
    with pytest.raises(FileNotFoundError):
        tau2simgrid(archive, 2, out_dir=None)


def test_recv_message_outside_mpi_state_detected(archive):
    from repro.tracer.events import EV_RECV_MESSAGE, pack_message
    from repro.tracer.tracefile import TraceFileWriter

    path = os.path.join(archive, trc_file_name(0))
    writer = TraceFileWriter(path)
    writer.write(EV_RECV_MESSAGE, 0, 0, pack_message(1, 0, 100), 1.0)
    writer.close()
    with pytest.raises(ValueError) as err:
        tau2simgrid(archive, 2, out_dir=None)
    assert "RecvMessage" in str(err.value)


def test_tfr_reports_exact_record_count(archive):
    from repro.extract.tfr import TfrCallbacks

    path = os.path.join(archive, trc_file_name(0))
    expected = (os.path.getsize(path) - 16) // 24
    assert read_trace(path, os.path.join(archive, "events.0.edf"),
                      TfrCallbacks()) == expected


# ---------------------------------------------------------------------------
# Chaos fuzz: seeded corruption sweep over the trace readers
# ---------------------------------------------------------------------------

def _fuzz_reader(original: bytes, write_and_read, n_seeds: int = 24) -> int:
    """Corrupt ``original`` ``n_seeds`` ways; every damaged input must
    either still parse or raise a plain ``ValueError`` — never a
    ``struct.error``, ``IndexError``, or any other leaky internal type.
    Returns how many corruptions were actually rejected (sanity: the
    sweep must exercise the error paths, not only lucky no-ops)."""
    import random

    from repro.faults.chaos import CORRUPTION_MODES, corrupt_bytes

    rejected = 0
    case = 0
    for mode_index, mode in enumerate(CORRUPTION_MODES):
        for seed in range(n_seeds):
            case += 1
            rng = random.Random(mode_index * 1000 + seed)
            damaged, what = corrupt_bytes(original, rng, mode=mode)
            try:
                write_and_read(damaged)
            except ValueError:
                rejected += 1
            except Exception as exc:  # noqa: BLE001 - the assert IS the test
                pytest.fail(
                    f"case {case} ({mode}: {what}): reader leaked "
                    f"{type(exc).__name__}: {exc}"
                )
    return rejected


def test_fuzzed_text_trace_reader_raises_only_valueerror(tmp_path):
    from repro.core.synth import write_synthetic_lu_trace
    from repro.core.trace import read_trace_dir, trace_file_name

    src = tmp_path / "text"
    write_synthetic_lu_trace(str(src), 2, 1, cls="S")
    victim = src / trace_file_name(0)
    original = victim.read_bytes()

    def write_and_read(damaged):
        victim.write_bytes(damaged)
        read_trace_dir(str(src))

    rejected = _fuzz_reader(original, write_and_read)
    assert rejected > 0, "the sweep never hit a reader error path"


def test_fuzzed_binary_trace_reader_raises_only_valueerror(tmp_path):
    from repro.core.binfmt import binary_trace_file_name, read_binary_trace
    from repro.core.synth import write_synthetic_lu_trace

    src = tmp_path / "bin"
    write_synthetic_lu_trace(str(src), 2, 1, cls="S", binary=True)
    victim = src / binary_trace_file_name(0)
    original = victim.read_bytes()

    def write_and_read(damaged):
        victim.write_bytes(damaged)
        # Consume the stream fully and in small chunks, so corruption
        # carried across chunk boundaries is exercised too.
        for _ in read_binary_trace(str(victim), chunk_size=64):
            pass

    rejected = _fuzz_reader(original, write_and_read)
    assert rejected > 0, "the sweep never hit a reader error path"


def test_corrupt_trace_dir_feeds_replayable_or_typed_failure(tmp_path):
    """End-to-end chaos: a corrupted archive either replays (harmless
    damage) or the pipeline rejects it with ValueError — it never hangs
    or leaks an internal error."""
    from repro.core.replay import TraceReplayer
    from repro.core.synth import write_synthetic_lu_trace
    from repro.faults.chaos import corrupt_trace_dir
    from repro.simkernel import DeadlockError, Platform
    from repro.smpi import round_robin_deployment

    src = tmp_path / "src"
    write_synthetic_lu_trace(str(src), 4, 1, cls="S")
    for seed in range(6):
        dst = tmp_path / f"chaos-{seed}"
        corrupt_trace_dir(str(src), str(dst), seed=seed, n_files=2)
        platform = Platform("t")
        platform.add_cluster("c", 4, speed=1e9, link_bw=1.25e8,
                             link_lat=1e-5, backbone_bw=1.25e9,
                             backbone_lat=1e-5)
        replayer = TraceReplayer(
            platform, round_robin_deployment(platform, 4))
        try:
            replayer.replay(str(dst))
        except (ValueError, DeadlockError):
            pass  # typed rejection: fine.  Anything else fails the test.
