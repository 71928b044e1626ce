"""Unit tests for the TAU-like tracer substrate."""

import os

import pytest

from repro.simkernel import DeadlockError, Platform
from repro.simkernel.pwl import IDENTITY_MODEL
from repro.smpi import MpiRuntime, round_robin_deployment
from repro.tracer import (
    ENTRY,
    EXIT,
    EV_RECV_MESSAGE,
    EV_SEND_MESSAGE,
    EventDef,
    RECORD_BYTES,
    Tracer,
    VirtualCounterBank,
    edf_file_name,
    pack_message,
    read_edf,
    read_records,
    record_count,
    trc_file_name,
    unpack_message,
    write_edf,
)
from repro.tracer.tracefile import TraceFileWriter


def make_runtime(n_ranks, tracer=None, papi=None):
    platform = Platform("t")
    platform.add_cluster("c", n_ranks, speed=1e9, link_bw=1.25e8,
                         link_lat=1e-5, backbone_bw=1.25e9, backbone_lat=1e-5)
    return MpiRuntime(platform, round_robin_deployment(platform, n_ranks),
                      comm_model=IDENTITY_MODEL, hooks=tracer, papi=papi)


# ---------------------------------------------------------------------------
# PAPI
# ---------------------------------------------------------------------------

def test_papi_counts_exactly_without_jitter():
    bank = VirtualCounterBank(2)
    bank.add(0, 1e6)
    bank.add(0, 5e5)
    assert bank.read(0) == 1_500_000
    assert bank.read(1) == 0


def test_papi_jitter_is_small_and_seeded():
    a = VirtualCounterBank(1, jitter=0.01, seed=7)
    b = VirtualCounterBank(1, jitter=0.01, seed=7)
    for _ in range(100):
        a.add(0, 1e4)
        b.add(0, 1e4)
    assert a.read(0) == b.read(0)  # deterministic per seed
    assert a.read(0) != 1_000_000  # but noisy
    assert abs(a.read(0) - 1e6) / 1e6 < 0.01
    assert a.read_true(0) == 1e6


def test_papi_validation():
    with pytest.raises(ValueError):
        VirtualCounterBank(0)
    with pytest.raises(ValueError):
        VirtualCounterBank(1, jitter=0.5)
    bank = VirtualCounterBank(1)
    with pytest.raises(ValueError):
        bank.add(0, -1)


# ---------------------------------------------------------------------------
# Message packing
# ---------------------------------------------------------------------------

def test_pack_unpack_message_roundtrip():
    for peer, tag, size in [(0, 0, 0), (5, 3, 163840), (1023, 255, 2 ** 34)]:
        assert unpack_message(pack_message(peer, tag, size)) == (peer, tag, size)


def test_pack_message_limits():
    with pytest.raises(ValueError):
        pack_message(-1, 0, 10)
    with pytest.raises(ValueError):
        pack_message(0, 0, 2 ** 40)  # > 32 GiB
    with pytest.raises(ValueError):
        pack_message(0, 0, 10.5)  # fractional bytes


# ---------------------------------------------------------------------------
# Binary trace files + edf
# ---------------------------------------------------------------------------

def test_trace_file_roundtrip(tmp_path):
    path = str(tmp_path / "t.trc")
    writer = TraceFileWriter(path)
    writer.write(49, 1, 0, ENTRY, 1.5)
    writer.write(1, 1, 0, 164035532, 1.5)
    writer.write(49, 1, 0, EXIT, 2.5)
    writer.close()
    assert writer.n_bytes == os.path.getsize(path)
    records = list(read_records(path))
    assert len(records) == 3
    assert records[0].event_id == 49 and records[0].param == ENTRY
    assert records[1].param == 164035532
    assert record_count(path) == 3


def test_trace_file_rejects_garbage(tmp_path):
    path = str(tmp_path / "bad.trc")
    with open(path, "wb") as handle:
        handle.write(b"not a trace")
    with pytest.raises(ValueError):
        list(read_records(path))


def test_edf_roundtrip(tmp_path):
    defs = [
        EventDef(49, "MPI", 0, "MPI_Send() ", "EntryExit"),
        EventDef(1, "TAUEVENT", 1, "PAPI_FP_OPS", "TriggerValue"),
    ]
    path = str(tmp_path / "events.0.edf")
    write_edf(defs, path)
    loaded = read_edf(path)
    assert loaded[49].name == "MPI_Send() "
    assert loaded[49].group == "MPI"
    assert loaded[1].kind == "TriggerValue"


def test_edf_header_mismatch(tmp_path):
    path = str(tmp_path / "e.edf")
    with open(path, "w") as handle:
        handle.write("5 dynamic_trace_events\n1 MPI 0 \"x\" EntryExit\n")
    with pytest.raises(ValueError):
        read_edf(path)


# ---------------------------------------------------------------------------
# Instrumented runs
# ---------------------------------------------------------------------------

def simple_exchange(mpi):
    yield from mpi.compute(2e6, kind="work")
    if mpi.rank == 0:
        yield from mpi.send(1, 163840)
        yield from mpi.recv(src=1)
    else:
        yield from mpi.recv(src=0)
        yield from mpi.send(0, 163840)


def test_tracer_writes_fig3_sequence(tmp_path):
    """An MPI_Send produces EnterState, counter triggers, the message-size
    trigger, SendMessage, counter triggers, LeaveState — the paper Fig. 3."""
    tracer = Tracer(str(tmp_path))
    runtime = make_runtime(2, tracer=tracer)
    runtime.run(simple_exchange)
    archive = tracer.archive
    records = list(read_records(archive.trc_path(0)))
    defs = read_edf(archive.edf_path(0))
    send_id = next(i for i, d in defs.items() if d.name.startswith("MPI_Send"))
    idx = next(i for i, r in enumerate(records)
               if r.event_id == send_id and r.param == ENTRY)
    window = records[idx:idx + 8]
    kinds = []
    for rec in window:
        if rec.event_id == send_id:
            kinds.append("enter" if rec.param == ENTRY else "leave")
        elif rec.event_id == EV_SEND_MESSAGE:
            kinds.append("sendmsg")
        elif defs.get(rec.event_id) and defs[rec.event_id].kind == "TriggerValue":
            kinds.append("trigger")
    assert kinds == ["enter", "trigger", "trigger", "trigger", "sendmsg",
                     "trigger", "trigger", "leave"]
    # The SendMessage record carries receiver and size.
    msg = next(r for r in window if r.event_id == EV_SEND_MESSAGE)
    peer, _tag, size = unpack_message(msg.param)
    assert (peer, size) == (1, 163840)


def test_tracer_archive_sizes_match_files(tmp_path):
    tracer = Tracer(str(tmp_path))
    runtime = make_runtime(2, tracer=tracer)
    runtime.run(simple_exchange)
    archive = tracer.archive
    for rank in range(2):
        assert os.path.getsize(archive.trc_path(rank)) == \
            archive.bytes_per_rank[rank]
        assert archive.bytes_per_rank[rank] == \
            16 + RECORD_BYTES * archive.records_per_rank[rank]


def test_counting_mode_matches_file_mode(tmp_path):
    """Size-accounting mode must count exactly what file mode writes."""
    t_files = Tracer(str(tmp_path))
    make_runtime(2, tracer=t_files).run(simple_exchange)
    t_count = Tracer(None)
    make_runtime(2, tracer=t_count).run(simple_exchange)
    assert t_count.archive.records_per_rank == t_files.archive.records_per_rank
    assert t_count.archive.n_bytes == t_files.archive.n_bytes
    with pytest.raises(ValueError):
        t_count.archive.trc_path(0)


def test_tracing_overhead_slows_execution():
    base = make_runtime(2).run(simple_exchange).time
    tracer = Tracer(None, per_record_overhead=1e-5)
    traced = make_runtime(2, tracer=tracer).run(simple_exchange).time
    assert traced > base
    zero = Tracer(None, per_record_overhead=0.0)
    untimed = make_runtime(2, tracer=zero).run(simple_exchange).time
    assert untimed == pytest.approx(base, rel=1e-9)


def test_selective_instrumentation_include(tmp_path):
    """Only included functions are traced (TAU's selective lists)."""
    tracer = Tracer(str(tmp_path),
                    include={"MPI_Send", "MPI_Recv"})
    runtime = make_runtime(2, tracer=tracer)
    runtime.run(simple_exchange)
    defs = read_edf(tracer.archive.edf_path(0))
    names = {d.name for d in defs.values() if d.kind == "EntryExit"}
    assert "MPI_Send() " in names
    assert not any(n.startswith("work") for n in names)


def test_selective_instrumentation_disable_window(tmp_path):
    """TAU_DISABLE_INSTRUMENTATION: disabled ranks write no records."""
    tracer = Tracer(str(tmp_path))

    def program(mpi):
        if mpi.rank == 1:
            tracer.set_enabled(1, False)
        yield from simple_exchange(mpi)

    runtime = make_runtime(2, tracer=tracer)
    runtime.run(program)
    archive = tracer.archive
    assert archive.records_per_rank[0] > 0
    assert archive.records_per_rank[1] == 0


def test_tracer_requires_fp_ops_counter():
    with pytest.raises(ValueError):
        Tracer(None, counters=("GET_TIME_OF_DAY",))


def test_tracer_single_use():
    tracer = Tracer(None)
    make_runtime(2, tracer=tracer).run(simple_exchange)
    with pytest.raises(RuntimeError):
        make_runtime(2, tracer=tracer).run(simple_exchange)


def test_failed_run_still_leaves_complete_trace_files(tmp_path):
    """A traced run that deadlocks (or whose program raises) detaches the
    tracer on the way out: every .trc is flushed and closed, and holds
    the entry of the MPI_Recv each rank is stuck in — the post-mortem
    evidence must not be lost in the writer's buffer."""
    def both_receive_first(mpi):
        yield from mpi.compute(1e6)
        yield from mpi.recv(src=1 - mpi.rank)
        yield from mpi.send(1 - mpi.rank, 1024)

    tracer = Tracer(str(tmp_path))
    runtime = make_runtime(2, tracer=tracer)
    with pytest.raises(DeadlockError):
        runtime.run(both_receive_first)
    archive = tracer.archive
    assert archive is not None
    assert all(sink._handle is None for sink in tracer._sinks)
    for rank in range(2):
        assert record_count(archive.trc_path(rank)) \
            == archive.records_per_rank[rank] > 0
        defs = read_edf(archive.edf_path(rank))
        recv_id = next(i for i, d in defs.items()
                       if d.name.startswith("MPI_Recv"))
        params = [r.param for r in read_records(archive.trc_path(rank))
                  if r.event_id == recv_id]
        assert params == [ENTRY]   # entered, never left

    def raises(mpi):
        yield from mpi.compute(1e6)
        raise KeyError("application bug")

    tracer = Tracer(str(tmp_path / "raised"))
    with pytest.raises(KeyError):
        make_runtime(2, tracer=tracer).run(raises)
    assert tracer.archive.records_per_rank[0] \
        == record_count(tracer.archive.trc_path(0)) > 0
