"""Unit/integration tests for the tau2simgrid extractor."""

import os

import pytest

from repro.core.actions import (
    AllReduce, Barrier, Bcast, CommSize, Compute, Irecv, Isend, Recv,
    Reduce, Send, Wait,
)
from repro.core.trace import read_trace_dir
from repro.extract import extract_rank, tau2simgrid
from repro.extract.tfr import TfrCallbacks, read_trace
from repro.simkernel import Platform
from repro.simkernel.pwl import IDENTITY_MODEL
from repro.smpi import MpiRuntime, round_robin_deployment
from repro.tracer import Tracer, VirtualCounterBank


def run_traced(program, n_ranks, tmp_path, jitter=0.0):
    platform = Platform("t")
    platform.add_cluster("c", n_ranks, speed=1e9, link_bw=1.25e8,
                         link_lat=1e-5, backbone_bw=1.25e9, backbone_lat=1e-5)
    tracer = Tracer(str(tmp_path))
    papi = VirtualCounterBank(n_ranks, jitter=jitter, seed=3)
    runtime = MpiRuntime(platform, round_robin_deployment(platform, n_ranks),
                         comm_model=IDENTITY_MODEL, hooks=tracer, papi=papi)
    runtime.run(program)
    return tracer.archive


def test_tfr_callbacks_fire_in_order(tmp_path):
    def program(mpi):
        yield from mpi.compute(1e6)
        if mpi.rank == 0:
            yield from mpi.send(1, 100)
        else:
            yield from mpi.recv(src=0)

    archive = run_traced(program, 2, tmp_path)
    seen = []

    class Probe(TfrCallbacks):
        def def_state(self, event_id, name, group):
            seen.append(("def_state", name.strip(), group))

        def enter_state(self, nid, tid, t, event_id):
            seen.append(("enter", event_id))

        def leave_state(self, nid, tid, t, event_id):
            seen.append(("leave", event_id))

        def send_message(self, nid, tid, t, dst, size, tag, comm):
            seen.append(("send", dst, size))

        def end_trace(self, nid, tid):
            seen.append(("end",))

    n = read_trace(archive.trc_path(0), archive.edf_path(0), Probe())
    assert n == archive.records_per_rank[0]
    assert ("send", 1, 100) in seen
    assert seen[-1] == ("end",)
    groups = {entry[2] for entry in seen if entry[0] == "def_state"}
    assert "MPI" in groups and "TAU_USER" in groups


def test_extract_simple_sequence(tmp_path):
    def program(mpi):
        yield from mpi.compute(5e6)
        if mpi.rank == 0:
            yield from mpi.send(1, 1000)
            yield from mpi.compute(2e6)
        else:
            yield from mpi.recv(src=0)
            yield from mpi.compute(3e6)

    archive = run_traced(program, 2, tmp_path)
    actions, nbytes, _ = extract_rank(
        archive.trc_path(0), archive.edf_path(0), 0, 2
    )
    assert nbytes > 0
    out = os.path.join(str(tmp_path), "SG_process0.trace")
    n0, b0, _ = extract_rank(archive.trc_path(0), archive.edf_path(0), 0, 2,
                             out_dir=str(tmp_path))
    assert os.path.getsize(out) == b0
    with open(out) as handle:
        lines = handle.read().splitlines()
    assert lines == ["p0 compute 5000000", "p0 send p1 1000",
                     "p0 compute 2000000"]


def test_extract_irecv_lookup_technique(tmp_path):
    """Irecv volume/source are resolved at MPI_Wait (§4.3)."""
    def program(mpi):
        if mpi.rank == 0:
            req = mpi.irecv(src=1)
            yield from mpi.compute(1e6)
            yield from mpi.wait(req)
        else:
            yield from mpi.compute(1e6)
            yield from mpi.send(0, 4242)

    archive = run_traced(program, 2, tmp_path)
    tau2simgrid(str(tmp_path), 2, str(tmp_path / "ti"))
    trace = read_trace_dir(str(tmp_path / "ti"))
    p0 = trace.actions_of(0)
    # Irecv appears at its posting position, resolved with src and volume,
    # the compute overlaps, and the wait closes it.
    assert p0 == [Irecv(0, 1, 4242.0), Compute(0, 1e6), Wait(0)]
    assert trace.actions_of(1) == [Compute(1, 1e6), Send(1, 0, 4242.0)]


def test_extract_wait_on_send_emits_nothing(tmp_path):
    def program(mpi):
        if mpi.rank == 0:
            req = mpi.isend(1, 777)
            yield from mpi.wait(req)
        else:
            yield from mpi.recv(src=0)

    archive = run_traced(program, 2, tmp_path)
    tau2simgrid(str(tmp_path), 2, str(tmp_path / "ti"))
    trace = read_trace_dir(str(tmp_path / "ti"))
    assert trace.actions_of(0) == [Isend(0, 1, 777.0)]
    assert trace.actions_of(1) == [Recv(1, 0, 777.0)]


def test_extract_collectives_and_comm_size(tmp_path):
    def program(mpi):
        yield from mpi.comm_size()
        yield from mpi.bcast(4096, root=0)
        yield from mpi.reduce(40, flops=10, root=0)
        yield from mpi.allreduce(40, flops=10)
        yield from mpi.barrier()

    archive = run_traced(program, 4, tmp_path)
    tau2simgrid(str(tmp_path), 4, str(tmp_path / "ti"))
    trace = read_trace_dir(str(tmp_path / "ti"))
    for rank in range(4):
        assert trace.actions_of(rank) == [
            CommSize(rank, 4),
            Bcast(rank, 4096.0),
            Reduce(rank, 40.0, 10.0),
            AllReduce(rank, 40.0, 10.0),
            Barrier(rank),
        ]


def test_extract_trailing_compute_burst(tmp_path):
    def program(mpi):
        yield from mpi.barrier()
        yield from mpi.compute(9e6)  # after the last MPI call

    archive = run_traced(program, 2, tmp_path)
    tau2simgrid(str(tmp_path), 2, str(tmp_path / "ti"))
    trace = read_trace_dir(str(tmp_path / "ti"))
    assert trace.actions_of(0)[-1] == Compute(0, 9e6)


def test_extract_flops_inside_mpi_are_ignored(tmp_path):
    """Reduce-operator flops happen inside MPI_Reduce: they must not leak
    into compute actions (§4.3: accounted for by the network model)."""
    def program(mpi):
        yield from mpi.comm_size()
        yield from mpi.compute(1e6)
        yield from mpi.reduce(40, flops=123456, root=0)
        yield from mpi.compute(2e6)

    archive = run_traced(program, 4, tmp_path)
    tau2simgrid(str(tmp_path), 4, str(tmp_path / "ti"))
    trace = read_trace_dir(str(tmp_path / "ti"))
    computes = [a.volume for a in trace.actions_of(0)
                if isinstance(a, Compute)]
    assert computes == [1e6, 2e6]


def test_extraction_report_totals(tmp_path):
    def program(mpi):
        yield from mpi.compute(1e6)
        if mpi.rank == 0:
            yield from mpi.send(1, 10)
        else:
            yield from mpi.recv(src=0)

    run_traced(program, 2, tmp_path)
    report = tau2simgrid(str(tmp_path), 2, str(tmp_path / "ti"))
    assert report.n_ranks == 2
    assert report.n_actions == 4
    assert report.per_rank_actions == [2, 2]
    real = sum(
        os.path.getsize(os.path.join(str(tmp_path / "ti"), f"SG_process{r}.trace"))
        for r in range(2)
    )
    assert report.n_bytes == real
    assert report.wall_seconds > 0


def test_extraction_counting_mode(tmp_path):
    def program(mpi):
        yield from mpi.compute(1e6)

    run_traced(program, 2, tmp_path)
    report = tau2simgrid(str(tmp_path), 2, out_dir=None)
    assert report.n_actions == 2
    assert not os.path.exists(str(tmp_path / "ti"))


def test_extraction_parallel_pool_agrees(tmp_path):
    def program(mpi):
        yield from mpi.compute(1e6)
        if mpi.rank == 0:
            yield from mpi.send(1, 10)
        else:
            yield from mpi.recv(src=0)

    run_traced(program, 2, tmp_path)
    seq = tau2simgrid(str(tmp_path), 2, str(tmp_path / "a"))
    par = tau2simgrid(str(tmp_path), 2, str(tmp_path / "b"), processes=2)
    assert seq.n_actions == par.n_actions
    assert seq.n_bytes == par.n_bytes


def test_extract_with_timings_produces_burst_samples(tmp_path):
    def program(mpi):
        yield from mpi.compute(4e6)
        yield from mpi.barrier()

    run_traced(program, 2, tmp_path)
    report = tau2simgrid(str(tmp_path), 2, out_dir=None, collect_timings=True)
    assert report.burst_samples
    sample = report.burst_samples[0]
    assert sample.flops == 4e6
    assert sample.seconds > 0
    assert sample.ended_by == "MPI_Barrier"
    assert {s.rank for s in report.burst_samples} == {0, 1}


def test_extract_jittered_volumes_stay_close(tmp_path):
    """Counter jitter perturbs compute volumes by <1% (§6.2)."""
    def program(mpi):
        for _ in range(10):
            yield from mpi.compute(1e6)
            yield from mpi.barrier()

    run_traced(program, 2, tmp_path, jitter=0.005)
    tau2simgrid(str(tmp_path), 2, str(tmp_path / "ti"))
    trace = read_trace_dir(str(tmp_path / "ti"))
    volumes = [a.volume for a in trace.actions_of(0)
               if isinstance(a, Compute)]
    assert len(volumes) == 10
    for volume in volumes:
        assert volume != 1e6  # noisy
        assert abs(volume - 1e6) / 1e6 < 0.01
