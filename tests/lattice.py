"""The replay lattice: what every equivalence test shares.

The replayer's contract is exact (docs/replay-semantics.md): however a
trace is stored or fed, and whichever solver, batching or sharding path
replays it, the result equals the oracle cell's to 1e-9.  This module
holds the pieces of that contract; ``tests/test_differential.py``
crosses them.  It is a helper module, not a test module: pytest does
not collect it.

* the platforms: a shared-backbone cluster and a fat-pipe one (the
  decoupled platform sharding needs);
* the configuration axes, their cells and the oracle cell;
* the fixed corpus and the source forms a trace can take;
* one replay helper, one equivalence assertion and one Hypothesis
  program strategy.
"""

import gzip
import itertools
import os

import pytest
from hypothesis import strategies as st

from repro.core.actions import format_action, parse_action
from repro.core.replay import TraceReplayer
from repro.core.synth import synthetic_lu_actions, write_synthetic_lu_trace
from repro.core.synth_ai import (
    synthetic_dp_actions, synthetic_moe_actions, synthetic_pp_actions,
    write_synthetic_ai_trace,
)
from repro.core.trace import InMemoryTrace, trace_file_name, write_rank_file
from repro.importers import import_param_comms
from repro.simkernel import Platform
from repro.simkernel.pwl import IDENTITY_MODEL
from repro.smpi import round_robin_deployment

from benchmarks.perf.replay_bench import CONSERVATIVE

TOLERANCE = 1e-9
EAGER = 1e3
RENDEZVOUS = 1e6
DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


# ---------------------------------------------------------------------------
# Platforms
# ---------------------------------------------------------------------------
def shared_platform(n_hosts, speed=1e9, scale=1.0, latency=1e-5):
    """One cluster on a shared backbone; ``scale`` multiplies every
    capacity (host speed and link bandwidth)."""
    platform = Platform("t")
    platform.add_cluster("c", n_hosts, speed=speed * scale,
                         link_bw=1.25e8 * scale, link_lat=latency,
                         backbone_bw=1.25e9 * scale, backbone_lat=latency)
    return platform


def fatpipe_platform(n_hosts, speed=1e9):
    """A decoupled cluster: per-host links plus a fat-pipe backbone, so
    flows between distinct host pairs share no constraint (what the
    sharded replay requires)."""
    platform = Platform("t")
    platform.add_cluster("c", n_hosts, speed=speed, link_bw=1.25e8,
                         link_lat=1e-6, backbone_bw=1.25e10,
                         backbone_lat=1e-6, backbone_sharing="fatpipe")
    return platform


PLATFORMS = {"shared": shared_platform, "fatpipe": fatpipe_platform}


# ---------------------------------------------------------------------------
# Configurations
# ---------------------------------------------------------------------------
#: The solver configurations: both modes, and the array filling on
#: every multi-constraint group.
SOLVERS = {"auto": {}, "reference": {"lmm_mode": "reference"},
           "vectorized": {"vector_threshold": 1}}

#: Every replayer keyword that picks a path, with the values it takes.
AXES = {
    "compiled": ("auto", "never"),
    "solver": tuple(SOLVERS),
    "lmm_incremental": (True, False),
    "batch_phases": (False, True),
    "shards": (0, 2),
    "collective_algorithm": ("binomial", "flat"),
}


#: Every cell of the lattice, by name ("compiled=auto/solver=...").
CELLS = {"/".join(f"{axis}={value}" for axis, value in zip(AXES, values)):
         dict(zip(AXES, values))
         for values in itertools.product(*AXES.values())}


def cell_config(cell):
    """Replayer keywords of a lattice cell."""
    config = {axis: value for axis, value in cell.items()
              if axis != "solver"}
    return dict(config, **SOLVERS[cell["solver"]])


def oracle_config(collective_algorithm="binomial"):
    """The oracle cell: the ledger's most conservative configuration.
    The collective algorithm is part of the semantics, not a path, so
    each algorithm has its own oracle."""
    return dict(CONSERVATIVE, collective_algorithm=collective_algorithm)


# ---------------------------------------------------------------------------
# Replaying
# ---------------------------------------------------------------------------
def make_replayer(platform, n_ranks, vector_threshold=None, **kw):
    kw.setdefault("comm_model", IDENTITY_MODEL)
    replayer = TraceReplayer(platform,
                             round_robin_deployment(platform, n_ranks), **kw)
    if vector_threshold is not None:
        replayer.engine.vector_threshold = vector_threshold
    return replayer


def replay(source, n_ranks, platform=shared_platform, **config):
    """Replay ``source`` on a fresh platform of ``n_ranks`` hosts."""
    return make_replayer(platform(n_ranks), n_ranks, **config).replay(source)


def projection(result):
    """The replay telemetry every exact path reproduces, flattened: the
    action count, the per-type action counts and volumes, and per rank
    its action counts and category times.  (Engine and comm counters
    differ by design: batching bypasses the mailbox.)"""
    replay_section = result.metrics["replay"]
    flat = {"n_actions": replay_section["n_actions"]}
    for key in ("actions_by_type", "volumes_by_type"):
        for name, value in replay_section[key].items():
            flat[f"{key}.{name}"] = value
    for row in result.metrics["per_rank"]:
        for key in ("actions", "time"):
            for name, value in row[key].items():
                flat[f"p{row['rank']}.{key}.{name}"] = value
    return flat


def assert_equivalent(expected, result, tol=TOLERANCE):
    """``result`` equals ``expected`` to ``tol``: makespan, per-rank
    finish times, action counts and, when both collected metrics, the
    :func:`projection`."""
    assert (result.n_ranks, result.n_actions) == \
        (expected.n_ranks, expected.n_actions)
    assert result.simulated_time == pytest.approx(
        expected.simulated_time, rel=tol, abs=tol)
    assert result.per_rank_time == pytest.approx(
        expected.per_rank_time, rel=tol, abs=tol)
    if expected.metrics and result.metrics:
        want, got = projection(expected), projection(result)
        if result.metrics["engine"].get("aggregated_over_shards"):
            # A sharded replay publishes aggregates only: no per-type
            # or per-rank rows.
            want = {"n_actions": want["n_actions"]}
        assert got == pytest.approx(want, rel=tol, abs=tol)


# ---------------------------------------------------------------------------
# Programs and the corpus
# ---------------------------------------------------------------------------
def write_program(directory, lines, end="\n"):
    """Write ``{rank: [line]}`` as a directory of text rank files."""
    os.makedirs(directory, exist_ok=True)
    for rank, rank_lines in lines.items():
        with open(os.path.join(directory, trace_file_name(rank)), "w",
                  encoding="ascii") as handle:
            handle.write("\n".join(rank_lines) + end)
    return str(directory)


#: Four ranks: a compute run per rank (fusion), blocking and detached
#: point-to-point, and the classic collectives.
MIXED_LINES = {
    0: ["p0 comm_size 4",
        "p0 compute 1e8", "p0 compute 2e8", "p0 compute 5e7",
        "p0 send p1 100000",
        "p0 Irecv p3 200000", "p0 compute 1.5e8", "p0 wait",
        "p0 bcast 65536",
        "p0 allReduce 4096 1e6",
        "p0 compute 1e8", "p0 compute 1e8",
        "p0 reduce 8192 2e6",
        "p0 barrier"],
    1: ["p1 comm_size 4",
        "p1 recv p0 100000",
        "p1 compute 3e8",
        "p1 send p2 150000",
        "p1 bcast 65536",
        "p1 allReduce 4096 1e6",
        "p1 compute 0.5e8",
        "p1 reduce 8192 2e6",
        "p1 barrier"],
    2: ["p2 comm_size 4",
        "p2 Irecv p1 150000", "p2 compute 2e8", "p2 wait",
        "p2 bcast 65536",
        "p2 allReduce 4096 1e6",
        "p2 reduce 8192 2e6",
        "p2 barrier"],
    3: ["p3 comm_size 4",
        "p3 Isend p0 200000",
        "p3 compute 1e8", "p3 compute 1e8", "p3 compute 1e8",
        "p3 bcast 65536",
        "p3 allReduce 4096 1e6",
        "p3 reduce 8192 2e6",
        "p3 barrier"],
}


def every_keyword_lines(rank):
    """Two ranks that spell every keyword of the action table."""
    peer = 1 - rank
    lines = [f"p{rank} comm_size 2", f"p{rank} compute {1e6 * (rank + 1)}"]
    if rank == 0:
        lines += ["p0 send p1 163840", "p0 Isend p1 520",
                  "p0 recv p1 1040"]
    else:
        lines += ["p1 Irecv p0 163840", "p1 recv p0 520", "p1 wait",
                  "p1 send p0 1040"]
    lines += [f"p{rank} bcast 4096", f"p{rank} reduce 4096 100",
              f"p{rank} allReduce 8192 200", f"p{rank} barrier",
              f"p{rank} allToAll 2048",
              f"p{rank} allToAllv 3072 {1024 * (1 + peer)} "
              f"{1024 * (2 - peer)}",
              f"p{rank} allGather 1024", f"p{rank} reduceScatter 4096 50"]
    return lines


#: The paper's Fig. 1 ring, one loop turn: 1 Mflop and 1 MB per rank.
FIG1_LINES = {
    0: ["p0 compute 1e6", "p0 send p1 1e6", "p0 recv p3 1e6"],
    **{rank: [f"p{rank} recv p{rank - 1} 1e6", f"p{rank} compute 1e6",
              f"p{rank} send p{(rank + 1) % 4} 1e6"] for rank in (1, 2, 3)},
}

#: Small sizes at which every AI family runs each of its collectives.
AI_PARAMS = {
    "dp": dict(n_buckets=2, bucket_bytes=1 << 16, step_flops=1e7),
    "pp": dict(microbatches=2, activation_bytes=1 << 14, stage_flops=1e6,
               grad_bytes=1 << 12),
    "moe": dict(layers=1, tokens_bytes=1 << 14, gate_flops=1e5,
                expert_flops=1e6, dense_bytes=1 << 12),
}


def _ai_member(family):
    return 8, lambda d: write_synthetic_ai_trace(family, d, 8, 1, seed=11,
                                                 **AI_PARAMS[family])


#: The fixed corpus: name -> (ranks, writer of its text directory).
#: ``lu4-b`` is the one member the sharded path accepts.
CORPUS = {
    "lu8": (8, lambda d: write_synthetic_lu_trace(d, 8, 3, cls="S",
                                                  inorm=2)),
    "lu4-b": (4, lambda d: write_synthetic_lu_trace(d, 4, 2, cls="B",
                                                    inorm=1)),
    "dp8": _ai_member("dp"),
    "pp8": _ai_member("pp"),
    "moe8": _ai_member("moe"),
    "mixed": (4, lambda d: write_program(d, MIXED_LINES)),
    "every-keyword": (2, lambda d: write_program(
        d, {rank: every_keyword_lines(rank) for rank in range(2)})),
    "fig1-ring": (4, lambda d: write_program(d, FIG1_LINES)),
    "param-comms": (4, lambda d: import_param_comms(
        os.path.join(DATA, "param_comms"), d)),
}


def build_corpus(root):
    """Write every corpus member under ``root``: name -> (dir, ranks)."""
    corpus = {}
    for name, (n_ranks, write) in CORPUS.items():
        directory = os.path.join(str(root), name)
        write(directory)
        corpus[name] = (directory, n_ranks)
    return corpus


# ---------------------------------------------------------------------------
# Source forms
# ---------------------------------------------------------------------------
def source_forms(lines, root):
    """``{rank: [line]}`` in every form the replayer reads: name ->
    source."""
    root = str(root)
    actions = {rank: [parse_action(line) for line in rank_lines]
               for rank, rank_lines in lines.items()}
    text = write_program(os.path.join(root, "text"), lines)
    gz = os.path.join(root, "gz")
    os.makedirs(gz)
    for rank, rank_lines in lines.items():
        with gzip.open(os.path.join(gz, trace_file_name(rank) + ".gz"),
                       "wt", encoding="ascii") as handle:
            handle.write("\n".join(rank_lines) + "\n")
    btrace = os.path.join(root, "btrace")
    os.makedirs(btrace)
    for rank, rank_actions in actions.items():
        write_rank_file(btrace, rank, rank_actions, binary=True)
    merged = os.path.join(root, "merged.trace")
    with open(merged, "w", encoding="ascii") as handle:
        # Ranks interleaved line by line, a comment and a blank line in.
        handle.write("# merged\n\n")
        for row in itertools.zip_longest(*lines.values()):
            handle.writelines(line + "\n" for line in row if line)
    memory = InMemoryTrace()
    memory.by_rank = {rank: list(a) for rank, a in actions.items()}
    return {"text": text, "gz": gz, "btrace": btrace, "merged": merged,
            "memory": memory}


# ---------------------------------------------------------------------------
# Generated programs
# ---------------------------------------------------------------------------
volumes = st.floats(min_value=1e3, max_value=5e7,
                    allow_nan=False, allow_infinity=False)

#: The phase kinds of :func:`programs`.
PHASES = ("compute", "ring", "bcast", "allReduce", "reduce", "barrier")

_GENERATORS = {"dp": synthetic_dp_actions, "pp": synthetic_pp_actions,
               "moe": synthetic_moe_actions}


@st.composite
def programs(draw, family="phases", phases=PHASES):
    """A random valid trace program, as ``(n_ranks, {rank: [line]})``.

    ``family="phases"``: every rank runs the same drawn sequence of
    ``phases``, so collectives line up and the ring exchanges cannot
    deadlock: imbalanced compute runs (fusion), rings at eager,
    rendezvous or drawn sizes with optional compute inside, and
    collectives.  ``"lu"``, ``"dp"``, ``"pp"`` and ``"moe"``: the
    synthetic generator at drawn sizes, seed and, for dp, algorithm (LU
    at class B, the class the sharded path accepts)."""
    if family == "lu":
        n_ranks = draw(st.sampled_from([4, 8, 16]))
        inorm = draw(st.integers(1, 2))
        iterations = draw(st.integers(inorm, 3))  # >= one allReduce
        return n_ranks, {r: list(map(format_action, synthetic_lu_actions(
            r, n_ranks, iterations, "B", inorm))) for r in range(n_ranks)}
    if family != "phases":
        n_ranks, steps = draw(st.integers(2, 5)), draw(st.integers(1, 2))
        params = dict(AI_PARAMS[family], seed=draw(st.integers(0, 3)))
        if family == "dp":
            params["algo"] = draw(st.sampled_from(["allreduce", "zero"]))
        return n_ranks, {r: list(map(format_action, _GENERATORS[family](
            r, n_ranks, steps, **params))) for r in range(n_ranks)}
    n_ranks = draw(st.integers(2, 5))
    lines = {r: [f"p{r} comm_size {n_ranks}"] for r in range(n_ranks)}
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(phases))
        if kind == "compute":
            for r in range(n_ranks):
                for _ in range(draw(st.integers(0, 3))):
                    lines[r].append(f"p{r} compute {draw(volumes)!r}")
        elif kind == "ring":
            size = draw(st.sampled_from([EAGER, RENDEZVOUS]) | volumes)
            computes = draw(st.booleans())
            for r in range(n_ranks):
                lines[r].append(f"p{r} Irecv p{(r - 1) % n_ranks} {size!r}")
                if computes:
                    lines[r].append(f"p{r} compute {draw(volumes)!r}")
                lines[r] += [f"p{r} send p{(r + 1) % n_ranks} {size!r}",
                             f"p{r} wait"]
        elif kind == "barrier":
            for r in range(n_ranks):
                lines[r].append(f"p{r} barrier")
        elif kind == "bcast":
            size = draw(volumes)
            for r in range(n_ranks):
                lines[r].append(f"p{r} bcast {size!r}")
        else:  # allReduce / reduce: <bytes> <flops>
            size, flops = draw(volumes), draw(volumes)
            for r in range(n_ranks):
                lines[r].append(f"p{r} {kind} {size!r} {flops!r}")
    return n_ranks, lines
