"""Table 3 (extension) — trace sizes and replay fidelity for the
AI-workload families.

The paper's Table 3 compares timed (TAU) against time-independent trace
sizes for LU.  The AI families have no timed counterpart to diff
against, so the size half of the row compares the text format with the
binary extension (`.btrace`), and the accuracy half replays each trace
under the token and compiled drivers and reports the relative makespan
difference — the drivers are exact, so the column pins the 1e-9
contract the test suite enforces.

  family    ranks   actions   text KiB   bin KiB   ratio   |rel.err|
"""

import os
import tempfile

import pytest

from _harness import emit_table
from repro.core.replay import TraceReplayer
from repro.core.synth_ai import write_synthetic_ai_trace
from repro.simkernel import Platform
from repro.simkernel.pwl import IDENTITY_MODEL
from repro.smpi import round_robin_deployment

RANKS = 16
STEPS = 4

#: (row label, family, generator params)
FAMILIES = [
    ("dp", "dp", {}),
    ("dp-zero", "dp", {"algo": "zero"}),
    ("pp", "pp", {}),
    ("moe", "moe", {"seed": 7}),
]


def _platform(n_ranks):
    platform = Platform("bench")
    platform.add_cluster("c", n_ranks, speed=1e9, link_bw=1.25e8,
                         link_lat=1e-5, backbone_bw=1.25e9,
                         backbone_lat=1e-5)
    return platform


def _dir_bytes(directory, suffix):
    return sum(os.path.getsize(os.path.join(directory, name))
               for name in os.listdir(directory) if name.endswith(suffix))


def _replay(directory, n_ranks, compiled):
    platform = _platform(n_ranks)
    replayer = TraceReplayer(platform,
                             round_robin_deployment(platform, n_ranks),
                             comm_model=IDENTITY_MODEL, compiled=compiled)
    return replayer.replay(directory)


def run_table3_ai():
    lines = [
        "Table 3 (ext) - AI-workload trace sizes and driver fidelity "
        f"({RANKS} ranks, {STEPS} steps)",
        "",
        f"{'family':>8} {'actions':>9} {'text KiB':>10} {'bin KiB':>9} "
        f"{'ratio':>7} {'token makespan s':>18} {'|rel err| vs compiled':>22}",
    ]
    rows = {}
    for label, family, params in FAMILIES:
        with tempfile.TemporaryDirectory(prefix="repro-bench-") as base:
            text_dir = os.path.join(base, "text")
            bin_dir = os.path.join(base, "bin")
            n_actions = write_synthetic_ai_trace(
                family, text_dir, RANKS, STEPS, **params)
            write_synthetic_ai_trace(
                family, bin_dir, RANKS, STEPS, binary=True, **params)
            text_kib = _dir_bytes(text_dir, ".trace") / 1024
            bin_kib = _dir_bytes(bin_dir, ".btrace") / 1024
            token = _replay(text_dir, RANKS, compiled="never")
            compiled = _replay(text_dir, RANKS, compiled="auto")
            rel = abs(compiled.simulated_time - token.simulated_time) \
                / token.simulated_time
            rows[label] = (n_actions, text_kib, bin_kib, token, rel)
            lines.append(
                f"{label:>8} {n_actions:>9,} {text_kib:>10.1f} "
                f"{bin_kib:>9.1f} {text_kib / bin_kib:>7.2f} "
                f"{token.simulated_time:>18.6f} {rel:>22.2e}")
    emit_table("table3_ai_workloads.txt", lines)
    return rows


@pytest.mark.benchmark(group="table3")
def test_table3_ai_workloads(benchmark):
    rows = benchmark.pedantic(run_table3_ai, rounds=1, iterations=1)
    for label, (n_actions, text_kib, bin_kib, token, rel) in rows.items():
        assert n_actions > 0 and token.simulated_time > 0, label
        # The binary format stays meaningfully smaller even with the
        # allToAllv split tables inlined per record.
        assert bin_kib < text_kib, label
        # Token and compiled drivers are exact, not approximations.
        assert rel <= 1e-9, (label, rel)
    # MoE's all-to-all rows make it the densest trace per step.
    assert rows["moe"][0] > 0
