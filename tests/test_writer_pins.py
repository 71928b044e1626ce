"""Byte-identity pins for every path that writes a rank-file trace set.

Each digest is the SHA-256 over a directory's rank files (name, NUL,
bytes, in sorted order) as the writers produced them before they were
folded into :func:`repro.core.trace.write_rank_file`: the synthetic
generators, the param comms importer, ``tau2simgrid`` and
``repro-convert``, in text and binary.  A writer may move no byte.
"""

import hashlib
import os

import pytest

from repro.apps import LuWorkload
from repro.cli import main_convert
from repro.core.acquisition import acquire
from repro.core.synth import write_synthetic_lu_trace
from repro.core.synth_ai import write_synthetic_ai_trace
from repro.extract import tau2simgrid
from repro.importers import import_param_comms
from repro.platforms import bordereau

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "param_comms")

FAMILY_PARAMS = {
    "dp": dict(n_buckets=2, bucket_bytes=1 << 16, step_flops=1e7,
               jitter=0.05),
    "pp": dict(microbatches=2, activation_bytes=1 << 14, stage_flops=1e6,
               grad_bytes=1 << 12, jitter=0.05),
    "moe": dict(layers=1, tokens_bytes=1 << 14, gate_flops=1e5,
                expert_flops=1e6, dense_bytes=1 << 12, jitter=0.05),
}

PINS = {
    "lu-text":
        "8ba7c935f656e5b721fd0975e98a0663723508da85075c934a226e2a4f66a8b7",
    "lu-binary":
        "5684e5313514c969190b865139fe600f7abcbd0d40cd0845617a70097d4e6660",
    "dp-text":
        "9b0c0aaab200cecf68551c0883b2e3b15666ebd0dfd8f2b1ab8ac0c976cff7b4",
    "dp-binary":
        "609106c13f38141dd30c9e5c45271fceeeb4150d991b5d83c7a8dcb05d3c29b7",
    "pp-text":
        "1bc0211480c7d86be151be4d3d25520ced5c2e19c3fc28c895a2567d69b3554e",
    "pp-binary":
        "2b49e4ae14e6c1c200f1569c767109c03615b9efd016943968ad81c7d9e03eb4",
    "moe-text":
        "f4b335a1207eab797390622f60316e0a5ffb993fdf781c7c7e6141d20083f189",
    "moe-binary":
        "8b7a25493e81e9c732e72c9881e0c680b4abe46b57a3b5f36ee3d9c038601723",
    "param-comms-text":
        "9a5e4d55887311e267f2cf0eff5d1770bcd09a1e854c4e27e6d268beea715aa6",
    "param-comms-binary":
        "5fa2f93701e0747fcc98332c8aa431ab2cca19c7a44f8ec993b646e91711b89f",
    "tau2simgrid-lu-S4":
        "6b0d757f21fc202f3b6797a9280ff17e226ee1db277a49735ca44134703a0d12",
    "convert-to-binary":
        "2a934159886f318d249b0faf2797f75ac527dd25967ffefeb78e1ebe1829bb40",
    "convert-to-text":
        "6b0d757f21fc202f3b6797a9280ff17e226ee1db277a49735ca44134703a0d12",
}


def rank_files_sha256(directory):
    digest = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        if name.startswith("SG_process") and not name.endswith(".tic"):
            digest.update(name.encode() + b"\0")
            with open(os.path.join(directory, name), "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


@pytest.mark.parametrize("binary", [False, True], ids=["text", "binary"])
def test_synthetic_lu_writer_is_pinned(tmp_path, binary):
    out = str(tmp_path / "lu")
    write_synthetic_lu_trace(out, 4, 3, cls="S", seed=3, jitter=0.05,
                             compute_split=2, binary=binary)
    key = "lu-binary" if binary else "lu-text"
    assert rank_files_sha256(out) == PINS[key]


@pytest.mark.parametrize("binary", [False, True], ids=["text", "binary"])
@pytest.mark.parametrize("family", sorted(FAMILY_PARAMS))
def test_synthetic_ai_writers_are_pinned(tmp_path, family, binary):
    out = str(tmp_path / family)
    write_synthetic_ai_trace(family, out, 4, 2, binary=binary, seed=11,
                             **FAMILY_PARAMS[family])
    key = f"{family}-{'binary' if binary else 'text'}"
    assert rank_files_sha256(out) == PINS[key]


@pytest.mark.parametrize("binary", [False, True], ids=["text", "binary"])
def test_param_comms_import_is_pinned(tmp_path, binary):
    out = str(tmp_path / "ti")
    report = import_param_comms(GOLDEN, out, binary=binary)
    assert report.n_bytes == sum(
        os.path.getsize(os.path.join(out, name)) for name in os.listdir(out))
    key = "param-comms-binary" if binary else "param-comms-text"
    assert rank_files_sha256(out) == PINS[key]


@pytest.fixture(scope="module")
def lu_s4(tmp_path_factory):
    """An acquired LU class S trace on 4 ranks, and its TAU archive."""
    workdir = tmp_path_factory.mktemp("lu-s4")
    acquire(LuWorkload("S", 4).program, bordereau(), 4,
            workdir=str(workdir), measure_application=False,
            papi_jitter=0.01, papi_seed=1)
    return workdir


def test_tau2simgrid_is_pinned(lu_s4, tmp_path):
    out = str(tmp_path / "ti")
    report = tau2simgrid(str(lu_s4 / "tau"), 4, out)
    assert report.n_bytes == sum(
        os.path.getsize(os.path.join(out, name)) for name in os.listdir(out))
    assert rank_files_sha256(out) == PINS["tau2simgrid-lu-S4"]


def test_convert_is_pinned_both_ways(lu_s4, tmp_path, capsys):
    binary, text = str(tmp_path / "bin"), str(tmp_path / "text")
    assert main_convert([str(lu_s4 / "ti"), binary, "--to", "binary"]) == 0
    assert rank_files_sha256(binary) == PINS["convert-to-binary"]
    assert main_convert([binary, text, "--to", "text"]) == 0
    assert rank_files_sha256(text) == PINS["convert-to-text"]
    assert rank_files_sha256(text) == rank_files_sha256(str(lu_s4 / "ti"))
