"""The paper's contribution: time-independent traces, replay, acquisition.

* :mod:`repro.core.actions` / :mod:`repro.core.trace` — the trace format
  of Table 1, its containers and its one rank-file writer and reader.
* :mod:`repro.core.replay` — the trace replay tool of §5.
* :mod:`repro.core.acquisition` — the four-step pipeline and modes of §4.
* :mod:`repro.core.calibration` — flop-rate and network calibration (§5).
* :mod:`repro.core.gather` — K-nomial tree trace gathering (§4.3).
"""

from .actions import (
    ACTION_NAMES, Action, AllReduce, Barrier, Bcast, CommSize, Compute,
    Irecv, Isend, Recv, Reduce, Send, Wait, format_action, format_volume,
    parse_action,
)
from .acquisition import (
    AcquisitionMode, AcquisitionResult, acquire, build_deployment,
)
from .calibration import (
    FlopRateCalibration, NetworkCalibration, calibrate_flop_rate,
    calibrate_network,
)
from .gather import (
    GatherResult, gather_files, knomial_rounds, knomial_schedule,
    simulate_gather,
)
from .replay import ReplayResult, TraceReplayer
from .validate import Finding, ValidationReport, validate_trace
from .trace import (
    InMemoryTrace, estimate_gzip_ratio, read_merged_trace, read_trace_dir,
    read_trace_file, trace_file_name, write_merged_trace, write_rank_file,
)

__all__ = [
    "ACTION_NAMES", "Action", "AcquisitionMode", "AcquisitionResult",
    "AllReduce", "Barrier", "Bcast", "CommSize", "Compute",
    "FlopRateCalibration", "GatherResult",
    "InMemoryTrace", "Irecv", "Isend", "NetworkCalibration", "Recv",
    "Reduce", "ReplayResult", "Send", "TraceReplayer", "Wait", "acquire",
    "build_deployment", "calibrate_flop_rate", "calibrate_network",
    "estimate_gzip_ratio", "format_action", "format_volume", "gather_files",
    "knomial_rounds", "knomial_schedule", "parse_action",
    "Finding", "ValidationReport", "validate_trace",
    "read_merged_trace", "read_trace_dir", "read_trace_file",
    "simulate_gather", "trace_file_name", "write_merged_trace",
    "write_rank_file",
]
