"""Grid'5000-like platform catalog (§6.1's experimental setup).

Two clusters, modelled after the paper's description:

* **bordereau** — 93 nodes, dual-processor dual-core 2.6 GHz Opteron 2218,
  all on a single 10-Gb switch (GigE node links, 10 Gb backbone).
* **gdx** — 186 nodes, dual-processor 2.0 GHz Opteron 246, spread over 18
  cabinets; two cabinets share a switch, the 9 switches hang off one
  second-level switch over 1-Gb uplinks ("a communication between two
  nodes located in two distant cabinets goes through three different
  switches").

The clusters are interconnected by a dedicated 10-Gb wide-area network.

Every factory has two flavours:

* ``ground_truth=True`` (default): hosts carry an *efficiency model* —
  the achieved flop rate depends on the computation kind and burst size
  (cache/pipeline effects) — and a *sharing model* (folded ranks hurt each
  other slightly beyond fair CPU sharing).  This is the stand-in for real
  hardware: §6.4 blames exactly this non-constant flop rate for the replay
  error, so the ground truth must have it.
* ``ground_truth=False``: bare nominal-rate hosts, as a platform file
  would describe them.  The calibration procedure then sets the measured
  average flop rate on such a platform before replay
  (:func:`repro.core.calibration.calibrate_flop_rate`).
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Optional

from ..simkernel import Platform

__all__ = [
    "BORDEREAU_NODES", "GDX_NODES",
    "npb_efficiency_model", "default_sharing_model",
    "bordereau", "gdx", "grid5000", "NAMED_PLATFORMS", "named_platform",
]

BORDEREAU_NODES = 93
GDX_NODES = 186

# Nominal per-core rates for this workload family.  An Opteron 2218
# (2.6 GHz) sustains a few hundred Mflop/s on NPB LU; we give the core a
# nominal 6.5e8 peak that the efficiency model scales down to the
# 3.5-5.5e8 range the paper's timings imply.  gdx's Opteron 246 (2.0 GHz)
# is scaled by the clock ratio.
BORDEREAU_CORE_SPEED = 6.5e8
GDX_CORE_SPEED = BORDEREAU_CORE_SPEED * (2.0 / 2.6)

GIGABIT = 1.25e8          # bytes/s
TEN_GIGABIT = 1.25e9
# A single non-blocking switch: its fabric never bottlenecks concurrent
# node-to-node flows (bordereau's 93 ports on one 10-Gb switch, §6.1).
SWITCH_FABRIC = 1.25e10
LINK_LATENCY = 1.667e-5   # the paper's Fig. 5 order of magnitude
WAN_LATENCY = 4.5e-3      # Bordeaux <-> Orsay one-way
WAN_BANDWIDTH = TEN_GIGABIT

# Per-kind base efficiency: wavefront triangular solves have poor locality,
# streaming RHS sweeps are friendlier, pack/unpack is memory-bound.
_KIND_EFFICIENCY = {
    "blts": 0.64,
    "buts": 0.64,
    "rhs": 0.88,
    "add": 0.82,
    "init": 0.85,
    "l2norm": 0.80,
    "error": 0.80,
    "pintgr": 0.78,
    "pack": 0.52,
    "unpack": 0.52,
    "reduce_op": 0.70,
    "jacobi": 0.85,
    "norm": 0.80,
}
_DEFAULT_KIND_EFFICIENCY = 0.75


@lru_cache(maxsize=16384)
def npb_efficiency_model(kind: str, flops: float) -> float:
    """Achieved-rate factor for a burst of ``flops`` of computation ``kind``.

    Two effects compose: a per-kind locality factor, and a burst-size
    factor — tiny bursts pay loop startup and cold caches, large bursts
    amortise them.  The size factor ramps from ~0.62 (sub-10-kflop bursts)
    to 1.0 (100-Mflop bursts).  This is the non-constant flop rate that
    the paper's §6.4 identifies as the main accuracy limit of replay
    calibrated with a single average rate.
    """
    base = _KIND_EFFICIENCY.get(kind, _DEFAULT_KIND_EFFICIENCY)
    magnitude = math.log10(flops + 10.0)
    size_factor = 0.62 + 0.38 / (1.0 + math.exp(-(magnitude - 5.0)))
    return min(1.0, base * size_factor)


def default_sharing_model(resident_ranks: int) -> float:
    """Cache/memory-bus pressure of co-resident ranks: a flat ~12 % rate
    hit as soon as a host is shared.  This is what makes folded
    acquisitions in Table 2 slightly *more* than x times slower (the
    paper measures ratios of 2.55 at F-2 up to 33.25 at F-32 on single
    memory buses)."""
    return 1.0 if resident_ranks <= 1 else 0.88


def _models(ground_truth: bool):
    if ground_truth:
        return npb_efficiency_model, default_sharing_model
    return None, None


def bordereau(
    n_hosts: int = BORDEREAU_NODES,
    cores: int = 1,
    ground_truth: bool = True,
    speed: Optional[float] = None,
    platform: Optional[Platform] = None,
) -> Platform:
    """The bordereau cluster.  ``cores=1`` matches the paper's acquisition
    runs ("we use only one core per node"); pass ``cores=4`` for the §6.5
    folded class-D acquisition that uses all 128 cores of 32 nodes.
    ``speed`` overrides the per-core rate (used by calibration)."""
    efficiency, sharing = _models(ground_truth)
    plat = platform if platform is not None else Platform("bordereau")
    plat.add_cluster(
        "bordereau",
        n_hosts,
        speed=speed if speed is not None else BORDEREAU_CORE_SPEED,
        cores=cores,
        link_bw=GIGABIT,
        link_lat=LINK_LATENCY,
        backbone_bw=SWITCH_FABRIC,
        backbone_lat=LINK_LATENCY,
        backbone_sharing="fatpipe",
        prefix="bordereau-",
        suffix=".bordeaux.grid5000.fr",
        efficiency_model=efficiency,
        sharing_model=sharing,
    )
    return plat


def gdx(
    n_hosts: int = GDX_NODES,
    cores: int = 1,
    ground_truth: bool = True,
    speed: Optional[float] = None,
    platform: Optional[Platform] = None,
) -> Platform:
    """The gdx cluster, with its two-level switch hierarchy: 18 cabinets,
    two cabinets per switch (about 21 hosts behind each switch)."""
    efficiency, sharing = _models(ground_truth)
    plat = platform if platform is not None else Platform("gdx")
    # 186 nodes / 18 cabinets ~ 10.3 nodes per cabinet; two cabinets share
    # a switch, so each switch group holds ~21 nodes.
    switch_group = max(1, round(n_hosts / 9))
    plat.add_cluster(
        "gdx",
        n_hosts,
        speed=speed if speed is not None else GDX_CORE_SPEED,
        cores=cores,
        link_bw=GIGABIT,
        link_lat=LINK_LATENCY,
        backbone_bw=SWITCH_FABRIC,
        backbone_lat=LINK_LATENCY,
        backbone_sharing="fatpipe",
        cabinet_size=switch_group,
        cabinet_bw=GIGABIT,
        cabinet_lat=LINK_LATENCY,
        prefix="gdx-",
        suffix=".orsay.grid5000.fr",
        efficiency_model=efficiency,
        sharing_model=sharing,
    )
    return plat


def grid5000(
    n_bordereau: int = BORDEREAU_NODES,
    n_gdx: int = GDX_NODES,
    cores: int = 1,
    ground_truth: bool = True,
) -> Platform:
    """Both clusters plus the dedicated 10-Gb inter-site network — the
    platform of the Scattering acquisition modes."""
    plat = Platform("grid5000")
    bordereau(n_bordereau, cores=cores, ground_truth=ground_truth,
              platform=plat)
    gdx(n_gdx, cores=cores, ground_truth=ground_truth, platform=plat)
    plat.connect("bordereau", "gdx", bandwidth=WAN_BANDWIDTH,
                 latency=WAN_LATENCY)
    return plat


NAMED_PLATFORMS = {"bordereau": bordereau, "gdx": gdx, "grid5000": grid5000}


def named_platform(name: str, ground_truth: bool,
                   hosts: Optional[int] = None, cores: int = 1,
                   speed: Optional[float] = None) -> Platform:
    """A catalog platform by name; ``hosts=None`` is the full cluster
    (per site for ``grid5000``, which takes no ``speed`` override)."""
    try:
        factory = NAMED_PLATFORMS[name]
    except KeyError:
        raise ValueError(
            f"unknown platform {name!r}; choose from "
            f"{sorted(NAMED_PLATFORMS)}"
        ) from None
    kwargs = {"ground_truth": ground_truth, "cores": cores}
    if name == "grid5000":
        if hosts is not None:
            kwargs.update(n_bordereau=hosts, n_gdx=hosts)
    else:
        if hosts is not None:
            kwargs["n_hosts"] = hosts
        if speed is not None:
            kwargs["speed"] = speed
    return factory(**kwargs)
