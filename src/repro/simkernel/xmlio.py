"""SimGrid v3 platform / deployment XML input and output.

The paper drives its replay tool with two XML files (Figs. 5 and 6): a
*platform* file describing clusters and an optional *deployment* file
mapping each replayed process (``function="p3"`` = rank 3) to a host, with
per-process trace files passed as ``<argument>`` elements.  This module
reads and writes both, so traces captured by this package can be replayed
from the exact file formats the paper shows.

Supported platform elements:

* ``<cluster id prefix suffix radical power bw lat bb_bw bb_lat [cores]
  [cabinet_size] [cabinet_bw] [cabinet_lat]/>`` — the cabinet attributes
  are an extension used to describe gdx-style two-level clusters.
* ``<interconnect src dst bw lat/>`` — extension: a dedicated WAN link
  between two clusters (the Grid'5000 10 Gb inter-site network).
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from .platform import Platform

__all__ = [
    "parse_radical",
    "load_platform",
    "dump_platform",
    "ProcessDeployment",
    "load_deployment",
    "dump_deployment",
]


def parse_radical(radical: str) -> List[int]:
    """Expand a SimGrid radical (``"0-3,5,8-9"``) into host indices."""
    indices: List[int] = []
    for part in radical.split(","):
        part = part.strip()
        if not part:
            continue
        if "-" in part:
            lo_s, hi_s = part.split("-", 1)
            lo, hi = int(lo_s), int(hi_s)
            if hi < lo:
                raise ValueError(f"bad radical range {part!r}")
            indices.extend(range(lo, hi + 1))
        else:
            indices.append(int(part))
    if not indices:
        raise ValueError(f"empty radical {radical!r}")
    if len(set(indices)) != len(indices):
        raise ValueError(f"duplicate indices in radical {radical!r}")
    return indices


_REQUIRED = object()


def _number(attrs: Dict[str, str], key: str, element: str,
            parse=float, default=_REQUIRED):
    """``parse(attrs[key])``, or ``default`` when the attribute is absent
    and optional; errors name the element and the attribute."""
    if key not in attrs:
        if default is _REQUIRED:
            raise ValueError(f"<{element}> is missing attribute {key!r}")
        return default
    try:
        return parse(attrs[key])
    except ValueError:
        kind = "an integer" if parse is int else "a number"
        raise ValueError(
            f"<{element}> attribute {key}={attrs[key]!r} is not {kind}"
        ) from None


def load_platform(path: str) -> Platform:
    """Build a :class:`Platform` from a SimGrid v3 platform file."""
    tree = ET.parse(path)
    root = tree.getroot()
    if root.tag != "platform":
        raise ValueError(f"{path}: root element is <{root.tag}>, "
                         "expected <platform>")
    platform = Platform(name=path)
    for elem in root.iter("cluster"):
        attrs = dict(elem.attrib)
        radical = parse_radical(attrs.get("radical", "0-0"))
        if radical != list(range(radical[0], radical[0] + len(radical))):
            raise ValueError(
                f"cluster {attrs.get('id')!r}: non-contiguous radicals are "
                "not supported"
            )
        platform.add_cluster(
            name=attrs.get("id", f"cluster{len(platform.clusters)}"),
            n_hosts=len(radical),
            first_index=radical[0],
            speed=_number(attrs, "power", "cluster"),
            link_bw=_number(attrs, "bw", "cluster"),
            link_lat=_number(attrs, "lat", "cluster"),
            backbone_bw=_number(attrs, "bb_bw", "cluster"),
            backbone_lat=_number(attrs, "bb_lat", "cluster"),
            cores=_number(attrs, "cores", "cluster", int, 1),
            prefix=attrs.get("prefix"),
            suffix=attrs.get("suffix", ""),
            cabinet_size=_number(attrs, "cabinet_size", "cluster", int, None),
            cabinet_bw=_number(attrs, "cabinet_bw", "cluster", default=None),
            cabinet_lat=_number(attrs, "cabinet_lat", "cluster", default=None),
            backbone_sharing=("fatpipe"
                              if attrs.get("bb_sharing_policy", "").upper()
                              == "FATPIPE" else "shared"),
        )
    for elem in root.iter("interconnect"):
        attrs = dict(elem.attrib)
        platform.connect(
            attrs["src"], attrs["dst"],
            bandwidth=_number(attrs, "bw", "interconnect"),
            latency=_number(attrs, "lat", "interconnect"),
        )
    if not platform.clusters:
        raise ValueError(f"{path}: no <cluster> element found")
    return platform


def dump_platform(platform: Platform, path: str) -> None:
    """Write a platform back out as SimGrid v3 XML (Fig. 5 style)."""
    lines = [
        "<?xml version='1.0'?>",
        '<!DOCTYPE platform SYSTEM "simgrid.dtd">',
        '<platform version="3">',
        '  <AS id="AS_%s" routing="Full">' % platform.name.replace("/", "_"),
    ]
    for cluster in platform.clusters.values():
        first = cluster.hosts[0]
        n = len(cluster.hosts)
        up = first.up
        extra = ""
        if cluster.has_cabinets:
            cab0_up = cluster._cabinet_links[0][0]
            size = 0
            for host in cluster.hosts:
                if cluster.cabinet_index(host) == 0:
                    size += 1
            extra = (f' cabinet_size="{size}" cabinet_bw="{cab0_up.bandwidth:g}"'
                     f' cabinet_lat="{cab0_up.latency:g}"')
        prefix, index0, suffix = _split_host_name(first.name)
        if cluster.backbone.fatpipe:
            extra += ' bb_sharing_policy="FATPIPE"'
        lines.append(
            f'    <cluster id="{cluster.name}" prefix="{prefix}" '
            f'suffix="{suffix}" radical="{index0}-{index0 + n - 1}" '
            f'power="{first.speed:g}" cores="{first.cores}" '
            f'bw="{up.bandwidth:g}" lat="{up.latency:g}" '
            f'bb_bw="{cluster.backbone.bandwidth:g}" '
            f'bb_lat="{cluster.backbone.latency:g}"{extra}/>'
        )
    for (a, b), link in platform._wan.items():
        lines.append(
            f'    <interconnect src="{a}" dst="{b}" '
            f'bw="{link.bandwidth:g}" lat="{link.latency:g}"/>'
        )
    lines += ["  </AS>", "</platform>", ""]
    with open(path, "w") as handle:
        handle.write("\n".join(lines))


def _split_host_name(name: str) -> Tuple[str, int, str]:
    """Split ``"mycluster-7.mysite.fr"`` into ("mycluster-", 7, ".mysite.fr")."""
    start = None
    end = None
    for i, char in enumerate(name):
        if char.isdigit():
            if start is None:
                start = i
            end = i
        elif start is not None:
            break
    if start is None:
        raise ValueError(f"host name {name!r} contains no index digits")
    return name[:start], int(name[start:end + 1]), name[end + 1:]


@dataclass
class ProcessDeployment:
    """One ``<process>`` element: rank, host name, trace-file arguments."""

    rank: int
    host: str
    arguments: List[str]


def load_deployment(path: str) -> List[ProcessDeployment]:
    """Read a deployment file (Fig. 6): host per rank, plus arguments."""
    tree = ET.parse(path)
    root = tree.getroot()
    deployments: List[ProcessDeployment] = []
    for elem in root.iter("process"):
        function = elem.attrib.get("function", "")
        if not function.startswith("p") or not function[1:].isdigit():
            raise ValueError(
                f"{path}: process function {function!r} is not of the form "
                "'p<rank>'"
            )
        args = [child.attrib["value"] for child in elem if child.tag == "argument"]
        deployments.append(
            ProcessDeployment(int(function[1:]), elem.attrib["host"], args)
        )
    deployments.sort(key=lambda d: d.rank)
    ranks = [d.rank for d in deployments]
    if ranks != list(range(len(ranks))):
        raise ValueError(f"{path}: ranks are not contiguous from 0: {ranks[:10]}")
    return deployments


def dump_deployment(
    deployments: Sequence[ProcessDeployment], path: str
) -> None:
    """Write a deployment file in the paper's Fig. 6 format."""
    lines = [
        "<?xml version='1.0'?>",
        '<!DOCTYPE platform SYSTEM "simgrid.dtd">',
        '<platform version="3">',
    ]
    for dep in sorted(deployments, key=lambda d: d.rank):
        if dep.arguments:
            lines.append(
                f'  <process host="{dep.host}" function="p{dep.rank}">'
            )
            for arg in dep.arguments:
                lines.append(f'    <argument value="{arg}"/>')
            lines.append("  </process>")
        else:
            lines.append(
                f'  <process host="{dep.host}" function="p{dep.rank}"/>'
            )
    lines += ["</platform>", ""]
    with open(path, "w") as handle:
        handle.write("\n".join(lines))
