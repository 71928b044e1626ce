"""Platform description: hosts, links, clusters, and routing.

The platform model mirrors what the paper's SimGrid XML files describe
(Fig. 5): compute clusters of homogeneous hosts, each host reaching a
shared backbone through a private full-duplex link, optionally grouped in
cabinets behind intermediate switches (the gdx cluster of §6.1), with
dedicated wide-area links between clusters (the 10 Gb Grid'5000 backbone
used by the Scattering acquisition mode).

Routing is static: a route is the ordered list of link constraints a flow
crosses plus the summed latency.  Same-host communication goes through a
per-host loopback link so that folded-rank exchanges cost a little but do
not contend with the network.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from .lmm import Constraint

__all__ = ["Link", "Host", "Route", "Cluster", "Platform"]

_INF = float("inf")


class Link:
    """A network link: a bandwidth constraint plus a latency figure."""

    __slots__ = ("name", "bandwidth", "latency", "constraint", "fatpipe")

    def __init__(self, name: str, bandwidth: float, latency: float,
                 fatpipe: bool = False) -> None:
        # Written so that NaN fails too: a NaN capacity never wins the
        # solver's comparisons, and the link would act infinitely fast.
        if not 0 < bandwidth < _INF:
            raise ValueError(
                f"link {name}: bandwidth must be finite and > 0, "
                f"got {bandwidth!r}")
        if not 0 <= latency < _INF:
            raise ValueError(
                f"link {name}: latency must be finite and >= 0, "
                f"got {latency!r}")
        self.name = name
        self.bandwidth = float(bandwidth)
        self.latency = float(latency)
        self.fatpipe = fatpipe
        self.constraint = Constraint(self.bandwidth, name=name,
                                     fatpipe=fatpipe)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Link({self.name}, bw={self.bandwidth:g}, lat={self.latency:g})"


class Host:
    """A compute node: ``cores`` cores at ``speed`` flops/s each.

    The CPU is a single max-min constraint of capacity ``speed * cores``;
    individual compute bursts are bounded at ``speed`` so one task can never
    exceed one core while several tasks folded onto one core share fairly —
    which is exactly what the Folding acquisition mode exercises.

    ``efficiency_model``, when set, makes the host's achieved flop rate
    depend on the computation: it maps ``(kind, flops)`` to a factor in
    (0, 1] applied to the nominal rate.  Ground-truth platform variants use
    it to model cache effects; calibrated variants leave it ``None``.

    ``sharing_model``, when set, is the penalty of several ranks residing
    on the host (cache and memory-bus pressure): it maps the resident-rank
    count to a factor in (0, 1].  This is what makes folded acquisitions
    slightly *more* than x times slower in Table 2.  The count belongs to
    a run's deployment, not to the host: the rate methods take it as
    ``residents`` (1 when not given).
    """

    __slots__ = ("name", "speed", "cores", "cpu", "up", "down", "loopback",
                 "efficiency_model", "sharing_model")

    def __init__(
        self,
        name: str,
        speed: float,
        cores: int = 1,
        efficiency_model: Optional[Callable[[str, float], float]] = None,
        sharing_model: Optional[Callable[[int], float]] = None,
    ) -> None:
        if not 0 < speed < _INF:   # NaN fails too
            raise ValueError(
                f"host {name}: speed must be finite and > 0, got {speed!r}")
        if cores < 1:
            raise ValueError(f"host {name}: cores must be >= 1")
        self.name = name
        self.speed = float(speed)
        self.cores = int(cores)
        self.cpu = Constraint(self.speed * self.cores, name=f"{name}.cpu")
        self.up: Optional[Link] = None
        self.down: Optional[Link] = None
        self.loopback: Optional[Link] = None
        self.efficiency_model = efficiency_model
        self.sharing_model = sharing_model

    def _efficiency_factor(self, kind: str, flops: float,
                           residents: int) -> float:
        factor = 1.0
        if self.efficiency_model is not None:
            eff = self.efficiency_model(kind, flops)
            if not 0.0 < eff <= 1.0:
                raise ValueError(
                    f"efficiency model returned {eff!r} for kind={kind!r}; "
                    "must be in (0, 1]"
                )
            factor *= eff
        if self.sharing_model is not None and residents > 1:
            shared = self.sharing_model(residents)
            if not 0.0 < shared <= 1.0:
                raise ValueError(
                    f"sharing model returned {shared!r} for "
                    f"{residents} ranks; must be in (0, 1]"
                )
            factor *= shared
        return factor

    def effective_rate_bound(self, kind: str, flops: float,
                             residents: int = 1) -> float:
        """Achieved flop rate of one burst running alone on one core,
        with ``residents`` ranks on the host, after efficiency and
        sharing models (``speed`` when neither is set — the
        calibrated-platform case)."""
        return self.speed * self._efficiency_factor(kind, flops, residents)

    def work_inflation(self, kind: str, flops: float,
                       residents: int = 1) -> float:
        """Factor by which a burst's *amount* must be inflated so that the
        efficiency/sharing losses apply at any CPU share.

        Efficiency must not be a mere rate cap: a cap stops binding as
        soon as co-scheduled tasks push the fair share below it, which
        would make folded ranks (Table 2) run at full nominal efficiency.
        Executing ``flops * inflation`` at nominal rates is exact in both
        regimes: alone, duration = flops / (speed * eff); folded n ways,
        duration = n * flops / (speed * eff).
        """
        return 1.0 / self._efficiency_factor(kind, flops, residents)

    def private_links(self) -> List["Link"]:
        """The host's own links (up/down/loopback), those that die with it."""
        return [l for l in (self.up, self.down, self.loopback)
                if l is not None]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Host({self.name}, {self.speed:g} flop/s x{self.cores})"


@dataclass
class Route:
    """An end-to-end path: crossed link constraints + total latency."""

    links: List[Constraint]
    latency: float


# Default loopback: fast enough to be negligible next to real links but
# non-zero so same-host messages still take time (SimGrid clusters do the
# same with their optional loopback link).
_LOOPBACK_BW = 6e9
_LOOPBACK_LAT = 1.5e-6


class Cluster:
    """A homogeneous cluster behind a backbone, optionally in cabinets."""

    def __init__(
        self,
        name: str,
        hosts: List[Host],
        link_bw: float,
        link_lat: float,
        backbone_bw: float,
        backbone_lat: float,
        cabinet_size: Optional[int] = None,
        cabinet_bw: Optional[float] = None,
        cabinet_lat: Optional[float] = None,
        backbone_sharing: str = "shared",
    ) -> None:
        if backbone_sharing not in ("shared", "fatpipe"):
            raise ValueError(
                f"backbone_sharing must be 'shared' or 'fatpipe', got "
                f"{backbone_sharing!r}"
            )
        self.name = name
        self.hosts = hosts
        self.backbone = Link(f"{name}.bb", backbone_bw, backbone_lat,
                             fatpipe=backbone_sharing == "fatpipe")
        self._cabinet_of: Dict[str, int] = {}
        self._cabinet_links: List[Tuple[Link, Link]] = []

        for host in hosts:
            host.up = Link(f"{host.name}.up", link_bw, link_lat)
            host.down = Link(f"{host.name}.down", link_bw, link_lat)
            host.loopback = Link(f"{host.name}.lo", _LOOPBACK_BW, _LOOPBACK_LAT)

        if cabinet_size:
            cab_bw = cabinet_bw if cabinet_bw is not None else backbone_bw
            cab_lat = cabinet_lat if cabinet_lat is not None else backbone_lat
            n_cab = (len(hosts) + cabinet_size - 1) // cabinet_size
            for cab in range(n_cab):
                self._cabinet_links.append(
                    (
                        Link(f"{name}.cab{cab}.up", cab_bw, cab_lat),
                        Link(f"{name}.cab{cab}.down", cab_bw, cab_lat),
                    )
                )
            for idx, host in enumerate(hosts):
                self._cabinet_of[host.name] = idx // cabinet_size

    @property
    def has_cabinets(self) -> bool:
        return bool(self._cabinet_links)

    def iter_links(self):
        """Every link owned by this cluster (backbone, cabinets, hosts)."""
        yield self.backbone
        for up_link, down_link in self._cabinet_links:
            yield up_link
            yield down_link
        for host in self.hosts:
            yield from host.private_links()

    def cabinet_index(self, host: Host) -> Optional[int]:
        return self._cabinet_of.get(host.name)

    def internal_route(self, src: Host, dst: Host) -> Route:
        """Route between two hosts of this cluster."""
        if src is dst:
            return Route([src.loopback.constraint], src.loopback.latency)
        links = [src.up]
        if self.has_cabinets:
            cab_src = self._cabinet_of[src.name]
            cab_dst = self._cabinet_of[dst.name]
            if cab_src == cab_dst:
                # One shared cabinet switch: up link + down link only.
                links += [dst.down]
                return Route(
                    [l.constraint for l in links],
                    sum(l.latency for l in links),
                )
            up_link = self._cabinet_links[cab_src][0]
            down_link = self._cabinet_links[cab_dst][1]
            links += [up_link, self.backbone, down_link, dst.down]
        else:
            links += [self.backbone, dst.down]
        return Route([l.constraint for l in links], sum(l.latency for l in links))

    def exit_links(self, host: Host) -> Tuple[List[Link], float]:
        """Links from ``host`` to the cluster's gateway (for WAN routes)."""
        links = [host.up]
        if self.has_cabinets:
            links.append(self._cabinet_links[self._cabinet_of[host.name]][0])
        links.append(self.backbone)
        return links, sum(l.latency for l in links)

    def entry_links(self, host: Host) -> Tuple[List[Link], float]:
        """Links from the cluster's gateway down to ``host``."""
        links = [self.backbone]
        if self.has_cabinets:
            links.append(self._cabinet_links[self._cabinet_of[host.name]][1])
        links.append(host.down)
        return links, sum(l.latency for l in links)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Cluster({self.name}, {len(self.hosts)} hosts)"


class Platform:
    """A set of clusters plus dedicated inter-cluster (WAN) links."""

    def __init__(self, name: str = "platform") -> None:
        self.name = name
        self.clusters: Dict[str, Cluster] = {}
        self.hosts: Dict[str, Host] = {}
        # Host name -> its cluster.  Kept here, not on the host: a host
        # pointing back at the cluster that lists it would make every
        # platform a reference cycle.
        self._cluster_of: Dict[str, Cluster] = {}
        self._wan: Dict[Tuple[str, str], Link] = {}

    # -- construction ---------------------------------------------------
    def add_cluster(
        self,
        name: str,
        n_hosts: int,
        speed: float,
        link_bw: float,
        link_lat: float,
        backbone_bw: float,
        backbone_lat: float,
        cores: int = 1,
        prefix: Optional[str] = None,
        suffix: str = "",
        cabinet_size: Optional[int] = None,
        cabinet_bw: Optional[float] = None,
        cabinet_lat: Optional[float] = None,
        backbone_sharing: str = "shared",
        efficiency_model: Optional[Callable[[str, float], float]] = None,
        sharing_model: Optional[Callable[[int], float]] = None,
        first_index: int = 0,
    ) -> Cluster:
        if name in self.clusters:
            raise ValueError(f"duplicate cluster name {name!r}")
        prefix = prefix if prefix is not None else f"{name}-"
        hosts = [
            Host(f"{prefix}{i}{suffix}", speed, cores=cores,
                 efficiency_model=efficiency_model,
                 sharing_model=sharing_model)
            for i in range(first_index, first_index + n_hosts)
        ]
        cluster = Cluster(
            name, hosts, link_bw, link_lat, backbone_bw, backbone_lat,
            cabinet_size=cabinet_size, cabinet_bw=cabinet_bw,
            cabinet_lat=cabinet_lat, backbone_sharing=backbone_sharing,
        )
        self.clusters[name] = cluster
        for host in hosts:
            if host.name in self.hosts:
                raise ValueError(f"duplicate host name {host.name!r}")
            self.hosts[host.name] = host
            self._cluster_of[host.name] = cluster
        return cluster

    def connect(
        self,
        cluster_a: str,
        cluster_b: str,
        bandwidth: float,
        latency: float,
    ) -> Link:
        """Add a dedicated WAN link between two clusters (both directions)."""
        for cname in (cluster_a, cluster_b):
            if cname not in self.clusters:
                raise KeyError(f"unknown cluster {cname!r}")
        key = tuple(sorted((cluster_a, cluster_b)))
        link = Link(f"wan.{key[0]}-{key[1]}", bandwidth, latency)
        self._wan[key] = link
        return link

    # -- lookup -----------------------------------------------------------
    def host(self, name: str) -> Host:
        try:
            return self.hosts[name]
        except KeyError:
            raise KeyError(
                f"unknown host {name!r} (platform has {len(self.hosts)} hosts)"
            ) from None

    def cluster_of(self, host: Host) -> Cluster:
        """The cluster ``host`` belongs to."""
        cluster = self._cluster_of.get(host.name)
        if cluster is None or self.hosts[host.name] is not host:
            raise ValueError(f"host {host.name!r} is not on this platform")
        return cluster

    def host_list(self) -> List[Host]:
        """All hosts, cluster by cluster, in index order."""
        out: List[Host] = []
        for cluster in self.clusters.values():
            out.extend(cluster.hosts)
        return out

    def iter_links(self):
        """Every link of the platform (cluster-owned plus WAN)."""
        for cluster in self.clusters.values():
            yield from cluster.iter_links()
        yield from self._wan.values()

    def link(self, name: str) -> Link:
        """Look up a link by name (fault plans address links this way)."""
        for link in self.iter_links():
            if link.name == name:
                return link
        raise KeyError(
            f"unknown link {name!r} (platform has "
            f"{sum(1 for _ in self.iter_links())} links)"
        )

    # -- routing ----------------------------------------------------------
    def route(self, src: Host, dst: Host) -> Route:
        src_cluster = self.cluster_of(src)
        dst_cluster = self.cluster_of(dst)
        if src_cluster is dst_cluster:
            return src_cluster.internal_route(src, dst)
        key = tuple(sorted((src_cluster.name, dst_cluster.name)))
        wan = self._wan.get(key)
        if wan is None:
            raise ValueError(
                f"no WAN link between clusters {key[0]!r} and {key[1]!r}"
            )
        exit_links, exit_lat = src_cluster.exit_links(src)
        entry_links, entry_lat = dst_cluster.entry_links(dst)
        links = exit_links + [wan] + entry_links
        return Route(
            [l.constraint for l in links],
            exit_lat + wan.latency + entry_lat,
        )
