"""Unit tests for platform construction and routing."""

import pytest

from repro.simkernel import Platform


def flat_platform():
    platform = Platform("p")
    platform.add_cluster(
        "c", 4, speed=1e9, link_bw=1.25e8, link_lat=1e-5,
        backbone_bw=1.25e9, backbone_lat=1e-5,
    )
    return platform


def test_cluster_host_naming_and_lookup():
    platform = Platform("p")
    platform.add_cluster(
        "mycluster", 4, speed=1.17e9, link_bw=1.25e8, link_lat=16.67e-6,
        backbone_bw=1.25e9, backbone_lat=16.67e-6,
        prefix="mycluster-", suffix=".mysite.fr",
    )
    host = platform.host("mycluster-2.mysite.fr")
    assert host.speed == pytest.approx(1.17e9)
    assert len(platform.host_list()) == 4
    with pytest.raises(KeyError):
        platform.host("nope")


def test_flat_cluster_route_crosses_up_backbone_down():
    platform = flat_platform()
    hosts = platform.host_list()
    route = platform.route(hosts[0], hosts[3])
    names = [c.name for c in route.links]
    assert names == ["c-0.up", "c.bb", "c-3.down"]
    assert route.latency == pytest.approx(3e-5)


def test_same_host_route_is_loopback():
    platform = flat_platform()
    host = platform.host_list()[0]
    route = platform.route(host, host)
    assert len(route.links) == 1
    assert route.links[0].name.endswith(".lo")


def test_cabinet_cluster_routing():
    platform = Platform("p")
    platform.add_cluster(
        "gdx", 8, speed=1e9, link_bw=1.25e8, link_lat=1e-5,
        backbone_bw=1.25e9, backbone_lat=1e-5,
        cabinet_size=4, cabinet_bw=1.25e8, cabinet_lat=1e-5,
    )
    hosts = platform.host_list()
    # Same cabinet: up + down only (one shared switch).
    route = platform.route(hosts[0], hosts[1])
    assert [c.name for c in route.links] == ["gdx-0.up", "gdx-1.down"]
    # Across cabinets: through cabinet uplinks and the top-level backbone,
    # i.e. the paper's "three different switches" path.
    route = platform.route(hosts[0], hosts[7])
    assert [c.name for c in route.links] == [
        "gdx-0.up", "gdx.cab0.up", "gdx.bb", "gdx.cab1.down", "gdx-7.down",
    ]


def test_inter_cluster_route_needs_wan():
    platform = Platform("p")
    platform.add_cluster("a", 2, speed=1e9, link_bw=1e8, link_lat=1e-5,
                         backbone_bw=1e9, backbone_lat=1e-5)
    platform.add_cluster("b", 2, speed=1e9, link_bw=1e8, link_lat=1e-5,
                         backbone_bw=1e9, backbone_lat=1e-5)
    src = platform.host("a-0")
    dst = platform.host("b-1")
    with pytest.raises(ValueError):
        platform.route(src, dst)
    platform.connect("a", "b", bandwidth=1.25e9, latency=5e-3)
    route = platform.route(src, dst)
    names = [c.name for c in route.links]
    assert names == ["a-0.up", "a.bb", "wan.a-b", "b.bb", "b-1.down"]
    assert route.latency == pytest.approx(1e-5 + 1e-5 + 5e-3 + 1e-5 + 1e-5)


def test_duplicate_cluster_rejected():
    platform = flat_platform()
    with pytest.raises(ValueError):
        platform.add_cluster("c", 2, speed=1e9, link_bw=1e8, link_lat=1e-5,
                             backbone_bw=1e9, backbone_lat=1e-5)


def test_efficiency_model_bounds_rate():
    platform = Platform("p")
    platform.add_cluster(
        "c", 1, speed=1e9, link_bw=1e8, link_lat=1e-5,
        backbone_bw=1e9, backbone_lat=1e-5,
        efficiency_model=lambda kind, flops: 0.5 if kind == "slow" else 1.0,
    )
    host = platform.host_list()[0]
    assert host.effective_rate_bound("slow", 1e6) == pytest.approx(5e8)
    assert host.effective_rate_bound("fast", 1e6) == pytest.approx(1e9)


def test_efficiency_model_validation():
    platform = Platform("p")
    platform.add_cluster(
        "c", 1, speed=1e9, link_bw=1e8, link_lat=1e-5,
        backbone_bw=1e9, backbone_lat=1e-5,
        efficiency_model=lambda kind, flops: 2.0,
    )
    host = platform.host_list()[0]
    with pytest.raises(ValueError):
        host.effective_rate_bound("x", 1.0)


def test_multicore_host_capacity():
    platform = Platform("p")
    platform.add_cluster("c", 1, speed=1e9, cores=4, link_bw=1e8,
                         link_lat=1e-5, backbone_bw=1e9, backbone_lat=1e-5)
    host = platform.host_list()[0]
    assert host.cpu.capacity == pytest.approx(4e9)
    assert host.speed == pytest.approx(1e9)


def test_work_inflation_inverse_of_efficiency():
    platform = Platform("p")
    platform.add_cluster(
        "c", 1, speed=1e9, link_bw=1e8, link_lat=1e-5,
        backbone_bw=1e9, backbone_lat=1e-5,
        efficiency_model=lambda kind, flops: 0.5,
    )
    host = platform.host_list()[0]
    assert host.work_inflation("x", 1e6) == pytest.approx(2.0)
    assert host.effective_rate_bound("x", 1e6) == pytest.approx(5e8)


def test_work_inflation_includes_sharing_penalty():
    platform = Platform("p")
    platform.add_cluster(
        "c", 1, speed=1e9, link_bw=1e8, link_lat=1e-5,
        backbone_bw=1e9, backbone_lat=1e-5,
        sharing_model=lambda n: 0.8,
    )
    host = platform.host_list()[0]
    assert host.work_inflation("x", 1.0) == pytest.approx(1.0)  # alone
    assert host.work_inflation("x", 1.0, 4) == pytest.approx(1.25)


def test_named_platform_is_the_one_catalog_lookup():
    from repro.platforms import BORDEREAU_NODES, named_platform

    small = named_platform("bordereau", False, hosts=3, speed=2e9)
    assert len(small.hosts) == 3
    assert all(h.speed == 2e9 for h in small.hosts.values())
    assert len(named_platform("bordereau", True).hosts) == BORDEREAU_NODES
    # grid5000: hosts per site, and no speed override to pass down.
    assert len(named_platform("grid5000", True, hosts=2,
                              speed=1.0).hosts) == 4
    with pytest.raises(ValueError, match="choose from .*'gdx'"):
        named_platform("nonexistent", True)


def test_links_hosts_and_capacities_refuse_nan():
    from repro.simkernel import Constraint, Engine, Host, Link

    nan = float("nan")
    with pytest.raises(ValueError, match="link l: bandwidth"):
        Link("l", nan, 0.0)
    with pytest.raises(ValueError, match="link l: latency"):
        Link("l", 1e9, nan)
    with pytest.raises(ValueError, match="host h: speed"):
        Host("h", float("inf"))
    with pytest.raises(ValueError, match="capacity must be >= 0"):
        Constraint(nan)
    cons = Constraint(1e9)
    with pytest.raises(ValueError, match="capacity must be >= 0"):
        Engine().set_capacity(cons, nan)
    assert cons.capacity == 1e9
