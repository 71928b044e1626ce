"""Unit tests for SimGrid v3 platform/deployment XML I/O."""

import pytest

from repro.simkernel import (
    Platform,
    ProcessDeployment,
    dump_deployment,
    dump_platform,
    load_deployment,
    load_platform,
    parse_radical,
)

# The exact platform file of the paper's Fig. 5.
FIG5_PLATFORM = """<?xml version='1.0'?>
<!DOCTYPE platform SYSTEM "simgrid.dtd">
<platform version="3">
  <AS id="AS_mysite" routing="Full">
    <cluster id="AS_mycluster"
             prefix="mycluster-" suffix=".mysite.fr"
             radical="0-3" power="1.17E9"
             bw="1.25E8" lat="16.67E-6"
             bb_bw="1.25E9" bb_lat="16.67E-6"/>
  </AS>
</platform>
"""

# The exact deployment file of the paper's Fig. 6, plus trace arguments.
FIG6_DEPLOYMENT = """<?xml version='1.0'?>
<!DOCTYPE platform SYSTEM "simgrid.dtd">
<platform version="3">
  <process host="mycluster-0.mysite.fr" function="p0"/>
  <process host="mycluster-1.mysite.fr" function="p1">
    <argument value="SG_process1.trace"/>
  </process>
  <process host="mycluster-2.mysite.fr" function="p2"/>
  <process host="mycluster-3.mysite.fr" function="p3"/>
</platform>
"""


def test_parse_radical_forms():
    assert parse_radical("0-3") == [0, 1, 2, 3]
    assert parse_radical("5") == [5]
    assert parse_radical("0-2,4,6-7") == [0, 1, 2, 4, 6, 7]
    with pytest.raises(ValueError):
        parse_radical("3-1")
    with pytest.raises(ValueError):
        parse_radical("")
    with pytest.raises(ValueError):
        parse_radical("1,1")


def test_load_fig5_platform(tmp_path):
    path = tmp_path / "platform.xml"
    path.write_text(FIG5_PLATFORM)
    platform = load_platform(str(path))
    assert len(platform.host_list()) == 4
    host = platform.host("mycluster-0.mysite.fr")
    assert host.speed == pytest.approx(1.17e9)
    cluster = platform.clusters["AS_mycluster"]
    assert cluster.backbone.bandwidth == pytest.approx(1.25e9)
    route = platform.route(host, platform.host("mycluster-3.mysite.fr"))
    assert route.latency == pytest.approx(3 * 16.67e-6)


def test_load_fig6_deployment(tmp_path):
    path = tmp_path / "deployment.xml"
    path.write_text(FIG6_DEPLOYMENT)
    deployments = load_deployment(str(path))
    assert [d.rank for d in deployments] == [0, 1, 2, 3]
    assert deployments[1].host == "mycluster-1.mysite.fr"
    assert deployments[1].arguments == ["SG_process1.trace"]
    assert deployments[0].arguments == []


def test_platform_roundtrip(tmp_path):
    platform = Platform("site")
    platform.add_cluster(
        "bordereau", 8, speed=2.6e9, link_bw=1.25e9, link_lat=1e-5,
        backbone_bw=1.25e10, backbone_lat=1e-5, cores=4,
        prefix="bordereau-", suffix=".bordeaux.grid5000.fr",
    )
    platform.add_cluster(
        "gdx", 8, speed=2e9, link_bw=1.25e8, link_lat=1e-5,
        backbone_bw=1.25e9, backbone_lat=1e-5,
        cabinet_size=4,
    )
    platform.connect("bordereau", "gdx", bandwidth=1.25e9, latency=5e-3)
    path = tmp_path / "out.xml"
    dump_platform(platform, str(path))
    loaded = load_platform(str(path))
    assert set(loaded.clusters) == {"bordereau", "gdx"}
    assert len(loaded.host_list()) == 16
    h0 = loaded.host("bordereau-0.bordeaux.grid5000.fr")
    assert h0.speed == pytest.approx(2.6e9)
    assert h0.cores == 4
    # Cabinets survived the round trip.
    g0 = loaded.host("gdx-0")
    g7 = loaded.host("gdx-7")
    route = loaded.route(g0, g7)
    assert any("cab" in c.name for c in route.links)
    # WAN survived the round trip.
    route = loaded.route(h0, g0)
    assert any(c.name.startswith("wan.") for c in route.links)


def test_deployment_roundtrip(tmp_path):
    deployments = [
        ProcessDeployment(0, "a-0", ["SG_process0.trace"]),
        ProcessDeployment(1, "a-1", []),
    ]
    path = tmp_path / "deploy.xml"
    dump_deployment(deployments, str(path))
    loaded = load_deployment(str(path))
    assert loaded[0].arguments == ["SG_process0.trace"]
    assert loaded[1].host == "a-1"


def test_load_platform_rejects_non_platform_root(tmp_path):
    path = tmp_path / "bad.xml"
    path.write_text("<nonsense/>")
    with pytest.raises(ValueError):
        load_platform(str(path))


def test_load_platform_rejects_missing_attributes(tmp_path):
    path = tmp_path / "bad.xml"
    path.write_text(
        '<platform version="3"><cluster id="c" radical="0-1" '
        'power="1e9"/></platform>'
    )
    with pytest.raises(ValueError):
        load_platform(str(path))


def test_load_deployment_rejects_gapped_ranks(tmp_path):
    path = tmp_path / "bad.xml"
    path.write_text(
        '<platform version="3">'
        '<process host="h" function="p0"/>'
        '<process host="h" function="p2"/>'
        "</platform>"
    )
    with pytest.raises(ValueError):
        load_deployment(str(path))


def test_shipped_platform_files_load():
    """The packaged platform XMLs (incl. the paper's Fig. 5 'mycluster')
    must load and match the catalog's structure."""
    from repro.platforms import platform_xml_path
    from repro.simkernel import load_platform

    mycluster = load_platform(platform_xml_path("mycluster"))
    assert len(mycluster.host_list()) == 4
    assert mycluster.host("mycluster-0.mysite.fr").speed == pytest.approx(
        1.17e9)

    g5k = load_platform(platform_xml_path("grid5000"))
    assert set(g5k.clusters) == {"bordereau", "gdx"}
    assert len(g5k.clusters["bordereau"].hosts) == 93
    assert len(g5k.clusters["gdx"].hosts) == 186
    # WAN and gdx cabinets survive the shipped file.
    route = g5k.route(g5k.host_list()[0], g5k.clusters["gdx"].hosts[0])
    assert any(c.name.startswith("wan.") for c in route.links)
    with pytest.raises(KeyError):
        platform_xml_path("unknown-site")


def test_fatpipe_backbone_roundtrips_through_xml(tmp_path):
    platform = Platform("p")
    platform.add_cluster(
        "c", 4, speed=1e9, link_bw=1.25e8, link_lat=1e-5,
        backbone_bw=1.25e10, backbone_lat=1e-5,
        backbone_sharing="fatpipe",
    )
    path = str(tmp_path / "fat.xml")
    dump_platform(platform, path)
    assert 'bb_sharing_policy="FATPIPE"' in open(path).read()
    loaded = load_platform(path)
    assert loaded.clusters["c"].backbone.fatpipe
    # Default stays shared.
    platform2 = Platform("q")
    platform2.add_cluster("c", 2, speed=1e9, link_bw=1e8, link_lat=1e-5,
                          backbone_bw=1e9, backbone_lat=1e-5)
    path2 = str(tmp_path / "shared.xml")
    dump_platform(platform2, path2)
    assert not load_platform(path2).clusters["c"].backbone.fatpipe


def _cluster_file(tmp_path, **overrides):
    """A one-cluster platform file, with attributes replaced or added."""
    attrs = {"id": "c", "prefix": "c-", "radical": "0-1", "power": "1e9",
             "bw": "1e9", "lat": "1e-6", "bb_bw": "1e10", "bb_lat": "1e-6"}
    attrs.update(overrides)
    path = tmp_path / "platform.xml"
    path.write_text('<platform version="3"><cluster '
                    + " ".join(f'{k}="{v}"' for k, v in attrs.items())
                    + "/></platform>")
    return str(path)


@pytest.mark.parametrize("overrides, message", [
    ({"power": "nan"}, "host c-0: speed"),
    ({"bw": "nan"}, "link c-0.up: bandwidth"),
    ({"bw": "inf"}, "link c-0.up: bandwidth"),
    ({"lat": "nan"}, "link c-0.up: latency"),
    ({"bb_bw": "nan"}, "link c.bb: bandwidth"),
    ({"bb_lat": "inf"}, "link c.bb: latency"),
    ({"cabinet_size": "1", "cabinet_bw": "nan"}, "link c.cab0.up: bandwidth"),
    ({"cabinet_size": "1", "cabinet_lat": "nan"}, "link c.cab0.up: latency"),
], ids=["power", "bw", "bw-inf", "lat", "bb_bw", "bb_lat-inf", "cabinet_bw",
        "cabinet_lat"])
def test_load_platform_refuses_non_finite_numbers(tmp_path, overrides,
                                                  message):
    """A NaN capacity never wins the solver's comparisons, so it used to
    load and replay as an infinitely fast link (and a NaN latency as
    none): every number is now refused, naming its link or host."""
    with pytest.raises(ValueError, match=message):
        load_platform(_cluster_file(tmp_path, **overrides))


@pytest.mark.parametrize("attr, value, kind", [
    ("cores", "x", "an integer"),
    ("cores", "1.5", "an integer"),
    ("cabinet_size", "two", "an integer"),
    ("cabinet_bw", "fast", "a number"),
    ("cabinet_lat", "", "a number"),
])
def test_load_platform_names_unparsable_attributes(tmp_path, attr, value,
                                                   kind):
    with pytest.raises(ValueError) as err:
        load_platform(_cluster_file(tmp_path, **{attr: value}))
    assert str(err.value) == \
        f"<cluster> attribute {attr}={value!r} is not {kind}"
