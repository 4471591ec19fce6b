"""Tests for topology construction, policy routing, and path profiles."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices.firewall import Firewall
from repro.errors import RoutingError, TopologyError
from repro.netsim import Link, Topology
from repro.netsim.node import Host, Node, Router, Switch
from repro.netsim.routing import ANY_PATH, ENTERPRISE_POLICY, SCIENCE_POLICY
from repro.units import Gbps, KB, bytes_, ms, us


def dual_path_topology():
    """WAN <- border <- {firewalled campus path, tagged science path} <- hosts."""
    topo = Topology("dual")
    topo.add_node(Router(name="wan"))
    topo.add_node(Router(name="border"))
    topo.connect("border", "wan", Link(rate=Gbps(10), delay=ms(20),
                                       mtu=bytes_(9000)))
    fw = topo.add_node(Firewall(name="fw"))
    fw.policy.allow()
    topo.add_node(Switch(name="campus"))
    topo.connect("border", "fw", Link(rate=Gbps(10), delay=us(10)))
    topo.connect("fw", "campus", Link(rate=Gbps(10), delay=us(10)))
    topo.add_host("lab", nic_rate=Gbps(1))
    topo.connect("campus", "lab", Link(rate=Gbps(1), delay=us(10)))

    topo.add_node(Switch(name="dmz", tags={"science-dmz"}))
    topo.connect("border", "dmz", Link(rate=Gbps(10), delay=us(10),
                                       mtu=bytes_(9000), tags={"science"}))
    topo.add_host("dtn", nic_rate=Gbps(10))
    topo.connect("dmz", "dtn", Link(rate=Gbps(10), delay=us(10),
                                    mtu=bytes_(9000), tags={"science"}))
    # Cross-connect so the lab *could* reach the DMZ fabric.
    topo.connect("campus", "dmz", Link(rate=Gbps(1), delay=us(10)))
    return topo


class TestConstruction:
    def test_duplicate_node_rejected(self):
        topo = Topology("t")
        topo.add_host("a")
        with pytest.raises(TopologyError):
            topo.add_host("a")

    def test_self_link_rejected(self):
        topo = Topology("t")
        topo.add_host("a")
        with pytest.raises(TopologyError):
            topo.connect("a", "a", Link(rate=Gbps(1), delay=ms(1)))

    def test_parallel_links_rejected(self):
        topo = Topology("t")
        topo.add_host("a")
        topo.add_host("b")
        topo.connect("a", "b", Link(rate=Gbps(1), delay=ms(1)))
        with pytest.raises(TopologyError):
            topo.connect("a", "b", Link(rate=Gbps(1), delay=ms(1)))

    def test_unknown_node_lookup(self):
        topo = Topology("t")
        with pytest.raises(TopologyError):
            topo.node("ghost")

    def test_remove_link(self):
        topo = Topology("t")
        topo.add_host("a")
        topo.add_host("b")
        topo.connect("a", "b", Link(rate=Gbps(1), delay=ms(1)))
        topo.remove_link("a", "b")
        with pytest.raises(RoutingError):
            topo.path("a", "b")

    def test_nodes_filtered_by_kind_and_tag(self):
        topo = dual_path_topology()
        assert {n.name for n in topo.nodes(kind="firewall")} == {"fw"}
        assert {n.name for n in topo.nodes(tag="science-dmz")} == {"dmz"}

    def test_counts(self):
        topo = dual_path_topology()
        assert topo.node_count == 7
        assert topo.link_count == 7


class TestRouting:
    def test_shortest_path_by_latency(self, star_topology):
        path = star_topology.path("h1", "h2")
        assert path.node_names() == ["h1", "core", "h2"]
        assert path.hop_count == 2

    def test_default_path_prefers_low_latency(self):
        topo = dual_path_topology()
        # lab -> dtn: direct campus->dmz cross-connect is fewer ms than
        # going around; just assert a path exists and is loop-free.
        path = topo.path("lab", "dtn")
        names = path.node_names()
        assert len(names) == len(set(names))

    def test_forbid_node_kinds_routes_around_firewall(self):
        topo = dual_path_topology()
        via_fw = topo.path("lab", "wan")
        assert via_fw.traverses_kind("firewall")
        science = topo.path("dtn", "wan", forbid_node_kinds=("firewall",))
        assert not science.traverses_kind("firewall")

    def test_require_link_tags(self):
        topo = dual_path_topology()
        path = topo.path("dtn", "border", require_link_tags=("science",))
        assert path.node_names() == ["dtn", "dmz", "border"]

    def test_require_unsatisfiable_tag_raises(self):
        topo = dual_path_topology()
        with pytest.raises(RoutingError):
            topo.path("lab", "wan", require_link_tags=("science",))

    def test_forbid_link_tags(self):
        topo = dual_path_topology()
        path = topo.path("lab", "wan", forbid_link_tags=("science",))
        assert "dmz" not in path.node_names()

    def test_forbid_node_tags(self):
        topo = dual_path_topology()
        path = topo.path("lab", "wan", forbid_node_tags=("science-dmz",))
        assert "dmz" not in path.node_names()

    def test_via_waypoints(self):
        topo = dual_path_topology()
        path = topo.path("lab", "wan", via=["dmz"])
        assert "dmz" in path.node_names()

    def test_endpoints_exempt_from_node_filters(self):
        topo = dual_path_topology()
        # dtn is reachable even if we forbid its own tags elsewhere.
        path = topo.path("dtn", "wan", forbid_node_tags=("dtn",))
        assert path.src.name == "dtn"

    def test_routing_policies_objects(self):
        topo = dual_path_topology()
        sci = topo.path("dtn", "wan", **SCIENCE_POLICY.kwargs())
        assert not sci.traverses_kind("firewall")
        ent = topo.path("lab", "wan", **ENTERPRISE_POLICY.kwargs())
        assert ent.traverses_kind("firewall")
        assert ANY_PATH.kwargs()["require_link_tags"] == ()

    def test_policy_merge(self):
        merged = SCIENCE_POLICY.merged(ENTERPRISE_POLICY)
        assert "firewall" in merged.forbid_node_kinds
        assert "science" in merged.forbid_link_tags


class TestPathProfile:
    def test_capacity_is_bottleneck(self, clean_path_topology):
        profile = clean_path_topology.profile_between("a", "b")
        assert profile.capacity.gbps == pytest.approx(10)

    def test_rtt_is_twice_one_way(self, clean_path_topology):
        profile = clean_path_topology.profile_between("a", "b")
        assert profile.base_rtt.ms == pytest.approx(50, rel=0.01)

    def test_loss_combines_across_segments(self):
        topo = Topology("lossy")
        topo.add_host("a", nic_rate=Gbps(1))
        topo.add_host("b", nic_rate=Gbps(1))
        topo.add_node(Router(name="r"))
        topo.connect("a", "r", Link(rate=Gbps(1), delay=ms(1),
                                    loss_probability=0.01))
        topo.connect("r", "b", Link(rate=Gbps(1), delay=ms(1),
                                    loss_probability=0.02))
        profile = topo.profile_between("a", "b")
        expected = 1 - (1 - 0.01) * (1 - 0.02)
        assert profile.random_loss == pytest.approx(expected)

    def test_mss_clamped_to_path_mtu(self):
        topo = Topology("mixed-mtu")
        topo.add_host("a", nic_rate=Gbps(10))
        topo.add_host("b", nic_rate=Gbps(10))
        topo.add_node(Router(name="r"))
        topo.connect("a", "r", Link(rate=Gbps(10), delay=ms(1),
                                    mtu=bytes_(9000)))
        topo.connect("r", "b", Link(rate=Gbps(10), delay=ms(1),
                                    mtu=bytes_(1500)))
        profile = topo.profile_between("a", "b")
        assert profile.mtu.bytes == 1500
        assert profile.flow.mss.bytes == 1500 - 40

    def test_firewall_transforms_flow(self):
        topo = dual_path_topology()
        profile = topo.profile_between("lab", "wan")
        assert profile.flow.window_scaling is False or \
            not topo.node("fw").sequence_checking
        # Enable sequence checking explicitly and re-profile.
        topo.node("fw").sequence_checking = True
        profile = topo.profile_between("lab", "wan")
        assert profile.flow.window_scaling is False
        assert profile.flow.effective_receive_window().bits == KB(64).bits

    def test_bottleneck_identified(self):
        topo = dual_path_topology()
        profile = topo.profile_between("lab", "wan")
        # The firewall's per-flow processor rate is the bottleneck.
        assert "fw" in profile.bottleneck_name

    def test_bottleneck_buffer_propagates(self):
        topo = dual_path_topology()
        profile = topo.profile_between("lab", "wan")
        assert profile.bottleneck_buffer is not None
        assert profile.bottleneck_buffer.bits == KB(512).bits

    def test_segment_loss_parallel_to_names(self, clean_path_topology):
        profile = clean_path_topology.profile_between("a", "b")
        assert len(profile.segment_loss) == len(profile.element_names)

    def test_bdp(self, clean_path_topology):
        profile = clean_path_topology.profile_between("a", "b")
        assert profile.bdp().megabytes == pytest.approx(62.5, rel=0.01)

    def test_path_validation(self):
        from repro.netsim.topology import Path
        with pytest.raises(TopologyError):
            Path(nodes=(Host(name="a"), Host(name="b")), links=())


def chain_topology():
    """a - r - b over two 1 ms links; no direct a-b link yet."""
    topo = Topology("chain")
    topo.add_host("a", nic_rate=Gbps(10))
    topo.add_host("b", nic_rate=Gbps(10))
    topo.add_node(Router(name="r"))
    topo.connect("a", "r", Link(rate=Gbps(10), delay=ms(1)))
    topo.connect("r", "b", Link(rate=Gbps(10), delay=ms(1)))
    return topo


class TestRouteMemo:
    def test_repeated_queries_return_equal_paths(self):
        topo = dual_path_topology()
        first = topo.path("dtn", "wan", forbid_node_kinds=("firewall",))
        again = topo.path("dtn", "wan", forbid_node_kinds=["firewall"])
        assert again == first
        assert again.node_names() == first.node_names()

    def test_node_objects_and_names_share_a_route(self):
        topo = dual_path_topology()
        by_name = topo.path("lab", "wan", via=["dmz"])
        by_node = topo.path(topo.node("lab"), topo.node("wan"),
                            via=[topo.node("dmz")])
        assert by_node == by_name
        assert len(topo._routes) == 1

    def test_connect_invalidates(self):
        topo = chain_topology()
        assert topo.path("a", "b").node_names() == ["a", "r", "b"]
        topo.connect("a", "b", Link(rate=Gbps(10), delay=us(100)))
        assert topo.path("a", "b").node_names() == ["a", "b"]

    def test_remove_link_invalidates(self):
        topo = chain_topology()
        topo.connect("a", "b", Link(rate=Gbps(10), delay=us(100)))
        assert topo.path("a", "b").node_names() == ["a", "b"]
        topo.remove_link("a", "b")
        assert topo.path("a", "b").node_names() == ["a", "r", "b"]

    def test_add_node_invalidates(self):
        topo = chain_topology()
        topo.path("a", "b")
        assert topo._routes
        topo.add_node(Router(name="r2"))
        assert not topo._routes
        topo.connect("a", "r2", Link(rate=Gbps(10), delay=us(10)))
        topo.connect("r2", "b", Link(rate=Gbps(10), delay=us(10)))
        assert topo.path("a", "b").node_names() == ["a", "r2", "b"]

    def test_memoized_routing_error_clears_on_reconnect(self):
        topo = chain_topology()
        topo.remove_link("r", "b")
        with pytest.raises(RoutingError) as first:
            topo.path("a", "b")
        with pytest.raises(RoutingError) as again:
            topo.path("a", "b")
        # A hit raises a fresh error carrying the same message.
        assert again.value is not first.value
        assert str(again.value) == str(first.value)
        topo.connect("r", "b", Link(rate=Gbps(10), delay=ms(1)))
        assert topo.path("a", "b").node_names() == ["a", "r", "b"]

    def test_profile_sees_fault_attached_after_memo(self):
        from repro.devices.faults import FailingLineCard
        topo = chain_topology()
        clean = topo.profile_between("a", "b")
        card = FailingLineCard(loss_rate=0.01)
        topo.node("r").attach(card)
        faulty = topo.profile_between("a", "b")
        assert clean.random_loss == 0.0
        assert faulty.random_loss == pytest.approx(0.01)
        topo.node("r").detach(card)
        assert topo.profile_between("a", "b").random_loss == 0.0

    def test_profile_sees_link_degraded_after_memo(self):
        topo = chain_topology()
        assert topo.profile_between("a", "b").random_loss == 0.0
        topo.link_between("r", "b").degrade(loss_probability=0.02)
        assert topo.profile_between("a", "b").random_loss == \
            pytest.approx(0.02)
        topo.link_between("r", "b").repair()
        assert topo.profile_between("a", "b").random_loss == 0.0


# -- differential: memoized routing vs a freshly built topology ---------------

_N_NODES = 5
_KINDS = ("router", "firewall", "switch")
# At most one tag per constraint, with "none" the likeliest draw, so most
# queries have a route and memo hits are common.
_tag = st.sampled_from([frozenset(), frozenset(), frozenset({"science"}),
                        frozenset({"enterprise"})])
_index = st.integers(0, _N_NODES - 1)
_link = st.tuples(_tag, st.integers(1, 4))
_node_specs = st.lists(
    st.tuples(st.sampled_from(_KINDS),
              st.sampled_from([frozenset(), frozenset({"dmz"})])),
    min_size=_N_NODES, max_size=_N_NODES)
# A small pool of queries, all replayed after every structural change, so
# each change meets memo entries it must invalidate.
_queries = st.lists(st.tuples(
    _index, _index,
    st.fixed_dictionaries({
        "require_link_tags": _tag,
        "forbid_link_tags": _tag,
        "forbid_node_tags": st.sampled_from([frozenset(), frozenset({"dmz"})]),
        "forbid_node_kinds": st.sampled_from(
            [frozenset(), frozenset({"firewall"})]),
        "via": st.lists(_index, max_size=1),
    })), min_size=1, max_size=4)
_ops = st.lists(st.one_of(
    st.tuples(st.just("connect"), _index, _index, _link),
    st.tuples(st.just("cut"), st.integers(0, 9)),
), min_size=1, max_size=12)


def _build(node_specs, edges):
    """A topology with ``edges`` (``{(a, b): (tags, delay_ms)}``) added in
    dict order, which fixes the adjacency order networkx breaks ties on."""
    topo = Topology("diff")
    for i, (kind, tags) in enumerate(node_specs):
        topo.add_node(Node(name=f"n{i}", kind=kind, tags=tags))
    for (a, b), link in edges.items():
        _connect(topo, a, b, link)
    return topo


def _connect(topo, a, b, link):
    tags, delay = link
    topo.connect(a, b, Link(rate=Gbps(1), delay=ms(delay), tags=tags,
                            name=f"{a}-{b}"))


def _route(topo, src, dst, kwargs):
    try:
        path = topo.path(src, dst, **kwargs)
    except RoutingError as exc:
        return ("error", str(exc))
    return ("path", path.node_names(), [l.name for l in path.links])


@settings(max_examples=60, deadline=None)
@given(_node_specs, st.lists(_link, min_size=_N_NODES, max_size=_N_NODES),
       _queries, _ops)
def test_memoized_path_matches_fresh_topology(node_specs, ring, queries, ops):
    # Start from a ring so most queries route; ops then cut and add links.
    edges = {tuple(sorted((f"n{i}", f"n{(i + 1) % _N_NODES}"))): link
             for i, link in enumerate(ring)}
    memo = _build(node_specs, edges)

    def assert_agree():
        fresh = _build(node_specs, edges)
        for s, d, kwargs in queries:
            kwargs = dict(kwargs, via=[f"n{w}" for w in kwargs["via"]])
            assert (_route(memo, f"n{s}", f"n{d}", kwargs)
                    == _route(fresh, f"n{s}", f"n{d}", kwargs))

    assert_agree()
    for op in ops:
        if op[0] == "cut" and edges:
            a, b = list(edges)[op[1] % len(edges)]
            del edges[(a, b)]
            memo.remove_link(a, b)
        elif op[0] == "connect":
            a, b = sorted((f"n{op[1]}", f"n{op[2]}"))
            if a != b and (a, b) not in edges:
                edges[(a, b)] = op[3]
                _connect(memo, a, b, op[3])
        assert_agree()
