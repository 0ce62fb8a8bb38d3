"""Tests for the Gnutella, Napster, and routing-index baselines."""

import pytest

from repro.harness import experiment
from repro.harness.scaleout import ScaleoutSpec, run_scenario
from repro.network import Network, random_topology
from repro.routing import GnutellaPeer, NapsterIndexServer, NapsterPeer, RoutingIndexPeer
from repro.workloads import CDWorkload, CDWorkloadConfig
from tests.conftest import make_item


def _cell(namespace, city, category):
    return namespace.cell(city, category)


class TestGnutella:
    def _build(self, namespace, peer_count=8, degree=3):
        network = Network()
        addresses = [f"g{i}:1" for i in range(peer_count)]
        topology = random_topology(addresses, degree=degree, seed=4)
        peers = []
        for index, address in enumerate(addresses):
            peer = GnutellaPeer(address, topology)
            network.register(peer)
            peers.append(peer)
        return network, peers

    def test_broadcast_reaches_data_within_horizon(self, namespace):
        network, peers = self._build(namespace)
        cell = _cell(namespace, "USA/OR/Portland", "Music/CDs")
        peers[3].add_items(cell, [make_item("Abbey Road", 8)])
        peers[5].add_items(cell, [make_item("Blue Train", 6)])
        area = namespace.area(["USA/OR/Portland", "Music/CDs"])
        query_id = peers[0].issue_query(area, horizon=4)
        network.run_until_idle()
        assert len(peers[0].results.get(query_id, [])) == 2

    def test_small_horizon_misses_rare_content(self, namespace):
        """The paper's claim: broadcasting 'hurts result quality by limiting
        the availability of rare content'."""
        network, peers = self._build(namespace, peer_count=12, degree=2)
        cell = _cell(namespace, "USA/OR/Portland", "Music/CDs")
        # Put the only copy far from the origin in the ring-ish topology.
        holder = peers[6]
        holder.add_items(cell, [make_item("Rare", 5)])
        area = namespace.area(["USA/OR/Portland", "Music/CDs"])
        short = peers[0].issue_query(area, horizon=1)
        network.run_until_idle()
        long = peers[0].issue_query(area, horizon=8)
        network.run_until_idle()
        assert len(peers[0].results.get(short, [])) <= len(peers[0].results.get(long, []))
        assert len(peers[0].results.get(long, [])) == 1

    def test_broadcast_message_volume_grows_with_horizon(self, namespace):
        area = namespace.area(["USA/OR/Portland", "Music/CDs"])
        network1, peers1 = self._build(namespace, peer_count=16, degree=4)
        peers1[0].issue_query(area, horizon=1)
        network1.run_until_idle()
        messages_h1 = network1.metrics.messages_sent
        network2, peers2 = self._build(namespace, peer_count=16, degree=4)
        peers2[0].issue_query(area, horizon=4)
        network2.run_until_idle()
        assert network2.metrics.messages_sent > messages_h1

    def test_duplicate_queries_not_reflooded(self, namespace):
        network, peers = self._build(namespace, peer_count=6, degree=3)
        area = namespace.area(["USA/OR/Portland", "*"])
        peers[0].issue_query(area, horizon=5)
        network.run_until_idle()
        # every peer sees the query at most once
        for peer in peers:
            assert len(peer.seen_queries) <= 1


class TestNapster:
    def _build(self, namespace):
        network = Network()
        index = NapsterIndexServer("central:1")
        network.register(index)
        peers = []
        for i in range(4):
            peer = NapsterPeer(f"n{i}:1", "central:1")
            network.register(peer)
            peers.append(peer)
        return network, index, peers

    def test_publish_then_query_fetches_from_owners(self, namespace):
        network, index, peers = self._build(namespace)
        cell = _cell(namespace, "USA/OR/Portland", "Music/CDs")
        peers[1].add_items(cell, [make_item("Abbey Road", 8)])
        peers[2].add_items(cell, [make_item("Blue Train", 6)])
        network.run_until_idle()
        assert len(index.records) == 2
        area = namespace.area(["USA/OR/Portland", "Music/CDs"])
        query_id = peers[0].issue_query(area)
        network.run_until_idle()
        assert len(peers[0].results.get(query_id, [])) == 2
        assert index.lookups_served == 1

    def test_all_queries_go_through_the_central_index(self, namespace):
        network, index, peers = self._build(namespace)
        area = namespace.area(["USA/OR/Portland", "*"])
        for peer in peers:
            peer.issue_query(area)
        network.run_until_idle()
        assert index.lookups_served == len(peers)

    def test_query_with_no_matches_completes(self, namespace):
        network, index, peers = self._build(namespace)
        area = namespace.area(["France", "*"])
        query_id = peers[0].issue_query(area)
        network.run_until_idle()
        assert peers[0].results.get(query_id, []) == []
        assert network.metrics.trace(query_id).completed_at is not None


class TestRoutingIndex:
    def _build(self, namespace, peer_count=6):
        network = Network()
        addresses = [f"r{i}:1" for i in range(peer_count)]
        topology = random_topology(addresses, degree=3, seed=9)
        peers = []
        for address in addresses:
            peer = RoutingIndexPeer(address, namespace, topology)
            network.register(peer)
            peers.append(peer)
        return network, peers

    def test_advertisements_build_routing_index(self, namespace):
        network, peers = self._build(namespace)
        cell = _cell(namespace, "USA/OR/Portland", "Music/CDs")
        peers[2].add_items(cell, [make_item("Abbey Road", 8)])
        for peer in peers:
            peer.advertise()
        network.run_until_idle()
        neighbor_of_holder = peers[2].neighbors()[0]
        holder_counts = next(p for p in peers if p.address == neighbor_of_holder).routing_index["r2:1"]
        assert holder_counts["Music"] == 1

    def test_query_guided_to_promising_neighbor(self, namespace):
        network, peers = self._build(namespace)
        cell = _cell(namespace, "USA/OR/Portland", "Music/CDs")
        holder = peers[3]
        holder.add_items(cell, [make_item("Abbey Road", 8), make_item("Blue Train", 6)])
        for peer in peers:
            peer.advertise()
        network.run_until_idle()
        area = namespace.area(["USA/OR/Portland", "Music/CDs"])
        query_id = peers[0].issue_query(area, wanted=2)
        network.run_until_idle()
        # Guided search forwards one query per hop instead of flooding.
        trace = network.metrics.trace(query_id)
        assert trace.answers >= 0
        forwarded = network.metrics.messages_by_kind["ri-query"]
        assert forwarded <= len(peers)

    def test_local_results_complete_without_forwarding(self, namespace):
        network, peers = self._build(namespace)
        cell = _cell(namespace, "USA/OR/Portland", "Music/CDs")
        peers[0].add_items(cell, [make_item("Abbey Road", 8)])
        area = namespace.area(["USA/OR/Portland", "Music/CDs"])
        query_id = peers[0].issue_query(area, wanted=1)
        network.run_until_idle()
        assert len(peers[0].results.get(query_id, [])) == 1
        assert network.metrics.messages_by_kind["ri-query"] == 0


SET_UP_KINDS = {"n-publish", "ri-advert"}
"""Traffic a baseline sends before any query: charged to no query."""


def _charged_equals_sent(metrics):
    """Every message a query caused is charged to its trace exactly once."""
    traces = metrics.traces.values()
    charged = (sum(t.messages for t in traces), sum(t.bytes for t in traces))
    sent = (
        sum(n for kind, n in metrics.messages_by_kind.items() if kind not in SET_UP_KINDS),
        sum(n for kind, n in metrics.bytes_by_kind.items() if kind not in SET_UP_KINDS),
    )
    assert charged == sent
    assert charged[0] > 0


class TestChargedTraffic:
    @pytest.mark.parametrize("routing", ["gnutella", "napster", "routing-index"])
    def test_a_scenario_charges_what_it_sends(self, routing):
        spec = ScaleoutSpec(
            name="ledger", topology="small-world", peers=60, workload="garage-sale",
            routing=routing, queries=6, seed=3,
        )
        scenario, _ = run_scenario(spec)
        _charged_equals_sent(scenario.network.metrics)

    def test_the_coordinator_charges_what_it_sends(self, monkeypatch):
        networks = []

        class Recorded(Network):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                networks.append(self)

        monkeypatch.setattr(experiment, "Network", Recorded)
        experiment.run_cd_query_coordinator(CDWorkload(CDWorkloadConfig(sellers=3, seed=5)))
        (network,) = networks
        _charged_equals_sent(network.metrics)
