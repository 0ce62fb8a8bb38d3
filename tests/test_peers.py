"""Tests for peer roles, registration, and end-to-end MQP query processing."""

import pytest

from repro.algebra import PlanBuilder
from repro.catalog import IntensionalStatement, ServerEntry, ServerRole
from repro.errors import PeerOffline
from repro.mqp import MutantQueryPlan, QueryPreferences
from repro.namespace import InterestAreaURN
from repro.network import Message, Network
from repro.peers import (
    BaseServer,
    ClientPeer,
    IndexServer,
    MetaIndexServer,
    covering_indexers,
    register_offline,
    register_online,
    registration_plan,
    seed_with_meta_index,
)
from tests.conftest import make_item


@pytest.fixture()
def small_network(namespace):
    """Two Portland CD sellers, an Oregon index, a meta-index, and a client."""
    network = Network()
    portland_cds = namespace.area(["USA/OR/Portland", "Music/CDs"])
    seller1 = BaseServer("seller1:9020", namespace, portland_cds)
    seller2 = BaseServer("seller2:9020", namespace, portland_cds)
    index_or = IndexServer("index-or:9020", namespace, namespace.area(["USA/OR", "*"]))
    meta = MetaIndexServer("meta:9020", namespace)
    client = ClientPeer("client:9020", namespace)
    for peer in (seller1, seller2, index_or, meta, client):
        network.register(peer)
    seller1.publish_collection(
        "cds", [make_item("Abbey Road", 8), make_item("Kind of Blue", 12)]
    )
    seller2.publish_collection("cds", [make_item("Blue Train", 6)])
    return network, namespace, seller1, seller2, index_or, meta, client


class TestPublishing:
    def test_publish_collection_registers_self(self, namespace):
        server = BaseServer("s:1", namespace, namespace.area(["USA/OR/Portland", "Music/CDs"]))
        reference = server.publish_collection("cds", [make_item("A", 5)])
        assert reference.path == "/cds"
        assert server.collection_items("cds")[0].child_text("title") == "A"
        entry = server.server_entry()
        assert entry.role is ServerRole.BASE
        assert entry.collections[0].cardinality == 1

    def test_the_entry_is_one_object_until_a_write_rebuilds_it(self, namespace):
        server = BaseServer("s:1", namespace, namespace.area(["USA/OR/Portland", "Music/CDs"]))
        server.publish_collection("cds", [make_item("A", 5), make_item("B", 6)])
        entry = server.server_entry()
        assert server.server_entry() is entry is server.catalog.servers["s:1"]
        assert server.registration().entry is entry
        writes = [
            (lambda: server.publish_collection("cds", [make_item("A", 5)]), 1),
            (lambda: server.update_collection("cds", [make_item("B", 6), make_item("C", 7)]), 3),
            (lambda: server.update_collection("cds", [make_item("C", 8)]), 3),
            (lambda: server.retract_from_collection("cds", keys=["seller:9020-A"]), 2),
        ]
        seen = [entry]
        for write, cardinality in writes:
            write()
            rebuilt = server.server_entry()
            assert all(rebuilt is not earlier for earlier in seen)
            assert rebuilt is server.server_entry() is server.catalog.servers["s:1"]
            assert [ref.cardinality for ref in rebuilt.collections] == [cardinality]
            seen.append(rebuilt)
        assert [ref.cardinality for ref in entry.collections] == [2]  # never mutated

    def test_publish_named_resource(self, namespace):
        server = BaseServer("s:1", namespace, namespace.top_area())
        server.publish_collection("cds", [make_item("A", 5)])
        server.publish_named_resource("urn:ForSale:Portland-CDs", "cds")
        assert server.catalog.lookup_named("urn:ForSale:Portland-CDs") is not None
        with pytest.raises(Exception):
            server.publish_named_resource("urn:X:y", "missing")


class TestRegistration:
    def test_covering_indexers_prefers_most_specific_authoritative(self, namespace):
        seller = BaseServer("s:1", namespace, namespace.area(["USA/OR/Portland", "Music/CDs"]))
        index_or = IndexServer("i-or:1", namespace, namespace.area(["USA/OR", "*"]))
        meta = MetaIndexServer("meta:1", namespace)
        chosen = covering_indexers(seller, [meta, index_or])
        assert [peer.address for peer in chosen] == ["i-or:1"]

    def test_registration_plan_links_index_to_meta(self, namespace):
        seller = BaseServer("s:1", namespace, namespace.area(["USA/OR/Portland", "Music/CDs"]))
        index_or = IndexServer("i-or:1", namespace, namespace.area(["USA/OR", "*"]))
        meta = MetaIndexServer("meta:1", namespace)
        client = ClientPeer("c:1", namespace)
        plan = registration_plan([seller, index_or, meta, client])
        assert ("s:1", "i-or:1") in plan
        assert ("i-or:1", "meta:1") in plan
        assert all(source != "c:1" for source, _ in plan)

    def test_register_offline_populates_catalogs(self, small_network):
        network, namespace, seller1, seller2, index_or, meta, client = small_network
        count = register_offline([seller1, seller2, index_or, meta, client])
        assert count >= 3
        assert "seller1:9020" in index_or.catalog.known_addresses()
        assert "index-or:9020" in meta.catalog.known_addresses()
        # Meta-index servers keep only namespace indices (no collection detail).
        assert all(not entry.collections for entry in meta.catalog.servers.values())
        # The registering peer learns about its indexer in return.
        assert "index-or:9020" in seller1.catalog.known_addresses()

    def test_register_online_uses_messages(self, small_network):
        network, namespace, seller1, seller2, index_or, meta, client = small_network
        initiated = register_online([seller1, seller2, index_or, meta, client])
        network.run_until_idle()
        assert initiated >= 3
        assert network.metrics.messages_by_kind["register"] == initiated
        assert network.metrics.messages_by_kind["register-ack"] >= 1
        assert "seller1:9020" in index_or.catalog.known_addresses()

    def test_intensional_statements_travel_with_registration(self, small_network):
        network, namespace, seller1, seller2, index_or, meta, client = small_network
        statement = IntensionalStatement.parse(
            "base[(USA.OR.Portland,Music.CDs)]@seller1:9020 >= "
            "base[(USA.OR.Portland,Music.CDs)]@seller2:9020{15}"
        )
        seller1.announce_statement(statement)
        register_offline([seller1, seller2, index_or, meta, client])
        assert statement in index_or.catalog.statements


def _first_hop(client, area):
    """Where ``client`` would send a query over ``area`` now."""
    plan = PlanBuilder.urn(str(InterestAreaURN.for_area(area))).display(client.address)
    return client.processor.process(MutantQueryPlan(plan)).next_hop


class TestReferralHandling:
    """What a client takes from a ``referral`` frame (``PlanForwarding._refer`` sends it)."""

    def test_an_authoritative_index_is_learned_by_the_catalog_that_routes(self, small_network):
        _, namespace, _, _, index, _, client = small_network
        area = namespace.area(["USA/OR/Portland", "Music/CDs"])
        assert client.processor.catalog is client.catalog and _first_hop(client, area) is None
        client.receive(Message(index.address, client.address, "referral", index.server_entry()))
        assert client.catalog.servers[index.address] == index.server_entry()
        assert _first_hop(client, area) == index.address

    def test_a_referral_moves_the_next_query_to_the_index_whatever_the_addresses(self, namespace):
        """The meta-index's address sorts before the index's: the narrower
        area, not the name, puts the index first once it is learned."""
        network = Network()
        portland_cds = namespace.area(["USA/OR/Portland", "Music/CDs"])
        seller = BaseServer("seller:9020", namespace, portland_cds)
        index = IndexServer("index-or:9020", namespace, namespace.area(["USA/OR", "*"]))
        meta = MetaIndexServer("a-meta:9020", namespace)
        client = ClientPeer("client:9020", namespace)
        for peer in (seller, index, meta, client):
            network.register(peer)
        seller.publish_collection("cds", [make_item("Abbey Road", 8), make_item("Blue Train", 6)])
        register_offline([seller, index, meta, client])
        seed_with_meta_index([client], [meta])
        plan = PlanBuilder.urn(str(InterestAreaURN.for_area(portland_cds))).display(client.address)
        visited, answers = [], []
        for _ in range(2):
            mqp = client.submit_plan(plan, QueryPreferences(), expected_answers=2)
            network.run_until_idle()
            visited.append(network.metrics.trace(mqp.query_id).visited)
            answers.append(sorted(item.child_text("title") for item in client.results[mqp.query_id].items))
        assert meta.address in visited[0] and meta.address not in visited[1]
        assert index.address in visited[1]
        assert network.metrics.messages_by_kind["referral"] == 1
        assert answers[0] == answers[1] == ["Abbey Road", "Blue Train"]

    @pytest.mark.parametrize("payload", [
        None, "index-or:9020", {"address": "index-or:9020"},
        "a base server's entry", "an index without authority",
    ])
    def test_anything_else_is_dropped_not_raised(self, small_network, payload):
        _, namespace, seller1, _, _, _, client = small_network
        if payload == "a base server's entry":
            payload = seller1.server_entry()
        elif payload == "an index without authority":
            payload = IndexServer(
                "index-x:9020", namespace, namespace.area(["USA/OR", "*"]), authoritative=False
            ).server_entry()
        before = dict(client.catalog.servers)
        client.receive(Message("meta:9020", client.address, "referral", payload))
        assert client.catalog.servers == before and _first_hop(client, namespace.top_area()) is None


class TestRoutingFromTheCatalog:
    """A client routes from the one table it has: its catalog."""

    @pytest.fixture()
    def client(self, namespace):
        """A client that knows two covering authorities, only through its catalog:
        the meta-index's address sorts first, the Oregon index's area is narrower."""
        client = ClientPeer("client:9020", namespace)
        client.catalog.register_server(ServerEntry(
            "a-meta:9020", ServerRole.META_INDEX, namespace.top_area(), authoritative=True
        ))
        client.catalog.register_server(ServerEntry(
            "z-index-or:9020", ServerRole.INDEX, namespace.area(["USA/OR", "*"]),
            authoritative=True,
        ))
        return client

    def test_the_most_specific_covering_authority_goes_first(self, client, namespace):
        area = namespace.area(["USA/OR/Portland", "Music/CDs"])
        assert _first_hop(client, area) == "z-index-or:9020"

    def test_equally_specific_authorities_go_in_address_order(self, client, namespace):
        client.catalog.register_server(ServerEntry(
            "m-index-or:9020", ServerRole.INDEX, namespace.area(["USA/OR", "*"]),
            authoritative=True,
        ))
        area = namespace.area(["USA/OR/Portland", "Music/CDs"])
        assert _first_hop(client, area) == "m-index-or:9020"

    def test_a_narrower_index_without_authority_waits_behind_the_authorities(
        self, client, namespace
    ):
        client.catalog.register_server(ServerEntry(
            "b-index-portland:9020", ServerRole.INDEX, namespace.area(["USA/OR/Portland", "*"]),
        ))
        area = namespace.area(["USA/OR/Portland", "Music/CDs"])
        assert _first_hop(client, area) == "z-index-or:9020"

    def test_a_pruned_authority_gives_way_to_the_next(self, client, namespace):
        client.catalog.prune_server("z-index-or:9020")
        area = namespace.area(["USA/OR/Portland", "Music/CDs"])
        assert _first_hop(client, area) == "a-meta:9020"


class TestEndToEndQuery:
    def _prepare(self, small_network):
        network, namespace, seller1, seller2, index_or, meta, client = small_network
        register_offline([seller1, seller2, index_or, meta, client])
        seed_with_meta_index([client], [meta])
        return network, namespace, client

    def test_query_finds_all_cheap_cds(self, small_network):
        network, namespace, client = self._prepare(small_network)
        area = namespace.area(["USA/OR/Portland", "Music/CDs"])
        plan = PlanBuilder.urn(str(InterestAreaURN.for_area(area))).select("price < 10").display(client.address)
        mqp = client.submit_plan(plan, QueryPreferences(), expected_answers=2)
        network.run_until_idle()
        result = client.results.get(mqp.query_id)
        assert result is not None and not result.partial
        assert {item.child_text("title") for item in result.items} == {"Abbey Road", "Blue Train"}
        trace = network.metrics.trace(mqp.query_id)
        assert trace.recall == pytest.approx(1.0)
        # The §3.4 resolution walk: meta-index, then the state index, then the sellers.
        assert trace.visited.index("meta:9020") < trace.visited.index("index-or:9020")
        assert trace.visited.index("index-or:9020") < trace.visited.index("seller1:9020")

    def test_query_skips_irrelevant_state(self, small_network):
        network, namespace, client = self._prepare(small_network)
        area = namespace.area(["USA/WA/Seattle", "Music/CDs"])
        plan = PlanBuilder.urn(str(InterestAreaURN.for_area(area))).display(client.address)
        mqp = client.submit_plan(plan, QueryPreferences(), expected_answers=0)
        network.run_until_idle()
        result = client.results.get(mqp.query_id)
        assert result is not None
        assert result.count == 0
        trace = network.metrics.trace(mqp.query_id)
        assert "seller1:9020" not in trace.visited
        assert "seller2:9020" not in trace.visited

    def test_failed_seller_yields_partial_answer(self, small_network):
        network, namespace, seller1, seller2, index_or, meta, client = small_network
        register_offline([seller1, seller2, index_or, meta, client])
        seed_with_meta_index([client], [meta])
        seller2.go_offline()
        area = namespace.area(["USA/OR/Portland", "Music/CDs"])
        plan = PlanBuilder.urn(str(InterestAreaURN.for_area(area))).select("price < 10").display(client.address)
        mqp = client.submit_plan(plan, QueryPreferences(), expected_answers=2)
        network.run_until_idle()
        # The plan dies at the offline seller; the system keeps working and
        # the client simply never hears back for this query (no crash).
        trace = network.metrics.trace(mqp.query_id)
        assert network.metrics.dropped_messages >= 1
        assert trace.visited  # the query did travel

    def test_query_result_records_provenance_hops(self, small_network):
        network, namespace, client = self._prepare(small_network)
        area = namespace.area(["USA/OR/Portland", "Music/CDs"])
        plan = PlanBuilder.urn(str(InterestAreaURN.for_area(area))).display(client.address)
        mqp = client.submit_plan(plan, QueryPreferences(), expected_answers=3)
        network.run_until_idle()
        result = client.results.get(mqp.query_id)
        assert result is not None
        assert result.provenance_hops >= 2

    def test_offline_peer_cannot_issue_query(self, small_network):
        """Regression: issuing from an offline peer fails loudly (PeerOffline).

        The seed silently accepted the query and produced no result — the
        plan left through ``send`` and died, with nothing telling the
        caller why.
        """
        network, namespace, client = self._prepare(small_network)
        area = namespace.area(["USA/OR/Portland", "Music/CDs"])
        plan = PlanBuilder.urn(str(InterestAreaURN.for_area(area))).display(client.address)
        client.go_offline()
        with pytest.raises(PeerOffline):
            client.submit_plan(plan, QueryPreferences())
        client.go_online()
        assert client.submit_plan(plan, QueryPreferences()) is not None


class TestChargedBytes:
    def test_documents_are_charged_in_utf8_bytes_not_code_points(self, small_network):
        network, namespace, seller1, seller2, index_or, meta, client = small_network
        seller1.publish_collection("cds", [make_item("Café ☕ Olé", 5)])
        register_offline([seller1, seller2, index_or, meta, client])
        seed_with_meta_index([client], [meta])
        sent = []
        record = network.metrics.record_send
        network.metrics.record_send = lambda message: (sent.append(message), record(message))

        area = namespace.area(["USA/OR/Portland", "Music/CDs"])
        plan = PlanBuilder.urn(str(InterestAreaURN.for_area(area))).select("price < 10").display(client.address)
        mqp = client.submit_plan(plan, QueryPreferences(), expected_answers=2)
        network.run_until_idle()

        titles = {item.child_text("title") for item in client.results[mqp.query_id].items}
        assert titles == {"Café ☕ Olé", "Blue Train"}
        documents = [
            (message.payload if message.kind == "mqp" else message.payload["document"], message)
            for message in sent
            if message.kind in ("mqp", "result")
        ]
        carrying = [(text, message) for text, message in documents if "☕" in text]
        # Results go straight to the target, so no plan carries the item on.
        assert carrying and all(message.kind == "result" for _, message in carrying)
        for text, message in documents:
            assert message.size_bytes == len(text.encode("utf-8"))
        for text, message in carrying:
            assert message.size_bytes > len(text)
