"""Churn behaviour: crashes mid-forward, rejoin re-propagation, cache invalidation.

The invariants under test:

* a plan forwarded toward a dead peer is rerouted or degrades to a partial
  answer — it is never silently dropped;
* a peer that rejoins after an outage re-propagates its registration, so
  indexers that pruned it re-learn its entries;
* failure detection invalidates the sender's routing cache and catalog
  entries for the dead peer.
"""

from __future__ import annotations

import pytest

from repro.algebra import PlanBuilder
from repro.catalog import ServerRole
from repro.mqp import MutantQueryPlan, QueryPreferences
from repro.network import CHURN_PROFILES, Message, Network, schedule_churn
from repro.peers import (
    BaseServer,
    ClientPeer,
    IndexServer,
    MetaIndexServer,
    register_online,
    seed_with_meta_index,
)
from repro.xmlmodel import XMLElement, element, text_element


def make_item(title: str, price: float, city: str = "USA/OR/Portland",
              category: str = "Music/CDs") -> XMLElement:
    return element(
        "item",
        {"id": title},
        text_element("title", title),
        text_element("price", price),
        text_element("city", city),
        text_element("category", category),
    )


@pytest.fixture()
def churn_network(namespace):
    """A small catalog-routed network with online registration.

    One Portland base server with CD items, one authoritative Oregon index,
    one meta-index, one client that knows only the meta-index.
    """
    network = Network(notify_unreachable=True)
    area = namespace.area(["USA/OR", "*"])
    base = BaseServer("base-portland:9020", namespace, namespace.area(["USA/OR/Portland", "Music"]))
    index = IndexServer("index-or:9020", namespace, area, authoritative=True)
    meta = MetaIndexServer("meta:9020", namespace, authoritative=True)
    client = ClientPeer("client:9020", namespace)
    for node in (base, index, meta, client):
        network.register(node)
    base.publish_collection(
        "items", [make_item("Abbey Road", 8.0), make_item("Blue Train", 12.0)]
    )
    register_online([base, index, meta, client])
    network.run_until_idle()
    seed_with_meta_index([client], [meta])
    # Redundant knowledge so failures have somewhere to reroute to: the
    # client knows the Oregon index directly, and the base also registered
    # with the meta-index (which retains it without collection detail).
    client.learn_about(index.server_entry())
    base.register_with(meta.address)
    network.run_until_idle()
    return network, base, index, meta, client


def _portland_query(client, namespace):
    from repro.namespace import InterestAreaURN

    area = namespace.area(["USA/OR/Portland", "Music"])
    urn = str(InterestAreaURN.for_area(area))
    return PlanBuilder.urn(urn).select("price < 100").display(client.address)


class TestCrashMidForward:
    def test_plan_rerouted_around_dead_hop_still_answers(self, churn_network, namespace):
        network, base, index, meta, client = churn_network
        # The client's preferred first hop for an unbindable URN is the most
        # specific covering indexer; kill it so the forward fails.
        index.go_offline()
        mqp = client.submit_plan(_portland_query(client, namespace), QueryPreferences())
        network.run_until_idle()
        result = mqp and client.results.get(mqp.query_id)
        assert result is not None, "plan was silently dropped"
        # The reroute found the meta-index (or the base directly) and the
        # plan still reached the data.
        assert result.count == 2
        reroutes = sum(p.forwarding.plans_rerouted for p in (base, index, meta, client))
        assert reroutes >= 1

    def test_all_routes_dead_degrades_to_partial_not_lost(self, churn_network, namespace):
        network, base, index, meta, client = churn_network
        for node in (base, index, meta):
            node.go_offline()
        mqp = client.submit_plan(_portland_query(client, namespace), QueryPreferences())
        network.run_until_idle()
        result = mqp and client.results.get(mqp.query_id)
        assert result is not None, "plan was silently dropped"
        assert result.partial
        assert result.count == 0

    def test_dead_peer_tracked_and_forgotten_on_recovery(self, churn_network, namespace):
        network, base, index, meta, client = churn_network
        index.go_offline()
        client.submit_plan(_portland_query(client, namespace), QueryPreferences())
        network.run_until_idle()
        assert index.address in client.suspected_dead
        # Any later message from the peer clears the suspicion.
        index.go_online()
        network.run_until_idle()
        client.learn_about(index.server_entry())
        index.send(client.address, "register-ack", index.server_entry())
        network.run_until_idle()
        assert index.address not in client.suspected_dead


class TestRejoinRepropagation:
    def test_index_prunes_dead_base_then_relearns_after_rejoin(self, churn_network, namespace):
        network, base, index, meta, client = churn_network
        assert base.address in index.catalog.servers
        base.go_offline()
        # A query routed through the index toward the dead base triggers
        # failure detection at the index.
        client.submit_plan(_portland_query(client, namespace), QueryPreferences())
        network.run_until_idle()
        assert base.address not in index.catalog.servers

        base.go_online()  # re-propagates the registration (§3.3)
        network.run_until_idle()
        assert base.address in index.catalog.servers
        entry = index.catalog.servers[base.address]
        assert entry.role is ServerRole.BASE
        assert entry.collections, "re-registration must restore collection knowledge"

    def test_queries_recover_full_answers_after_rejoin(self, churn_network, namespace):
        network, base, index, meta, client = churn_network
        base.go_offline()
        first = client.submit_plan(_portland_query(client, namespace), QueryPreferences())
        network.run_until_idle()
        assert client.results[first.query_id].count == 0

        base.go_online()
        network.run_until_idle()
        second = client.submit_plan(_portland_query(client, namespace), QueryPreferences())
        network.run_until_idle()
        result = client.results.get(second.query_id)
        assert result is not None
        assert result.count == 2

    def test_registration_targets_recorded_offline_too(self, namespace):
        from repro.peers import register_offline

        network = Network()
        base = BaseServer("b:1", namespace, namespace.area(["USA/OR", "Music"]))
        index = IndexServer("i:1", namespace, namespace.area(["USA/OR", "*"]), authoritative=True)
        network.register(base)
        network.register(index)
        base.publish_collection("items", [make_item("X", 1.0)])
        register_offline([base, index])
        assert index.address in base.registration_targets


def _first_hop(client, namespace):
    """Where the client would send a Portland query now."""
    plan = MutantQueryPlan(_portland_query(client, namespace))
    return client.processor.process(plan, avoid=client.suspected_dead).next_hop


class TestRoutingInvalidation:
    def test_unreachable_peer_leaves_the_catalog_and_the_route(self, churn_network, namespace):
        network, base, index, meta, client = churn_network
        assert _first_hop(client, namespace) == index.address
        index.go_offline()
        client.submit_plan(_portland_query(client, namespace), QueryPreferences())
        network.run_until_idle()
        assert index.address not in client.catalog.servers
        assert _first_hop(client, namespace) == meta.address

    def test_the_catalog_that_forgets_is_the_catalog_that_routes(self, churn_network, namespace):
        """One table: what failure detection prunes is what routing reads."""
        network, base, index, meta, client = churn_network
        assert all(peer.processor.catalog is peer.catalog for peer in (base, index, meta, client))
        assert _first_hop(client, namespace) == index.address
        client._peer_failed(index.address, Message(client.address, index.address, "register"))
        client.suspected_dead.clear()  # the catalog alone must steer around it
        assert index.address not in client.catalog.servers
        assert _first_hop(client, namespace) == meta.address

    def test_graceful_leave_unregisters_immediately(self, churn_network, namespace):
        network, base, index, meta, client = churn_network
        assert base.address in index.catalog.servers
        base.leave()
        network.run_until_idle()
        assert base.address not in index.catalog.servers
        assert not base.online


class TestPruneIsolation:
    def test_prune_does_not_corrupt_entries_shared_with_origin(self, churn_network, namespace):
        """Registration shares entry objects by reference; pruning at one
        catalog must not gut the origin peer's (or anyone else's) copy."""
        network, base, index, meta, client = churn_network
        base.publish_named_resource_urn = None  # noqa: B018 - documentation only
        from repro.catalog import CollectionRef, NamedResourceEntry

        entry = NamedResourceEntry(
            "urn:ForSale:Shared", [CollectionRef(base.address, "/items")]
        )
        base.catalog.register_named_resource(entry)
        index.catalog.register_named_resource(entry)  # same object, as registration does
        index.catalog.prune_server(base.address)
        assert index.catalog.lookup_named("urn:ForSale:Shared") is None
        origin = base.catalog.lookup_named("urn:ForSale:Shared")
        assert origin is not None and origin.collections, "origin's entry was gutted"


class TestChurnSchedules:
    def test_profiles_exist_and_scale(self):
        assert set(CHURN_PROFILES) == {"none", "light", "moderate", "heavy", "regional"}
        assert CHURN_PROFILES["none"].churn_fraction == 0.0
        assert CHURN_PROFILES["light"].churn_fraction < CHURN_PROFILES["heavy"].churn_fraction
        # The regional profile is the only correlated one: whole regions fail
        # together instead of independent peers.
        assert CHURN_PROFILES["regional"].correlated
        assert all(
            not profile.correlated
            for name, profile in CHURN_PROFILES.items() if name != "regional"
        )

    def test_schedule_churn_is_deterministic(self, namespace):
        def plan_for_seed(seed):
            network = Network()
            peers = []
            for position in range(40):
                peer = BaseServer(f"p{position}:9020", namespace, namespace.top_area())
                network.register(peer)
                peers.append(peer)
            return schedule_churn(network, [peer.address for peer in peers], "moderate", seed=seed)

        first = plan_for_seed(13)
        second = plan_for_seed(13)
        third = plan_for_seed(14)
        assert first.events == second.events
        assert first.events != third.events
        assert first.summary()["events"] == len(first.events) > 0

    def test_churned_peers_go_down_and_rejoin(self, namespace):
        network = Network()
        peers = []
        for position in range(30):
            peer = BaseServer(f"p{position}:9020", namespace, namespace.top_area())
            network.register(peer)
            peers.append(peer)
        plan = schedule_churn(
            network, [peer.address for peer in peers], CHURN_PROFILES["heavy"], seed=3
        )
        assert plan.events, "heavy churn over 30 peers must schedule events"
        network.run_until_idle()
        rejoined = {event.address for event in plan.events if event.recover_at is not None}
        gone = {event.address for event in plan.events if event.recover_at is None}
        for peer in peers:
            if peer.address in rejoined:
                assert peer.online
            elif peer.address in gone:
                assert not peer.online

    def test_unknown_profile_rejected(self, namespace):
        from repro.errors import SimulationError

        with pytest.raises(SimulationError):
            schedule_churn(Network(), ["a:1"], "apocalyptic")


class TestDeliveryPathNotices:
    """Regression: the delivery path must notify, not just the send path.

    ``Network._drop`` is reached two ways — at send time (unknown
    recipient) and at delivery time (the peer crashed while the message was
    in flight).  Both must emit the ``peer-unreachable`` notice when
    ``notify_unreachable`` is on; a plan caught mid-flight by a crash would
    otherwise be silently lost instead of rerouted.
    """

    def test_crash_mid_delivery_emits_notice_and_reroutes(self, churn_network, namespace):
        network, base, index, meta, client = churn_network
        mqp = client.submit_plan(_portland_query(client, namespace), QueryPreferences())
        # The client's forward to the index is now in flight; crash the
        # index before the modelled delivery delay elapses.
        network.schedule(0.5, index.go_offline)
        network.run_until_idle()
        result = mqp and client.results.get(mqp.query_id)
        assert result is not None, "in-flight plan was silently dropped"
        assert result.count == 2, "reroute around the mid-delivery crash failed"
        assert index.address in client.suspected_dead
        assert client.forwarding.plans_rerouted >= 1

    def test_notice_carries_the_original_message(self, namespace):
        from repro.network import NetworkNode

        received = []

        class Probe(NetworkNode):
            def handle_message(self, message):
                received.append(message)

        network = Network(notify_unreachable=True)
        sender, target = Probe("sender:1"), Probe("target:1")
        network.register(sender)
        network.register(target)
        original = sender.send("target:1", "mqp", "document")
        network.schedule(0.5, target.go_offline)  # crash mid-delivery
        network.run_until_idle()
        notices = [m for m in received if m.kind == "peer-unreachable"]
        assert len(notices) == 1
        assert notices[0].payload is original
        assert network.metrics.dropped_messages == 1

    def test_undeliverable_ack_is_dead_lettered_not_dropped(self, churn_network, namespace):
        """The previous allowlist silently discarded unanticipated kinds
        (register-ack, unregister); every non-plan kind is dead-lettered now."""
        network, base, index, meta, client = churn_network
        base.send(index.address, "register-ack", base.server_entry(), size_bytes=64)
        network.schedule(0.5, index.go_offline)
        network.run_until_idle()
        assert any(m.kind == "register-ack" for m in base.dead_letters)

    def test_result_to_offline_client_is_dead_lettered(self, churn_network, namespace):
        """Regression: a result whose target went offline mid-query must be
        dead-lettered at its sender, never silently lost.

        The client issues a query and crashes before the answer can return;
        the deliverer's failure detection hands the undeliverable result
        back, and it lands in the sender's dead letters with the query id
        intact (so an operator can attribute the loss).
        """
        network, base, index, meta, client = churn_network
        mqp = client.submit_plan(_portland_query(client, namespace), QueryPreferences())
        client.go_offline()  # offline before the result can be delivered
        network.run_until_idle()
        assert mqp.query_id not in client.results
        dead_results = [
            message
            for peer in (base, index, meta)
            for message in peer.dead_letters
            if message.kind in ("result", "partial-result")
        ]
        assert dead_results, "the undeliverable result was silently lost"
        assert any(
            message.payload["query_id"] == mqp.query_id for message in dead_results
        )

    def test_handle_raises_peer_offline_for_crashed_client(self, churn_network, namespace):
        """The API-level view of the same failure: the QueryHandle raises
        PeerOffline instead of blocking or returning None."""
        from repro.api import QueryHandle
        from repro.errors import PeerOffline

        network, base, index, meta, client = churn_network
        mqp = client.submit_plan(_portland_query(client, namespace), QueryPreferences())
        handle = QueryHandle(client, network, mqp.query_id)
        client.go_offline()
        with pytest.raises(PeerOffline):
            handle.result(timeout=60_000)


class TestScaleoutChurnEndToEnd:
    def test_moderate_churn_run_never_loses_plans(self):
        from repro.harness.scaleout import ScaleoutSpec, run_scaleout

        spec = ScaleoutSpec(
            name="t", topology="small-world", peers=40, workload="garage-sale",
            churn="moderate", queries=6, seed=5,
        )
        report = run_scaleout(spec)
        processing = report["processing"]
        # Every issued query produced a trace; every plan ended in delivery,
        # a reroute, or an accounted dead letter — none vanished.
        assert len(report["queries"]) == 6
        assert report["churn"]["events"] > 0
        assert processing["plans_processed"] > 0
        for row in report["queries"]:
            assert row["answers"] is not None
