"""The public client API: clusters, sessions, fluent queries, result futures.

Covers the contract ``docs/api.md`` documents:

* builder → plan compilation is equivalent to hand-built ``PlanBuilder``
  plans (identical wire XML);
* :class:`repro.api.QueryHandle` resolves event-driven on both transport
  backends, with timeout / partial / streaming semantics and loud
  ``QueryTimeout`` / ``PeerOffline`` errors instead of ``None``;
* a hand-built plan submitted at the peer layer (``QueryPeer.submit_plan``)
  answers exactly like the session's fluent query.
"""

from __future__ import annotations

import pytest

from repro.algebra import PlanBuilder
from repro.algebra.serialization import serialize_plan
from repro.api import (
    APIError,
    Cluster,
    PeerOffline,
    QueryBuilder,
    QueryHandle,
    QueryPreferences,
    QueryTimeout,
    Session,
)
from repro.mqp import PARTIAL_REASONS
from repro.namespace import InterestAreaURN, garage_sale_namespace
from repro.peers import BaseServer
from repro.xmlmodel import XMLElement, text_element
from tests.conftest import make_item

TRANSPORTS = ("sim", "aio")


def small_cluster(
    transport: str = "sim", notify_unreachable: bool = True, reliable: bool = False
) -> Cluster:
    """Two Portland CD sellers, an Oregon index, a meta-index, and a client."""
    namespace = garage_sale_namespace()
    cluster = Cluster(
        transport, namespace=namespace, notify_unreachable=notify_unreachable,
        reliable=reliable,
    )
    portland_cds = namespace.area(["USA/OR/Portland", "Music/CDs"])
    seller1 = cluster.base_server("seller1:9020", portland_cds)
    seller1.publish("cds", [make_item("Abbey Road", 8), make_item("Kind of Blue", 12)])
    seller2 = cluster.base_server("seller2:9020", portland_cds)
    seller2.publish("cds", [make_item("Blue Train", 6)])
    cluster.index_server("index-or:9020", namespace.area(["USA/OR", "*"]))
    cluster.meta_index("meta:9020")
    cluster.client("client:9020")
    cluster.connect()
    return cluster


def portland_area(cluster: Cluster):
    return cluster.namespace.area(["USA/OR/Portland", "Music/CDs"])


class TestQueryBuilderCompilation:
    """The fluent builder compiles to exactly the hand-built plan trees."""

    @pytest.fixture()
    def session(self, namespace):
        cluster = Cluster(namespace=namespace)
        session = cluster.base_server(
            "peer:9020", namespace.area(["USA/OR/Portland", "Music/CDs"])
        )
        yield session
        cluster.close()

    def test_urn_select_matches_plan_builder(self, session):
        fluent = session.query().urn("urn:ForSale:X").where("price < 10").compile()
        manual = PlanBuilder.urn("urn:ForSale:X").select("price < 10").display("peer:9020")
        assert serialize_plan(fluent) == serialize_plan(manual)

    def test_area_compiles_to_interest_area_urn(self, session, namespace):
        area = namespace.area(["USA/OR/Portland", "Music/CDs"])
        fluent = session.query().area(area).compile()
        manual = PlanBuilder.urn(str(InterestAreaURN.for_area(area))).display("peer:9020")
        assert serialize_plan(fluent) == serialize_plan(manual)

    def test_area_accepts_coordinate_paths(self, session, namespace):
        by_paths = session.query().area(["USA/OR/Portland", "Music/CDs"]).compile()
        by_area = session.query().area(namespace.area(["USA/OR/Portland", "Music/CDs"])).compile()
        assert serialize_plan(by_paths) == serialize_plan(by_area)

    def test_join_union_project_pipeline(self, session):
        fluent = (
            session.query()
            .url("a:9020", "/cds")
            .union(session.query().url("b:9020", "/cds"))
            .select("price < 10")
            .join(session.query().urn("urn:CD:TrackListings"), on=("//title", "//CD/title"))
            .project([("//title", "title")])
            .order_by("//title")
            .top_n(3, "//title")
            .compile()
        )
        manual = (
            PlanBuilder.url("a:9020", "/cds")
            .union(PlanBuilder.url("b:9020", "/cds"))
            .select("price < 10")
            .join(PlanBuilder.urn("urn:CD:TrackListings"), on=("//title", "//CD/title"))
            .project([("//title", "title")])
            .order_by("//title")
            .top_n(3, "//title")
            .display("peer:9020")
        )
        assert serialize_plan(fluent) == serialize_plan(manual)

    def test_data_and_aggregate(self, session):
        items = [make_item("A", 5), make_item("B", 7)]
        fluent = session.query().data(items, name="stock").count().compile()
        manual = PlanBuilder.data(items, name="stock").count().display("peer:9020")
        assert serialize_plan(fluent) == serialize_plan(manual)

    def test_to_overrides_delivery_target(self, session):
        plan = session.query().urn("urn:X:y").to("elsewhere:9020").compile()
        assert plan.target == "elsewhere:9020"

    def test_raw_plan_escape_hatch(self, session):
        manual = PlanBuilder.urn("urn:X:y").select("price < 5").display("peer:9020")
        adopted = session.query(manual).compile()
        assert adopted is manual
        adopted_via_method = session.query().plan(manual).compile()
        assert adopted_via_method is manual

    def test_raw_plan_cannot_be_silently_retargeted(self, session):
        manual = PlanBuilder.urn("urn:X:y").display("peer:9020")
        with pytest.raises(APIError, match="retarget"):
            session.query(manual).to("elsewhere:9020").compile()
        # A .to() matching the plan's own target is not a conflict.
        assert session.query(manual).to("peer:9020").compile() is manual

    def test_builder_grammar_errors(self, session):
        with pytest.raises(APIError):
            session.query().compile()  # no source
        with pytest.raises(APIError):
            session.query().where("price < 1")  # operator before a source
        with pytest.raises(APIError):
            session.query().urn("urn:X:y").urn("urn:X:z")  # two sources
        manual = PlanBuilder.urn("urn:X:y").display("peer:9020")
        with pytest.raises(APIError):
            session.query(manual).where("price < 1")  # raw plan is structural-final
        with pytest.raises(APIError):
            session.query().urn("urn:X:y").plan(manual)  # fluent body already started

    def test_preferences_compilation(self, session):
        builder = session.query().urn("urn:X:y").prefer("current").within(250.0)
        preferences = builder.build_preferences()
        assert preferences.prefer == "current"
        assert preferences.target_time_ms == 250.0
        explicit = QueryPreferences(prefer="fast")
        assert (
            session.query().urn("urn:X:y").preferences(explicit).build_preferences()
            is explicit
        )


class TestClusterLifecycle:
    def test_context_manager_closes_transport(self, namespace):
        with Cluster(namespace=namespace) as cluster:
            cluster.client("client:9020")
        # close is idempotent; a second close must not raise
        cluster.close()

    def test_session_lookup_and_join_order(self, namespace):
        with Cluster(namespace=namespace) as cluster:
            first = cluster.client("a:9020")
            second = cluster.client("b:9020")
            assert cluster.session("a:9020") is first
            assert cluster.sessions() == [first, second]
            with pytest.raises(APIError):
                cluster.session("missing:9020")

    def test_join_wraps_existing_peer(self, namespace):
        with Cluster(namespace=namespace) as cluster:
            peer = BaseServer("s:9020", namespace, namespace.top_area())
            session = cluster.join(peer)
            assert isinstance(session, Session)
            assert session.peer is peer

    def test_a_cluster_is_one_process(self):
        with pytest.raises(TypeError, match="workers"):
            Cluster(workers=2)

    def test_namespace_required_for_convenience_constructors(self):
        with Cluster() as cluster:
            with pytest.raises(APIError):
                cluster.client("c:9020")

    def test_connect_counts_registrations_and_seeds_clients(self, namespace):
        with Cluster(namespace=namespace) as cluster:
            seller = cluster.base_server(
                "s:9020", namespace.area(["USA/OR/Portland", "Music/CDs"])
            )
            seller.publish("cds", [make_item("A", 5)])
            cluster.index_server("i:9020", namespace.area(["USA/OR", "*"]))
            meta = cluster.meta_index("m:9020")
            client = cluster.client("c:9020")
            count = cluster.connect()
            assert count >= 2
            # The pure client was seeded with the meta-index entry.
            assert meta.address in client.peer.catalog.known_addresses()


@pytest.mark.parametrize("transport", TRANSPORTS)
class TestQueryHandleOnBothTransports:
    def test_result_waits_event_driven(self, transport):
        with small_cluster(transport) as cluster:
            client = cluster.session("client:9020")
            handle = (
                client.query()
                .area(portland_area(cluster))
                .where("price < 10")
                .expecting(2)
                .submit()
            )
            assert not handle.done()
            result = handle.result(timeout=60_000)
            assert handle.done()
            assert not result.partial
            assert {item.child_text("title") for item in result.items} == {
                "Abbey Road",
                "Blue Train",
            }
            # The wait stopped at the completion event, not at idle: the
            # result is available the moment it is recorded.
            assert handle.trace().completed_at is not None

    def test_result_after_idle_returns_immediately(self, transport):
        with small_cluster(transport) as cluster:
            client = cluster.session("client:9020")
            handle = (
                client.query()
                .area(portland_area(cluster))
                .where("price < 10")
                .expecting(2)
                .submit()
            )
            cluster.run_until_idle()
            assert handle.done()
            assert handle.result().count == 2

    def test_timeout_raises_query_timeout(self, transport):
        with small_cluster(transport) as cluster:
            client = cluster.session("client:9020")
            handle = (
                client.query()
                .area(portland_area(cluster))
                .where("price < 10")
                .submit()
            )
            # Far too small a budget: the plan needs several network hops.
            with pytest.raises(QueryTimeout, match="simulated ms"):
                handle.result(timeout=0.5)
            # The clock advanced only to the deadline, then a longer wait succeeds.
            assert handle.result(timeout=60_000).count == 2

    def test_idle_with_no_result_raises_query_timeout(self, transport):
        with small_cluster(transport, notify_unreachable=False) as cluster:
            # Both sellers die with failure notices disabled: the plan is
            # silently dropped at delivery, so nothing will ever arrive.
            cluster.session("seller1:9020").crash()
            cluster.session("seller2:9020").crash()
            client = cluster.session("client:9020")
            handle = (
                client.query()
                .area(portland_area(cluster))
                .where("price < 10")
                .submit()
            )
            with pytest.raises(QueryTimeout, match="idle"):
                handle.result()
            # items() fails just as loudly — a lost plan is not an empty result.
            with pytest.raises(QueryTimeout, match="idle"):
                list(handle.items())
            # ...and so does result iteration: the three waiting surfaces
            # share one error contract.
            with pytest.raises(QueryTimeout, match="idle"):
                list(handle)

    def test_partial_result_on_crashed_seller(self, transport):
        with small_cluster(transport) as cluster:
            cluster.session("seller2:9020").crash()
            client = cluster.session("client:9020")
            handle = (
                client.query()
                .area(portland_area(cluster))
                .where("price < 10")
                .expecting(2)
                .submit()
            )
            # The dead seller's piece bounces and comes home empty-handed,
            # the live seller's piece answers: the network idles with every
            # piece home, and result() returns the gathered answer —
            # flagged, with the reason — rather than discarding it.
            result = handle.result(timeout=120_000)
            assert result.partial and result.reason == "unreachable"
            assert {item.child_text("title") for item in result.items} == {"Abbey Road"}
            arrivals = handle.partial_results()  # one per piece, not cumulative
            assert sorted(arrival.count for arrival in arrivals) == [0, 1]
            assert {arrival.reason for arrival in arrivals} == {None, "unreachable"}
            assert not handle.done()  # no *complete* result ever arrived

    def test_a_handle_attached_late_is_told_each_item_once(self, transport):
        """Registering after the first piece replays a frozen copy of the answer
        so far — not the live record, which keeps growing as pieces land."""
        namespace = garage_sale_namespace()
        with Cluster(transport, namespace=namespace) as cluster:
            area = namespace.area(["USA/OR/Portland", "Music/CDs"])
            for seller in range(1, 5):
                cluster.base_server(f"seller{seller}:9020", area).publish(
                    "cds", [make_item(f"cd-{seller}-{n}", 5) for n in range(seller)]
                )
            cluster.index_server("index-or:9020", namespace.area(["USA/OR", "*"]))
            cluster.meta_index("meta:9020")
            client = cluster.client("client:9020")
            cluster.connect()
            first = client.query().area(area).where("price < 10").expecting(10).submit()
            cluster.network.run_until(lambda: first.query_id in client.peer.results)
            late = client.handle(first.query_id)
            assert first.result(timeout=120_000).count == 10
            assert late.result(timeout=1_000).count == 10
            pieces = [arrival.count for arrival in first.partial_results()]
            # Three pieces before the one that completed the answer, each told
            # once.  Which three is the link delays' business, not this test's:
            # they are drawn in first-use order, so any frame sent earlier (the
            # meta-index's referral, here) deals the sellers' links other delays.
            assert sorted([*pieces, 10 - sum(pieces)]) == [1, 2, 3, 4]
            assert [arrival.count for arrival in late.partial_results()] == pieces
            # Waiting again after close(): the answer so far, once — not appended
            # to what the handle had already been told.
            late.close()
            assert late.result(timeout=1_000).count == 10

    def test_a_referred_client_goes_straight_to_the_index_until_it_fails(self, transport):
        """The paper's routing cache (§3.2): the meta-index that sends a
        client's plan on to the covering authority tells the client so."""
        with small_cluster(transport) as cluster:
            client = cluster.session("client:9020")

            def ask():
                handle = (
                    client.query().area(portland_area(cluster)).where("price < 10")
                    .expecting(2).submit()
                )
                result = handle.result(timeout=120_000)
                cluster.run_until_idle()  # the referral may land after the answer
                return result, cluster.metrics.trace(handle.query_id).visited

            first, path = ask()
            assert path[:3] == ["client:9020", "meta:9020", "index-or:9020"]
            assert cluster.metrics.messages_by_kind["referral"] == 1
            second, path = ask()
            assert path[:2] == ["client:9020", "index-or:9020"] and "meta:9020" not in path
            assert first.count == second.count == 2 and not second.partial
            assert cluster.metrics.messages_by_kind["referral"] == 1  # told once

            cluster.session("index-or:9020").crash()
            third, path = ask()  # bounces off the dead index, reroutes through the meta-index
            assert path[:2] == ["client:9020", "client:9020"] and "meta:9020" in path
            fourth, path = ask()  # the route was forgotten: the meta-index first again
            assert path[:2] == ["client:9020", "meta:9020"]
            # Never silent: result() returned both times, and a partial says why.
            # (Both read "complete, 0 items" today, as at the parent: the
            # meta-index is authoritative for everything and has pruned the one
            # index it knew — a recall bug of its own, ROADMAP's harness item.)
            for late in (third, fourth):
                assert not late.partial or late.reason in PARTIAL_REASONS

    def test_cancel_after_a_scatter_reaches_every_branch(self, transport):
        with small_cluster(transport) as cluster:
            client = cluster.session("client:9020")
            index = cluster.session("index-or:9020").peer
            handle = (
                client.query().area(portland_area(cluster)).where("price < 10").submit()
            )
            # Stop the clock the moment the index has sent both sellers
            # their piece, then cancel: the notice must fan out as the plan did.
            cluster.network.run_until(lambda: index.forwarding.plans_forwarded >= 2)
            assert list(index.forwarding.custody[handle.query_id]) == [
                "seller1:9020", "seller2:9020",
            ]
            handle.cancel()
            cluster.run_until_idle()
            for address in ("meta:9020", "index-or:9020", "seller1:9020", "seller2:9020"):
                peer = cluster.session(address).peer
                assert handle.query_id in peer.cancelled_queries, address
                assert handle.query_id not in peer.forwarding.custody
            assert handle.query_id not in client.peer.results
            assert handle.query_id not in client.peer.gather

    def test_a_join_and_a_top_n_over_a_union_still_travel_as_one_piece(self, transport):
        with small_cluster(transport) as cluster:
            cluster.session("seller2:9020").publish(
                "listings",
                [XMLElement("CD", {}, [text_element("title", "Abbey Road"),
                                       text_element("track", "Come Together")])],
                urn="urn:CD:TrackListings",
            )
            cluster.connect()
            client = cluster.session("client:9020")
            cds = lambda: client.query().area(portland_area(cluster)).where("price < 100")
            cheapest = cds().top_n(2, "price", descending=False).submit()
            joined = cds().join(
                client.query().urn("urn:CD:TrackListings"), on=("//title", "//CD/title")
            ).submit()
            result = cheapest.result(timeout=120_000)
            assert [item.child_text("title") for item in result.items] == [
                "Blue Train", "Abbey Road",
            ]
            assert not result.partial
            tracks = joined.result(timeout=120_000)
            assert not tracks.partial and tracks.count == 1
            assert tracks.items[0].find("CD").child_text("track") == "Come Together"
            # One plan per query walked from holder to holder and came home
            # whole: one result frame each, no piece arrivals before it.
            assert cluster.network.metrics.messages_by_kind["result"] == 2
            assert cheapest.partial_results() == [] and joined.partial_results() == []
            for handle in (cheapest, joined):
                assert handle.trace().visited[-2:] == ["seller1:9020", "seller2:9020"]

    def test_streaming_iteration(self, transport):
        with small_cluster(transport) as cluster:
            client = cluster.session("client:9020")
            handle = (
                client.query()
                .area(portland_area(cluster))
                .where("price < 10")
                .expecting(2)
                .submit()
            )
            seen = list(handle)
            assert seen  # at least the final result streams out
            assert not seen[-1].partial
            assert all(result.partial for result in seen[:-1])

    def test_streaming_ends_on_idle_partial(self, transport):
        with small_cluster(transport) as cluster:
            cluster.session("seller2:9020").crash()
            client = cluster.session("client:9020")
            handle = (
                client.query()
                .area(portland_area(cluster))
                .where("price < 10")
                .submit()
            )
            seen = list(handle)
            assert seen and seen[-1].partial  # stream closed by idleness

    def test_results_timeout_matches_result_semantics(self, transport):
        """``results(timeout=...)`` raises QueryTimeout exactly like result()."""
        with small_cluster(transport) as cluster:
            client = cluster.session("client:9020")
            handle = (
                client.query()
                .area(portland_area(cluster))
                .where("price < 10")
                .submit()
            )
            with pytest.raises(QueryTimeout, match="simulated ms"):
                list(handle.results(timeout=0.5))
            # The clock only advanced to the deadline; resuming succeeds.
            seen = list(handle.results(timeout=60_000))
            assert seen and not seen[-1].partial

    def test_iteration_raises_peer_offline(self, transport):
        """Iterating with the issuer offline fails loudly on every surface."""
        with small_cluster(transport) as cluster:
            client = cluster.session("client:9020")
            handle = (
                client.query()
                .area(portland_area(cluster))
                .where("price < 10")
                .submit()
            )
            client.crash()
            with pytest.raises(PeerOffline):
                list(handle)
            with pytest.raises(PeerOffline):
                list(handle.items())
            with pytest.raises(PeerOffline):
                handle.result(timeout=60_000)

    def test_offline_peer_cannot_issue(self, transport):
        with small_cluster(transport) as cluster:
            client = cluster.session("client:9020")
            client.crash()
            with pytest.raises(PeerOffline):
                client.query().area(portland_area(cluster)).submit()

    def test_watchers_released_on_terminal_outcomes(self, transport):
        with small_cluster(transport) as cluster:
            client = cluster.session("client:9020")
            peer = client.peer
            # Final result: the peer releases the query's watcher list.
            done = (
                client.query()
                .area(portland_area(cluster))
                .where("price < 10")
                .submit()
            )
            assert peer.gather.watchers
            done.result(timeout=60_000)
            assert not peer.gather.watchers
            # Partial-only (idle) outcome: the handle unregisters itself.
            cluster.session("seller2:9020").crash()
            degraded = (
                client.query()
                .area(portland_area(cluster))
                .where("price < 10")
                .submit()
            )
            result = degraded.result(timeout=120_000)
            assert result.partial
            assert not peer.gather.watchers
            # Waiting again re-registers transparently and still answers.
            assert degraded.result(timeout=120_000).partial

    def test_peer_offline_mid_query_raises(self, transport):
        with small_cluster(transport) as cluster:
            client = cluster.session("client:9020")
            handle = (
                client.query()
                .area(portland_area(cluster))
                .where("price < 10")
                .submit()
            )
            client.crash()  # goes offline before the answer can return
            with pytest.raises(PeerOffline):
                handle.result(timeout=120_000)
            # items() fails just as loudly — no clean-looking empty stream.
            with pytest.raises(PeerOffline):
                list(handle.items(timeout=120_000))


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_a_meta_index_leaves_the_registration_it_was_sent_intact(transport):
    # On sim the payload a receiver gets is the sender's own object (and,
    # on a reliable cluster, the one kept for retransmission): a receiver
    # adopts a copy of what it changes.
    with small_cluster(transport) as cluster:
        seller = cluster.session("seller1:9020").peer
        payload = seller.registration()
        collections = list(payload.entry.collections)
        assert collections
        seller.send("meta:9020", "register", payload)
        cluster.run_until_idle()
        assert payload.entry.collections == collections
        meta = cluster.session("meta:9020").peer
        assert meta.catalog.require_server("seller1:9020").collections == []


class TestPeerSubmitPlan:
    def test_submit_plan_answers_like_the_session_builder(self, namespace):
        """``QueryPeer.submit_plan`` and the session builder answer identically."""
        with small_cluster() as first:
            client = first.session("client:9020")
            handle = (
                client.query()
                .area(portland_area(first))
                .where("price < 10")
                .labelled("shim-equiv")
                .submit()
            )
            new_titles = {
                item.child_text("title") for item in handle.result(timeout=60_000).items
            }
        with small_cluster() as second:
            peer = second.session("client:9020").peer
            area = portland_area(second)
            plan = (
                PlanBuilder.urn(str(InterestAreaURN.for_area(area)))
                .select("price < 10")
                .display(peer.address)
            )
            mqp = peer.submit_plan(plan, QueryPreferences(), query_id="shim-equiv")
            second.run_until_idle()
            old_titles = {
                item.child_text("title") for item in peer.results[mqp.query_id].items
            }
        assert new_titles == old_titles


class TestSessionSurface:
    def test_publish_with_urn_registers_named_resource(self, namespace):
        with Cluster(namespace=namespace) as cluster:
            seller = cluster.base_server(
                "s:9020", namespace.area(["USA/OR/Portland", "Music/CDs"])
            )
            seller.publish("cds", [make_item("A", 5)], urn="urn:ForSale:Portland-CDs")
            assert seller.peer.catalog.lookup_named("urn:ForSale:Portland-CDs") is not None

    def test_announce_parses_textual_statement(self, namespace):
        with Cluster(namespace=namespace) as cluster:
            seller = cluster.base_server(
                "s:9020", namespace.area(["USA/OR/Portland", "Music/CDs"])
            )
            seller.announce(
                "base[(USA.OR.Portland,Music.CDs)]@s:9020 >= "
                "base[(USA.OR.Portland,Music.CDs)]@other:9020{15}"
            )
            assert seller.peer.statements

    def test_handle_reattaches_to_query_id(self, namespace):
        with small_cluster() as cluster:
            client = cluster.session("client:9020")
            submitted = (
                client.query()
                .area(portland_area(cluster))
                .where("price < 10")
                .labelled("reattach")
                .submit()
            )
            cluster.run_until_idle()
            # A second handle for the same id resolves from the recorded result.
            late = client.handle("reattach")
            assert late.done()
            assert late.result().count == submitted.result().count

    def test_query_builder_repr_and_session_repr(self, namespace):
        with Cluster(namespace=namespace) as cluster:
            session = cluster.client("c:9020")
            assert "c:9020" in repr(session)
            assert isinstance(session.query(), QueryBuilder)
            assert isinstance(
                session.handle("nothing-yet"), QueryHandle
            )
