"""Continuous queries: publish-time matching, delta feeds, teardown, churn.

The suite covers the full standing-query protocol end-to-end:

* shape validation and the trie matcher (unit level);
* ``Session.subscribe`` on a fresh cluster, nothing switched on;
* delta feeds on both transports — insert/update/retract classification
  through each subscription's own predicate, projection applied at the
  publisher, in-order release, duplicate suppression;
* teardown — ``unsubscribe`` clears armed matchers, authority registries
  and pending retransmission timers at every hop;
* churn — a subscriber crash/rejoin resumes from its last released
  sequence, a failed-over authority re-arms publishers from its durable
  registry, conflicting authorities surface (MOAS-style) instead of
  double-delivering, and a flash crowd of 100 subscribers under seeded
  loss still sees exactly-once delivery;
* at 200 peers a delta reaches its subscriber >= 5x sooner than snapshot
  polling would.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.algebra import PlanBuilder
from repro.algebra.serialization import serialize_plan
from repro.api import Cluster, Subscription
from repro.catalog import Catalog, ServerRole
from repro.catalog.matcher import SubscriptionMatcher, subscribable_shape
from repro.errors import PlanError
from repro.harness.cli import SCENARIOS
from repro.harness.scaleout import ScaleoutSpec, build_scaleout_scenario, schedule_mutations
from repro.namespace import InterestAreaURN
from repro.network import FaultPlan
from repro.network.metrics import NetworkMetrics
from repro.peers import QueryPeer
from repro.peers.parts import Cancellations
from repro.peers.subscriptions import (
    ArmedSubscription,
    PublisherFeed,
    SubscriberState,
    Subscriptions,
    epoch_counter,
)
from repro.peers.transfers import Transfers
from repro.xmlmodel import XMLElement, serialize_xml
from recording_node import RecordingNode, frame
from tests.conftest import make_item

TRANSPORTS = ("sim", "aio")


def portland_area(namespace):
    return namespace.area(["USA/OR/Portland", "Music/CDs"])


def area_urn(area) -> str:
    return str(InterestAreaURN.for_area(area))


def subscription_cluster(transport, namespace, faults=None, reliable=False):
    """Two Portland sellers, an authoritative Oregon index, a meta, a client."""
    cluster = Cluster(transport, namespace=namespace, faults=faults, reliable=reliable)
    portland = portland_area(namespace)
    seller1 = cluster.base_server("seller1:9020", portland)
    seller1.publish(
        "cds",
        [
            make_item("Abbey Road", 8.0, seller="seller1:9020"),
            make_item("Kind of Blue", 12.5, seller="seller1:9020"),
        ],
    )
    seller2 = cluster.base_server("seller2:9020", portland)
    seller2.publish("cds", [make_item("Blue Train", 6.0, seller="seller2:9020")])
    cluster.index_server("index-or:9020", namespace.area(["USA/OR", "*"]))
    cluster.meta_index("meta:9020")
    cluster.client("client:9020")
    cluster.connect()
    return cluster


def audit_exactly_once(state: SubscriberState) -> dict:
    """Assert the released deltas are exactly-once, in order, per feed.

    Within one ``(publisher, epoch)`` feed the released sequence numbers
    must be contiguous with no duplicates; across feeds no
    ``(publisher, epoch, seq)`` triple may repeat.  Returns the map of
    feed → released sequence list for further assertions.
    """
    seen: set[tuple[str, str, int]] = set()
    per_feed: dict[tuple[str, str], list[int]] = {}
    for delta in state.deltas:
        triple = (delta.publisher, delta.epoch, delta.seq)
        assert triple not in seen, f"duplicate delivery: {triple}"
        seen.add(triple)
        per_feed.setdefault((delta.publisher, delta.epoch), []).append(delta.seq)
    for (publisher, epoch), seqs in per_feed.items():
        expected = list(range(seqs[0], seqs[0] + len(seqs)))
        assert seqs == expected, f"feed {publisher}/{epoch}: released {seqs}"
    return per_feed


# --------------------------------------------------------------------------- #
# Shape validation
# --------------------------------------------------------------------------- #


class TestSubscribableShape:
    def test_select_project_over_area_decomposes(self, namespace):
        area = portland_area(namespace)
        plan = (
            PlanBuilder.urn(area_urn(area))
            .select("price < 10")
            .project([("title", "title")])
            .display("client:9020")
        )
        shape = subscribable_shape(plan)
        assert shape.area == area
        assert shape.predicate is not None
        assert shape.columns == (("title", "title"),)
        assert shape.relevant(make_item("Cheap", 5.0))
        assert not shape.relevant(make_item("Dear", 50.0))
        projected = shape.apply([make_item("Cheap", 5.0)])
        assert [item.child_text("title") for item in projected] == ["Cheap"]
        assert projected[0].find("price") is None

    def test_bare_area_is_subscribable(self, namespace):
        area = portland_area(namespace)
        shape = subscribable_shape(PlanBuilder.urn(area_urn(area)).display("c:1"))
        assert shape.predicate is None and shape.columns is None
        assert shape.relevant(make_item("Anything", 999.0))

    def test_stacked_selects_conjoin(self, namespace):
        area = portland_area(namespace)
        plan = (
            PlanBuilder.urn(area_urn(area))
            .select("price < 10")
            .select("price > 6")
            .display("c:1")
        )
        shape = subscribable_shape(plan)
        assert shape.relevant(make_item("Mid", 8.0))
        assert not shape.relevant(make_item("Low", 5.0))

    def test_url_source_rejected(self):
        with pytest.raises(PlanError, match="subscribable"):
            subscribable_shape(PlanBuilder.url("http://host/data.xml").display("c:1"))

    def test_named_resource_urn_rejected(self):
        with pytest.raises(PlanError, match="interest-area"):
            subscribable_shape(PlanBuilder.urn("urn:ForSale:Portland-CDs").display("c:1"))

    def test_aggregate_rejected(self, namespace):
        area = portland_area(namespace)
        with pytest.raises(PlanError, match="subscribable"):
            subscribable_shape(PlanBuilder.urn(area_urn(area)).count().display("c:1"))

    def test_join_rejected(self, namespace):
        area = portland_area(namespace)
        plan = (
            PlanBuilder.urn(area_urn(area))
            .join(PlanBuilder.urn(area_urn(area)), on=("seller", "seller"))
            .display("c:1")
        )
        with pytest.raises(PlanError, match="subscribable"):
            subscribable_shape(plan)


# --------------------------------------------------------------------------- #
# The matcher
# --------------------------------------------------------------------------- #


class TestMatcher:
    def test_arm_match_disarm(self, namespace):
        portland = portland_area(namespace)
        furniture = namespace.area(["USA/WA", "Furniture"])
        matcher = SubscriptionMatcher()
        matcher.arm("sub-cds", subscribable_shape(
            PlanBuilder.urn(area_urn(portland)).display("c:1")))
        matcher.arm("sub-furniture", subscribable_shape(
            PlanBuilder.urn(area_urn(furniture)).display("c:1")))
        assert len(matcher) == 2 and "sub-cds" in matcher

        assert [sub for sub, _ in matcher.matching(portland)] == ["sub-cds"]
        assert [sub for sub, _ in matcher.matching(furniture)] == ["sub-furniture"]
        # A broader mutation area overlaps both registrations, id-ordered.
        oregon_and_wa = namespace.area(["USA", "*"])
        assert [sub for sub, _ in matcher.matching(oregon_and_wa)] == [
            "sub-cds",
            "sub-furniture",
        ]

        assert matcher.disarm("sub-cds") is True
        assert matcher.disarm("sub-cds") is False
        assert matcher.matching(portland) == []
        assert len(matcher) == 1

    def test_rearming_replaces(self, namespace):
        portland = portland_area(namespace)
        furniture = namespace.area(["USA/WA", "Furniture"])
        matcher = SubscriptionMatcher()
        matcher.arm("sub", subscribable_shape(
            PlanBuilder.urn(area_urn(portland)).display("c:1")))
        matcher.arm("sub", subscribable_shape(
            PlanBuilder.urn(area_urn(furniture)).display("c:1")))
        assert len(matcher) == 1
        assert matcher.matching(portland) == []
        assert [sub for sub, _ in matcher.matching(furniture)] == ["sub"]


# --------------------------------------------------------------------------- #
# Standing queries are always available
# --------------------------------------------------------------------------- #


class TestAlwaysAvailable:
    def test_subscribe_delivers_a_delta_on_a_fresh_cluster(self, namespace):
        """``Session.subscribe`` works on a plain ``Cluster``: nothing to switch on."""
        with subscription_cluster("sim", namespace) as cluster:
            client = cluster.session("client:9020")
            sub = client.subscribe(client.query().area(portland_area(namespace)))
            cluster.run_until_idle()
            cluster.session("seller1:9020").update(
                "cds", [make_item("New CD", 3.0, seller="seller1:9020")]
            )
            (delta,) = sub.deltas(timeout=5_000)
            assert delta.kind == "insert"
            assert [item.child_text("title") for item in delta.items] == ["New CD"]


# --------------------------------------------------------------------------- #
# Delta feeds end-to-end (both transports)
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("transport", TRANSPORTS)
class TestDeltaFeed:
    def test_mutations_classify_through_the_predicate(self, transport, namespace):
        with subscription_cluster(transport, namespace) as cluster:
            client = cluster.session("client:9020")
            seller1 = cluster.session("seller1:9020")
            seller2 = cluster.session("seller2:9020")
            sub = (
                client.query()
                .area(portland_area(namespace))
                .where("price < 10")
                .subscribe()
            )
            cluster.run_until_idle()
            assert sub.active

            # Insert below the predicate: an insert delta.
            seller1.update("cds", [make_item("New CD", 3.0, seller="seller1:9020")])
            # In-place change, still matching: an update delta.
            seller1.update("cds", [make_item("New CD", 4.0, seller="seller1:9020")])
            # Price crosses the boundary: *this* subscriber sees a retract.
            seller1.update("cds", [make_item("New CD", 30.0, seller="seller1:9020")])
            # A retract at the other seller: a retract delta from there.
            removed = seller2.retract("cds", predicate="price < 10")
            assert [item.child_text("title") for item in removed] == ["Blue Train"]
            cluster.run_until_idle()

            state = client.peer.my_subscriptions[sub.sub_id]
            assert [
                (d.kind, d.publisher, [i.child_text("title") for i in d.items])
                for d in state.deltas
            ] == [
                ("insert", "seller1:9020", ["New CD"]),
                ("update", "seller1:9020", ["New CD"]),
                ("retract", "seller1:9020", ["New CD"]),
                ("retract", "seller2:9020", ["Blue Train"]),
            ]
            audit_exactly_once(state)
            assert sub.lag() == len(state.deltas)
            assert [d.kind for d in sub.deltas(limit=4)] == [
                "insert", "update", "retract", "retract",
            ]
            assert sub.lag() == 0

    def test_projection_applies_at_the_publisher(self, transport, namespace):
        with subscription_cluster(transport, namespace) as cluster:
            client = cluster.session("client:9020")
            seller1 = cluster.session("seller1:9020")
            sub = (
                client.query()
                .area(portland_area(namespace))
                .where("price < 10")
                .project([("title", "title")])
                .subscribe()
            )
            cluster.run_until_idle()
            seller1.update("cds", [make_item("Slim CD", 2.0, seller="seller1:9020")])
            cluster.run_until_idle()
            (delta,) = list(sub.deltas(limit=1))
            (item,) = delta.items
            assert item.child_text("title") == "Slim CD"
            assert item.find("price") is None

    def test_acks_trim_the_replay_log(self, transport, namespace):
        with subscription_cluster(transport, namespace, reliable=True) as cluster:
            client = cluster.session("client:9020")
            seller1 = cluster.session("seller1:9020")
            sub = (
                client.query()
                .area(portland_area(namespace))
                .where("price < 10")
                .subscribe()
            )
            cluster.run_until_idle()
            for round_ in range(3):
                seller1.update(
                    "cds",
                    [make_item(f"CD {round_}", 1.0 + round_, seller="seller1:9020")],
                )
            cluster.run_until_idle()
            armed = seller1.peer.subscriptions.armed[sub.sub_id]
            assert armed.next_seq == 3
            assert armed.acked_seq == 2
            assert armed.log == {}
            assert seller1.peer.transfers.pending == {}


class TestInOrderRelease:
    """Frame-level behaviour of the subscriber's release path."""

    def _subscriber(self, namespace):
        """The subscriber side alone: a recording node, no network."""
        node = RecordingNode("client:9020")
        client = Subscriptions(node, Transfers(node), Cancellations(), Catalog(node.address))
        plan = PlanBuilder.urn(area_urn(portland_area(namespace))).display("client:9020")
        state = SubscriberState(sub_id="client:9020#subX", document=serialize_plan(plan))
        client.mine[state.sub_id] = state
        return client, state

    def _envelope(self, sub_id: str, publisher: str, epoch: str, seq: int, title: str):
        document = serialize_xml(XMLElement(
            "delta",
            {"sub": sub_id, "kind": "insert", "seq": str(seq)},
            [make_item(title, 5.0)],
        ))
        return {
            "document": document,
            "sub": sub_id,
            "publisher": publisher,
            "epoch": epoch,
            "seq": seq,
            "kind": "insert",
        }

    def test_out_of_order_frames_release_in_sequence(self, namespace):
        client, state = self._subscriber(namespace)
        epoch = "seller1:9020/e1"
        late = self._envelope(state.sub_id, "seller1:9020", epoch, 1, "Second")
        early = self._envelope(state.sub_id, "seller1:9020", epoch, 0, "First")
        client.on_delta_chunk(frame("delta-chunk", late, sender="seller1:9020"))
        assert state.deltas == []  # held until the gap fills
        client.on_delta_chunk(frame("delta-chunk", early, sender="seller1:9020"))
        assert [d.seq for d in state.deltas] == [0, 1]
        assert [d.items[0].child_text("title") for d in state.deltas] == ["First", "Second"]
        # Acknowledged cumulatively: nothing while the gap was open, then both.
        assert [m.payload["seq"] for m in client.port.sent if m.kind == "delta-ack"] == [-1, 1]
        audit_exactly_once(state)

    def test_duplicate_frames_are_suppressed_and_reacked(self, namespace):
        client, state = self._subscriber(namespace)
        once = self._envelope(state.sub_id, "seller1:9020", "seller1:9020/e1", 0, "Once")
        client.on_delta_chunk(frame("delta-chunk", once, sender="seller1:9020"))
        client.on_delta_chunk(frame("delta-chunk", dict(once), sender="seller1:9020"))
        assert len(state.deltas) == 1
        assert client.delta_duplicates == 1
        assert client.port.kinds() == ["delta-ack", "delta-ack"]  # re-acked, not re-released
        audit_exactly_once(state)

    def test_stale_epoch_frames_are_dropped(self, namespace):
        client, state = self._subscriber(namespace)
        state.feeds["seller1:9020"] = PublisherFeed(epoch="seller1:9020/e2")
        stale = self._envelope(state.sub_id, "seller1:9020", "seller1:9020/e1", 0, "Stale")
        client.on_delta_chunk(frame("delta-chunk", stale, sender="seller1:9020"))
        assert state.deltas == [] and not client.port.sent
        assert state.feeds["seller1:9020"].epoch == "seller1:9020/e2"

    def test_a_newer_epoch_resets_the_feed(self, namespace):
        """A publisher that re-armed starts again at 0 under a fresh epoch."""
        client, state = self._subscriber(namespace)
        for epoch, title in (("seller1:9020/e1", "Before"), ("seller1:9020/e2", "After")):
            envelope = self._envelope(state.sub_id, "seller1:9020", epoch, 0, title)
            client.on_delta_chunk(frame("delta-chunk", envelope, sender="seller1:9020"))
        assert [(d.epoch, d.seq) for d in state.deltas] == [
            ("seller1:9020/e1", 0), ("seller1:9020/e2", 0),
        ]
        assert client.delta_duplicates == 0 and state.feeds["seller1:9020"].next_seq == 1

    def test_straggler_feed_triggers_one_unsubscribe(self, namespace):
        with subscription_cluster("sim", namespace) as cluster:
            client = cluster.session("client:9020")
            seller1 = cluster.session("seller1:9020")
            sub = (
                client.query()
                .area(portland_area(namespace))
                .where("price < 10")
                .subscribe()
            )
            cluster.run_until_idle()
            assert sub.sub_id in seller1.peer.subscriptions.armed
            # The subscriber loses its state without telling anyone —
            # the amnesiac-rejoin case a graceful unsubscribe never covers.
            del client.peer.my_subscriptions[sub.sub_id]
            seller1.update("cds", [make_item("Orphan", 1.0, seller="seller1:9020")])
            cluster.run_until_idle()
            # The straggler delta bounced back as a one-shot unsubscribe
            # and the publisher tore the feed down.
            assert sub.sub_id not in seller1.peer.subscriptions.armed
            assert not client.peer.cancelled_queries.first_notice(sub.sub_id, "seller1:9020")
            assert client.peer.subscriptions.deltas_delivered == 0


class RecordingPeer(RecordingNode, QueryPeer):
    """A whole peer — ``handle_message`` included — whose port records and
    whose fabric is reliable."""

    def __init__(self, address, namespace):
        QueryPeer.__init__(self, address, namespace)
        self.clock, self.sent, self.timers = 0.0, [], []
        self.reliable, self.ledger = True, NetworkMetrics()

    def take_sent(self, kind):
        """The one frame of ``kind`` sent since the last call, as it arrives."""
        (message,) = [m for m in self.sent if m.kind == kind]
        self.sent.clear()
        return message


class TestOneAcknowledgementPerDelta:
    """The ``delivery-ack`` of a ``delta-chunk`` carries the feed's position."""

    def _pair(self, namespace):
        publisher = RecordingPeer("seller1:9020", namespace)
        publisher.publish_collection("cds", [], portland_area(namespace))
        client = RecordingPeer("client:9020", namespace)
        plan = PlanBuilder.urn(area_urn(portland_area(namespace))).display(client.address)
        state = SubscriberState(sub_id="client:9020#sub1", document=serialize_plan(plan))
        client.subscriptions.mine[state.sub_id] = state
        publisher.handle_message(frame("subscribe", {
            "document": state.document, "sub": state.sub_id, "subscriber": client.address,
            "authority": "index-or:9020", "resume": {}, "hops": 1,
        }, sender="index-or:9020"))
        return publisher, client, state

    def test_a_retransmitted_delta_reacknowledges_its_feed(self, namespace):
        publisher, client, state = self._pair(namespace)
        publisher.update_collection("cds", [make_item("Only", 5.0)])
        armed = publisher.subscriptions.armed[state.sub_id]
        chunk = publisher.take_sent("delta-chunk")
        client.handle_message(chunk)
        lost = client.take_sent("delivery-ack")  # ... and never arrives
        assert lost.payload == (chunk.transfer, state.sub_id, 0) and lost.size_bytes == 48
        publisher.fire()  # the retransmission timer
        again = publisher.take_sent("delta-chunk")
        assert (again.transfer, again.attempt) == (chunk.transfer, 1)
        client.handle_message(again)
        second = client.take_sent("delivery-ack")  # no delta-ack beside it
        assert second.payload == lost.payload  # the same position, said again
        assert [d.seq for d in state.deltas] == [0]  # nothing released twice
        assert client.subscriptions.deltas_delivered == 1
        assert client.transfers.acks_sent == 2 and client.transfers.duplicates_dropped == 1
        assert sorted(armed.log) == [0]
        publisher.handle_message(second)
        assert armed.log == {} and armed.acked_seq == 0
        assert publisher.transfers.pending == {}

    def test_a_chunk_for_a_dead_subscription_gets_a_bare_ack(self, namespace):
        publisher, client, state = self._pair(namespace)
        publisher.update_collection("cds", [make_item("Orphan", 5.0)])
        chunk = publisher.take_sent("delta-chunk")
        del client.subscriptions.mine[state.sub_id]
        client.handle_message(chunk)
        assert [(m.kind, m.payload) for m in client.sent] == [
            ("unsubscribe", {"sub": state.sub_id, "hops": 0}),
            ("delivery-ack", chunk.transfer),
        ]
        client.sent.clear()
        client.handle_message(dataclasses.replace(chunk, attempt=1))  # told once
        assert [(m.kind, m.payload) for m in client.sent] == [("delivery-ack", chunk.transfer)]

    def test_a_stale_epoch_is_acknowledged_without_a_position(self, namespace):
        publisher, client, state = self._pair(namespace)
        publisher.update_collection("cds", [make_item("Stale", 5.0)])
        chunk = publisher.take_sent("delta-chunk")
        state.feeds[publisher.address] = PublisherFeed(epoch="seller1:9020/e9")
        client.handle_message(chunk)
        assert client.take_sent("delivery-ack").payload == chunk.transfer
        assert state.deltas == []

    def test_every_other_kind_is_acknowledged_before_it_is_handled(self, namespace):
        _, client, state = self._pair(namespace)
        client.handle_message(frame(
            "sub-conflict", {"sub": state.sub_id}, sender="seller1:9020", transfer="t#1",
        ))
        assert client.kinds() == ["delivery-ack"] and state.conflicts
        index = RecordingPeer("index-or:9020", namespace)
        index.roles.add(ServerRole.INDEX)
        seller = RecordingPeer("seller1:9020", namespace)
        index.handle_message(frame(
            "register", seller.registration(), sender=seller.address, transfer="t#2",
        ))
        assert index.kinds()[:2] == ["delivery-ack", "register-ack"]


@pytest.mark.parametrize("transport", TRANSPORTS)
class TestFeedUnderAckLoss:
    """``subscription-feed`` at tier-1 size: whatever the links lose, a
    reliable feed ends delivered, trimmed and quiet."""

    def _run(self, transport, loss, reliable=True):
        spec = dataclasses.replace(
            SCENARIOS["subscription-feed"], name="feed", peers=30, subscribers=8,
            mutation_rounds=3, churn="none", fault_loss=loss, reliable=reliable,
        )
        scenario = build_scaleout_scenario(spec, transport=transport)
        with scenario.cluster as cluster:
            cluster.run_until_idle()
            before = cluster.metrics.messages_sent
            schedule_mutations(scenario)
            cluster.run_until_idle()
            peers = list(cluster.peers())
            kinds = dict(cluster.metrics.messages_by_kind)
            return peers, kinds, cluster.metrics.messages_sent - before

    @pytest.mark.parametrize("loss", [0.0, 0.1, 0.3])
    def test_reliable_feed_is_exactly_once_trimmed_and_quiet(self, transport, loss):
        peers, kinds, frames = self._run(transport, loss)
        published = sum(peer.subscriptions.deltas_published for peer in peers)
        released = 0
        for peer in peers:
            assert peer.subscriptions.delta_gaps == 0
            assert peer.transfers.pending == {}, peer.address
            assert peer.transfers.transfers_failed == 0
            for armed in peer.subscriptions.armed.values():
                assert armed.log == {} and armed.acked_seq == armed.next_seq - 1, peer.address
            for state in peer.my_subscriptions.values():
                for seqs in audit_exactly_once(state).values():
                    assert seqs[0] == 0  # from the start, in ``seq`` order
                released += len(state.deltas)
        assert released == published > 0
        assert "delta-ack" not in kinds  # the position rode the delivery-ack
        if loss == 0.0:
            # Two frames a delta: the chunk and its one acknowledgement.
            assert kinds["delta-chunk"] == published and frames == 2 * published

    def test_fire_and_forget_feed_still_acknowledges_and_trims(self, transport):
        peers, kinds, frames = self._run(transport, 0.0, reliable=False)
        published = sum(peer.subscriptions.deltas_published for peer in peers)
        assert kinds["delta-ack"] == kinds["delta-chunk"] == published > 0
        assert "delivery-ack" not in kinds and frames == 2 * published
        for peer in peers:
            for armed in peer.subscriptions.armed.values():
                assert armed.log == {}


class TestPublisherAndAuthorityWithoutANetwork:
    """The publisher's replay log and the authority's registry, on a recording node."""

    def _side(self, namespace, roles, address="seller1:9020"):
        node = RecordingNode(address)
        areas = {"/cds": portland_area(namespace)} if ServerRole.BASE in roles else {}
        return Subscriptions(
            node, Transfers(node), Cancellations(), Catalog(address), roles,
            collection_areas=areas,
        )

    def _subscribe(self, namespace, sub_id="client:9020#sub1", resume=None, hops=1):
        plan = PlanBuilder.urn(area_urn(portland_area(namespace))).display("client:9020")
        envelope = {
            "document": serialize_plan(plan), "sub": sub_id, "subscriber": "client:9020",
            "authority": "index-or:9020", "resume": resume or {}, "hops": hops,
        }
        return frame("subscribe", envelope, sender="index-or:9020")

    def _deltas(self, side):
        return [m.payload for m in side.port.sent if m.kind == "delta-chunk"]

    def test_a_resume_token_replays_only_what_the_subscriber_missed(self, namespace):
        publisher = self._side(namespace, {ServerRole.BASE})
        publisher.on_subscribe(self._subscribe(namespace))
        for n in range(3):
            publisher.mutated("/cds", [(None, make_item(f"cd-{n}", 5.0))])
        epoch = publisher.armed["client:9020#sub1"].epoch
        assert [(d["epoch"], d["seq"]) for d in self._deltas(publisher)] == [
            (epoch, 0), (epoch, 1), (epoch, 2),
        ]
        publisher.pause("client:9020#sub1")  # the subscriber went away ...
        publisher.mutated("/cds", [(None, make_item("while-away", 5.0))])
        assert len(self._deltas(publisher)) == 3  # ... logged, not sent
        publisher.port.sent.clear()
        resume = {"seller1:9020": [epoch, 1]}  # ... and comes back having released 0 and 1
        publisher.on_subscribe(self._subscribe(namespace, resume=resume))
        assert [d["seq"] for d in self._deltas(publisher)] == [2, 3]
        assert publisher.delta_gaps == 0 and publisher.armed["client:9020#sub1"].epoch == epoch

    def test_a_hole_in_the_bounded_replay_log_starts_a_fresh_epoch(self, namespace, monkeypatch):
        monkeypatch.setattr(Subscriptions, "DELTA_LOG_MEMORY", 2)
        publisher = self._side(namespace, {ServerRole.BASE})
        publisher.on_subscribe(self._subscribe(namespace))
        for n in range(4):  # none acknowledged: the log keeps only the last two
            publisher.mutated("/cds", [(None, make_item(f"cd-{n}", 5.0))])
        armed = publisher.armed["client:9020#sub1"]
        assert sorted(armed.log) == [2, 3] and armed.epoch == "seller1:9020/e1"
        publisher.port.sent.clear()
        publisher.on_subscribe(self._subscribe(namespace))  # re-armed with nothing to resume
        assert publisher.delta_gaps == 1 and self._deltas(publisher) == []
        assert (armed.epoch, armed.next_seq, armed.log) == ("seller1:9020/e2", 0, {})

    def test_a_cumulative_ack_trims_the_log_and_an_old_one_is_ignored(self, namespace):
        publisher = self._side(namespace, {ServerRole.BASE})
        publisher.on_subscribe(self._subscribe(namespace))
        for n in range(3):
            publisher.mutated("/cds", [(None, make_item(f"cd-{n}", 5.0))])
        armed: ArmedSubscription = publisher.armed["client:9020#sub1"]
        publisher.on_delta_ack(frame("delta-ack", {"sub": armed.sub_id, "seq": 1}))
        publisher.on_delta_ack(frame("delta-ack", {"sub": armed.sub_id, "seq": 0}))
        publisher.on_delta_ack(frame("delta-ack", {"sub": "nobody#sub9", "seq": 7}))
        assert armed.acked_seq == 1 and sorted(armed.log) == [2]

    def test_the_authoritys_registry_is_bounded_and_hop_limited(self, namespace, monkeypatch):
        monkeypatch.setattr(Subscriptions, "SUBSCRIPTION_MEMORY", 2)
        authority = self._side(namespace, {ServerRole.INDEX}, address="index-or:9020")
        for n in range(3):
            authority.on_subscribe(self._subscribe(namespace, sub_id=f"client:9020#sub{n}"))
        assert list(authority.registry) == ["client:9020#sub1", "client:9020#sub2"]
        tired = self._subscribe(namespace, sub_id="client:9020#sub9",
                                hops=Subscriptions.MAX_SUBSCRIBE_HOPS)
        authority.on_subscribe(tired)
        assert "client:9020#sub9" not in authority.registry
        assert not authority.armed  # an index holds no data: nothing to arm


# --------------------------------------------------------------------------- #
# Teardown (unsubscribe / close) across every hop
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("transport", TRANSPORTS)
class TestTeardownOnBothTransports:
    def test_unsubscribe_clears_every_hop(self, transport, namespace):
        with subscription_cluster(transport, namespace, reliable=True) as cluster:
            client = cluster.session("client:9020")
            sub = (
                client.query()
                .area(portland_area(namespace))
                .where("price < 10")
                .subscribe()
            )
            cluster.run_until_idle()
            for seller in ("seller1:9020", "seller2:9020"):
                assert sub.sub_id in cluster.session(seller).peer.subscriptions.armed
            for authority in ("index-or:9020", "meta:9020"):
                registry = cluster.session(authority).peer.subscriptions.registry
                assert sub.sub_id in registry

            sub.unsubscribe()
            cluster.run_until_idle()

            assert not sub.active
            assert client.peer.my_subscriptions == {}
            for address in (
                "seller1:9020", "seller2:9020", "index-or:9020", "meta:9020",
            ):
                peer = cluster.session(address).peer
                assert peer.subscriptions.armed == {}, address
                assert peer.subscriptions.registry == {}, address
                assert len(peer.subscriptions.matcher) == 0, address
                assert peer.transfers.pending == {}, address


class TestTeardownTimers:
    def test_unsubscribe_cancels_pending_retransmissions(self, namespace):
        with subscription_cluster("sim", namespace, reliable=True) as cluster:
            client = cluster.session("client:9020")
            seller1 = cluster.session("seller1:9020")
            sub = (
                client.query()
                .area(portland_area(namespace))
                .where("price < 10")
                .subscribe()
            )
            cluster.run_until_idle()

            # Crash the subscriber, then mutate: the delta transfer sits
            # in the retransmit queue with a live backoff timer.
            client.crash()
            seller1.update("cds", [make_item("Doomed", 1.0, seller="seller1:9020")])
            timers = [
                state.timer for state in seller1.peer.transfers.pending.values()
                if state.key == sub.sub_id
            ]
            assert timers, "the delta transfer should be awaiting its ack, timer armed"
            dead_letters_before = len(seller1.peer.dead_letters)

            # An unsubscribe notice arriving at the publisher sweeps the
            # queue and cancels every timer for that subscription.
            seller1.peer.handle_message(
                frame("unsubscribe", {"sub": sub.sub_id, "hops": 0}, sender="elsewhere:9020")
            )
            assert seller1.peer.transfers.pending == {}
            assert all(timer.cancelled for timer in timers)
            assert sub.sub_id not in seller1.peer.subscriptions.armed

            # And with no timer left to fire, no retry burns out into a
            # dead letter afterwards.
            cluster.run_until_idle()
            assert len(seller1.peer.dead_letters) == dead_letters_before
            assert seller1.peer.transfers.transfers_failed == 0

    def test_unsubscribe_is_idempotent(self, namespace):
        with subscription_cluster("sim", namespace) as cluster:
            client = cluster.session("client:9020")
            sub = client.query().area(portland_area(namespace)).subscribe()
            cluster.run_until_idle()
            sub.unsubscribe()
            sub.unsubscribe()  # a second teardown is a no-op
            with sub:  # context exit after manual teardown: still a no-op
                pass
            cluster.run_until_idle()
            assert not sub.active
            assert client.peer.my_subscriptions == {}


# --------------------------------------------------------------------------- #
# Churn: resume, failover, conflicting authorities, flash crowd
# --------------------------------------------------------------------------- #


class TestChurn:
    def test_subscriber_crash_and_rejoin_resumes_from_acked(self, namespace):
        with subscription_cluster("sim", namespace, reliable=True) as cluster:
            client = cluster.session("client:9020")
            seller1 = cluster.session("seller1:9020")
            sub = (
                client.query()
                .area(portland_area(namespace))
                .where("price < 10")
                .subscribe()
            )
            cluster.run_until_idle()
            seller1.update("cds", [make_item("CD 0", 1.0, seller="seller1:9020")])
            cluster.run_until_idle()
            assert len(client.peer.my_subscriptions[sub.sub_id].deltas) == 1

            # The subscriber crashes; the publisher's delivery fails and
            # the feed pauses, logging deltas it cannot transmit.
            client.crash()
            seller1.update("cds", [make_item("CD 1", 2.0, seller="seller1:9020")])
            cluster.run_until_idle()
            armed = seller1.peer.subscriptions.armed[sub.sub_id]
            assert armed.paused
            seller1.update("cds", [make_item("CD 2", 3.0, seller="seller1:9020")])
            assert set(armed.log) == {1, 2}

            # Rejoining re-subscribes with resume tokens: the publisher
            # replays exactly the unseen suffix — no gaps, no duplicates.
            client.rejoin()
            cluster.run_until_idle()
            state = client.peer.my_subscriptions[sub.sub_id]
            assert [d.items[0].child_text("title") for d in state.deltas] == [
                "CD 0", "CD 1", "CD 2",
            ]
            per_feed = audit_exactly_once(state)
            (seqs,) = per_feed.values()  # one publisher, one epoch throughout
            assert seqs == [0, 1, 2]
            assert client.peer.subscriptions.resubscribes >= 1
            assert client.peer.subscriptions.delta_duplicates == 0
            assert client.peer.subscriptions.delta_gaps == 0
            assert not seller1.peer.subscriptions.armed[sub.sub_id].paused

    def test_authority_failover_rearms_publishers_fresh_epoch(self, namespace):
        with subscription_cluster("sim", namespace, reliable=True) as cluster:
            client = cluster.session("client:9020")
            seller1 = cluster.session("seller1:9020")
            index = cluster.session("index-or:9020")
            sub = (
                client.query()
                .area(portland_area(namespace))
                .where("price < 10")
                .subscribe()
            )
            cluster.run_until_idle()
            seller1.update("cds", [make_item("Early CD", 1.0, seller="seller1:9020")])
            cluster.run_until_idle()

            # The authority and the publisher both crash: the armed
            # matcher state is in-RAM and dies with the publisher; the
            # authority's subscription registry is its durable store.
            index.crash()
            seller1.crash()
            index.rejoin()
            seller1.rejoin()
            cluster.run_until_idle()

            # Re-registration re-armed the publisher from the registry,
            # under a fresh epoch (its in-RAM feed state is gone).
            armed = seller1.peer.subscriptions.armed[sub.sub_id]
            assert armed.authority == "index-or:9020"
            assert epoch_counter(armed.epoch) > 1

            seller1.update("cds", [make_item("Late CD", 2.0, seller="seller1:9020")])
            cluster.run_until_idle()
            state = client.peer.my_subscriptions[sub.sub_id]
            titles = [d.items[0].child_text("title") for d in state.deltas]
            assert titles == ["Early CD", "Late CD"]
            per_feed = audit_exactly_once(state)
            epochs = sorted(epoch_counter(epoch) for _, epoch in per_feed)
            assert len(epochs) == 2 and epochs[0] < epochs[1]
            # The subscriber never churned: the re-arm came from the
            # authority's registry, not from a client re-subscription.
            assert client.peer.subscriptions.resubscribes == 0

    def test_conflicting_authorities_surface_not_double_deliver(self, namespace):
        portland = portland_area(namespace)
        oregon = namespace.area(["USA/OR", "*"])
        with Cluster("sim", namespace=namespace, reliable=True) as cluster:
            seller1 = cluster.base_server("seller1:9020", portland)
            seller1.publish(
                "cds", [make_item("Abbey Road", 8.0, seller="seller1:9020")]
            )
            # Two index servers both claim authority over Oregon — the
            # MOAS analogue of two ASes originating one prefix.
            cluster.index_server("index-a:9020", oregon, authoritative=True)
            cluster.index_server("index-b:9020", oregon, authoritative=True)
            cluster.meta_index("meta:9020")
            client = cluster.client("client:9020")
            cluster.connect()
            # Make sure the seller is catalogued under *both* claimants.
            seller1.register("index-a:9020", "index-b:9020")
            cluster.run_until_idle()

            sub = client.query().area(portland).where("price < 10").subscribe()
            cluster.run_until_idle()

            # One authority won the arming; the other's claim was
            # surfaced to the subscriber instead of arming twice.
            armed = seller1.peer.subscriptions.armed[sub.sub_id]
            assert armed.authority in ("index-a:9020", "index-b:9020")
            assert seller1.peer.subscriptions.authority_conflicts >= 1
            conflicts = sub.conflicts()
            assert conflicts, "the authority overlap should reach the subscriber"
            assert conflicts[0]["publisher"] == "seller1:9020"
            assert conflicts[0]["authorities"] == ["index-a:9020", "index-b:9020"]

            # And crucially: one mutation, one delta — never two.
            seller1.update("cds", [make_item("New CD", 3.0, seller="seller1:9020")])
            cluster.run_until_idle()
            state = client.peer.my_subscriptions[sub.sub_id]
            assert [d.items[0].child_text("title") for d in state.deltas] == ["New CD"]
            audit_exactly_once(state)

    def test_flash_crowd_exactly_once_under_loss(self, namespace):
        portland = portland_area(namespace)
        subscribers = [f"c{i:03d}:9020" for i in range(100)]
        with Cluster(
            "sim", namespace=namespace, faults=FaultPlan(seed=11, loss=0.10), reliable=True
        ) as cluster:
            seller = cluster.base_server("seller:9020", portland)
            seller.publish(
                "cds", [make_item("Abbey Road", 8.0, seller="seller:9020")]
            )
            cluster.index_server("index-or:9020", namespace.area(["USA/OR", "*"]))
            cluster.meta_index("meta:9020")
            for address in subscribers:
                cluster.client(address)
            cluster.connect()

            subs = {
                address: cluster.session(address)
                .query()
                .area(portland)
                .where("price < 100")
                .subscribe()
                for address in subscribers
            }
            cluster.run_until_idle()
            assert len(seller.peer.subscriptions.armed) == len(subscribers)

            # Three mutation rounds on the one hot collection.
            seller.update("cds", [make_item("Flash CD", 3.0, seller="seller:9020")])
            cluster.run_until_idle()
            seller.update("cds", [make_item("Flash CD", 4.0, seller="seller:9020")])
            cluster.run_until_idle()
            removed = seller.retract("cds", keys=["seller:9020-Flash CD"])
            assert len(removed) == 1
            cluster.run_until_idle()

            # Every subscriber saw every delta exactly once, in order,
            # despite 10% seeded frame loss on every link.
            for address in subscribers:
                peer = cluster.session(address).peer
                state = peer.my_subscriptions[subs[address].sub_id]
                assert [d.kind for d in state.deltas] == [
                    "insert", "update", "retract",
                ], address
                per_feed = audit_exactly_once(state)
                (seqs,) = per_feed.values()
                assert seqs == [0, 1, 2], address
                assert peer.subscriptions.delta_gaps == 0, address


class TestDeltasBeatPolling:
    def test_a_change_arrives_as_a_delta_five_times_sooner_than_a_poller_sees_it(self):
        """One subscriber among 200 peers: each mutation round reaches it as a
        delta, >= 5x sooner than a poller at the harness's query cadence
        would hold the change (half the interval stale, plus the snapshot
        re-query's round trip)."""
        spec = ScaleoutSpec(name="sub-latency", topology="small-world", peers=200,
                            workload="garage-sale", churn="none", queries=4,
                            subscribers=1, reliable=True)
        rounds = 3
        scenario = build_scaleout_scenario(spec)
        with scenario.cluster as cluster:
            session = cluster.session(scenario.subscriber_addresses[0])
            sub_id = scenario.subscription_ids[0]
            items = {peer.address: peer.items for peer in scenario.data_peers}
            publishers = [address for address in scenario.hot_publishers if items[address]]
            assert publishers, "no data peer overlaps the subscribed area"
            delta_ms = []
            for _ in range(rounds):
                seen = len(session.peer.subscription_state(sub_id).deltas)
                published_at = cluster.now
                for address in publishers:
                    cluster.session(address).update("items", [items[address][0].copy()])
                cluster.run_until_idle()
                deltas = session.peer.subscription_state(sub_id).deltas
                assert len(deltas) > seen, "mutation produced no delta"
                delta_ms.append(deltas[-1].received_at - published_at)
            subscription = Subscription(session, sub_id)
            snapshot_ms = []
            for _ in range(rounds):
                issued_at = cluster.now
                assert subscription.snapshot().count > 0
                snapshot_ms.append(cluster.now - issued_at)
        poll_ms = spec.query_interval_ms / 2.0 + sum(snapshot_ms) / rounds
        assert poll_ms / (sum(delta_ms) / rounds) >= 5.0
