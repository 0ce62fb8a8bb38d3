"""Continuous queries: publish-time matching, delta feeds, teardown, churn.

The suite covers the full standing-query protocol end-to-end:

* shape validation and the trie matcher (unit level);
* ``Session.subscribe`` on a fresh cluster, nothing switched on;
* delta feeds on both transports — insert/update/retract classification
  through each subscription's own predicate, projection applied at the
  publisher, in-order release, duplicate suppression;
* the delta document — written once per changed item, byte for byte the
  serialized ``<delta>`` tree; counted on arrival and parsed when read;
  an unreadable chunk refused, not raised;
* teardown — ``unsubscribe`` clears armed matchers, authority registries
  and pending retransmission timers at every hop;
* the subscriber's handle — ``delivered``/``lag``/``deltas(limit=)``,
  ``snapshot``, use as a context manager, and a subscriber that leaves and
  is replayed what it missed on rejoin;
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
import random

import pytest

import repro.peers.gather as gather_module
import repro.peers.subscriptions as subscriptions_module
from repro.algebra import PlanBuilder
from repro.algebra.serialization import serialize_plan
from repro.api import Cluster, Subscription
from repro.catalog import Catalog, ServerRole
from repro.catalog.matcher import SubscriptionMatcher, subscribable_shape
from repro.errors import APIError, PeerError, PeerOffline, PlanError
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
from repro.xmlmodel import XMLElement, element, serialize_xml, text_element, utf8_len
from oracles.matcher_scan import scan_matching
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


def feed_plan(namespace, projected: bool = False):
    builder = PlanBuilder.urn(area_urn(portland_area(namespace))).select("price < 10")
    if projected:
        builder = builder.project([("title", "title")])
    return builder.display("client:9020")


def armed_publisher(namespace, plans: dict) -> Subscriptions:
    """A publisher of ``/cds`` in Portland on a recording node, armed for each
    ``sub id -> plan`` with ``client:9020`` as the subscriber."""
    node = RecordingNode("seller1:9020")
    publisher = Subscriptions(
        node, Transfers(node), Cancellations(), Catalog(node.address), {ServerRole.BASE},
        collection_areas={"/cds": portland_area(namespace)},
    )
    for sub_id, plan in plans.items():
        publisher.on_subscribe(frame("subscribe", {
            "document": serialize_plan(plan), "sub": sub_id, "subscriber": "client:9020",
            "authority": "index-or:9020", "resume": {}, "hops": 1,
        }, sender="index-or:9020"))
    return publisher


def subscriber_side(sub_id: str = "client:9020#sub1"):
    """The subscribing side alone, holding one subscription: no network."""
    node = RecordingNode("client:9020")
    client = Subscriptions(node, Transfers(node), Cancellations(), Catalog(node.address))
    state = SubscriberState(sub_id=sub_id, document="")
    client.mine[sub_id] = state
    return client, state


def escaped_item(title: str, price: float) -> XMLElement:
    """An item whose text and attribute need escaping, and are not all ASCII."""
    return element(
        "item",
        {"id": f"seller1:9020-{title}", "note": "a & b < \"c\" > 'd' é"},
        text_element("title", title),
        text_element("price", price),
    )


def chunks(publisher: Subscriptions) -> list[dict]:
    return [m.payload for m in publisher.port.sent if m.kind == "delta-chunk"]


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


def _random_area(namespace, rng):
    """One or two cells; a coordinate is often the top or one below it, so
    areas nest and overlap as well as miss."""

    def coordinate(dimension):
        categories = dimension.categories()
        if rng.random() < 0.4:
            categories = [category for category in categories if category.depth <= 1]
        return rng.choice(categories)

    return namespace.area(*(
        [coordinate(dimension) for dimension in namespace.dimensions]
        for _ in range(rng.choice([1, 1, 2]))
    ))


class TestMatcherEquivalence:
    """The matcher's area index vs. the linear scan of ``tests/oracles/matcher_scan.py``."""

    @pytest.mark.parametrize("seed", range(10))
    def test_arm_disarm_and_rearm_match_the_scan(self, namespace, seed):
        rng = random.Random(seed)
        matcher = SubscriptionMatcher()
        armed = {}
        for _ in range(150):
            sub_id = f"sub-{rng.randrange(12)}"
            move = rng.random()
            if move < 0.5:  # arm, or re-arm over a different area
                shape = subscribable_shape(
                    PlanBuilder.urn(area_urn(_random_area(namespace, rng))).display("c:1")
                )
                matcher.arm(sub_id, shape)
                armed[sub_id] = shape
            elif move < 0.75:
                assert matcher.disarm(sub_id) is (armed.pop(sub_id, None) is not None)
            area = _random_area(namespace, rng)
            assert matcher.matching(area) == scan_matching(armed, area)
        assert len(matcher) == len(armed)


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
            "count": 1,
        }

    def test_out_of_order_frames_release_in_sequence(self, namespace):
        client, state = subscriber_side()
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
        client, state = subscriber_side()
        once = self._envelope(state.sub_id, "seller1:9020", "seller1:9020/e1", 0, "Once")
        client.on_delta_chunk(frame("delta-chunk", once, sender="seller1:9020"))
        client.on_delta_chunk(frame("delta-chunk", dict(once), sender="seller1:9020"))
        assert len(state.deltas) == 1
        assert client.delta_duplicates == 1
        assert client.port.kinds() == ["delta-ack", "delta-ack"]  # re-acked, not re-released
        audit_exactly_once(state)

    def test_stale_epoch_frames_are_dropped(self, namespace):
        client, state = subscriber_side()
        state.feeds["seller1:9020"] = PublisherFeed(epoch="seller1:9020/e2")
        stale = self._envelope(state.sub_id, "seller1:9020", "seller1:9020/e1", 0, "Stale")
        client.on_delta_chunk(frame("delta-chunk", stale, sender="seller1:9020"))
        assert state.deltas == [] and not client.port.sent
        assert state.feeds["seller1:9020"].epoch == "seller1:9020/e2"

    def test_a_newer_epoch_resets_the_feed(self, namespace):
        """A publisher that re-armed starts again at 0 under a fresh epoch."""
        client, state = subscriber_side()
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

    def test_an_unreadable_delta_is_acknowledged_without_a_position(self, namespace):
        publisher, client, state = self._pair(namespace)
        publisher.update_collection("cds", [make_item("Torn", 5.0)])
        chunk = publisher.take_sent("delta-chunk")
        torn = dataclasses.replace(chunk, payload=dict(chunk.payload, document="<delta><item>"))
        for attempt in (0, 1):  # the first copy is refused, the retransmit too
            client.handle_message(dataclasses.replace(torn, attempt=attempt))
            ack = client.take_sent("delivery-ack")
            assert ack.payload == chunk.transfer  # a bare ack: no feed position
        assert state.deltas == [] and state.feeds == {}
        assert client.subscriptions.deltas_refused == 1  # counted once, on the first copy
        publisher.handle_message(ack)
        armed = publisher.subscriptions.armed[state.sub_id]
        assert publisher.transfers.pending == {} and armed.acked_seq == -1

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


# --------------------------------------------------------------------------- #
# A delta is written once and parsed only when read
# --------------------------------------------------------------------------- #


class TestDeltaDocuments:
    """The publisher writes a delta's root itself and shares each changed
    item's text; the document is byte for byte what the tree serialized to."""

    @staticmethod
    def tree_document(sub_id, kind, seq, shape, items) -> str:
        """The reference: the delta as a tree, serialized."""
        return serialize_xml(XMLElement("delta", {}, shape.apply(items)))

    @pytest.mark.parametrize("projected", [False, True], ids=["whole", "projected"])
    @pytest.mark.parametrize("subscribers", [1, 5])
    def test_a_document_equals_the_serialized_tree(self, namespace, projected, subscribers):
        plans = {f'c&"{n}"#sub{n}': feed_plan(namespace, projected) for n in range(subscribers)}
        publisher = armed_publisher(namespace, plans)
        fresh = escaped_item("Tom & Jerry <live> \"quoted\" 'single' Ünïcødé ✓", 1.0)
        kept, kept_after = escaped_item("Kept <&>", 2.0), escaped_item("Kept <&>", 3.0)
        dropped, dropped_after = escaped_item("Gone 'é'", 4.0), escaped_item("Gone 'é'", 40.0)
        publisher.mutated("/cds", [(None, fresh), (kept, kept_after), (dropped, dropped_after)])
        publisher.mutated("/cds", [(kept_after, None)])
        sent = {(m.payload["sub"], m.payload["seq"]): m for m in publisher.port.sent}
        assert len(sent) == 4 * subscribers
        for sub_id, plan in plans.items():
            shape = subscribable_shape(plan)
            for seq, (kind, items) in enumerate([
                ("insert", [fresh]), ("update", [kept_after]),
                ("retract", [dropped]), ("retract", [kept_after]),
            ]):
                message = sent[sub_id, seq]
                document = message.payload["document"]
                assert document == self.tree_document(sub_id, kind, seq, shape, items)
                assert message.payload["kind"] == kind and message.payload["count"] == 1
                assert message.size_bytes == utf8_len(document)  # ``count`` is not charged
        assert "Ünïcødé" in sent[next(iter(plans)), 0].payload["document"]

    def test_a_delta_of_several_items_keeps_their_order(self, namespace):
        shapes = {"c#whole": feed_plan(namespace), "c#titles": feed_plan(namespace, True)}
        publisher = armed_publisher(namespace, shapes)
        items = [escaped_item(f"cd <{n}>", float(n)) for n in range(4)]
        publisher.mutated("/cds", [(None, item) for item in items])
        for payload in chunks(publisher):
            sub_id = payload["sub"]
            shape = subscribable_shape(shapes[sub_id])
            assert payload["document"] == self.tree_document(sub_id, "insert", 0, shape, items)
            assert payload["count"] == 4

    @pytest.mark.parametrize("subscribers", [1, 5])
    def test_a_whole_item_is_written_once_per_mutation(self, namespace, monkeypatch, subscribers):
        plans = {f"c#whole{n}": feed_plan(namespace) for n in range(subscribers)}
        plans |= {f"c#titles{n}": feed_plan(namespace, True) for n in range(subscribers)}
        publisher = armed_publisher(namespace, plans)
        written: list[str] = []

        def counting(root, indent=None):
            written.append(root.child_text("title"))
            return serialize_xml(root, indent)

        monkeypatch.setattr(subscriptions_module, "serialize_xml", counting)
        publisher.mutated("/cds", [(None, make_item("One", 1.0)), (None, make_item("Two", 2.0))])
        # Once each for every whole subscriber together, once per projection.
        assert sorted(written) == sorted(["One", "Two"] * (1 + subscribers))
        assert len(chunks(publisher)) == 2 * subscribers
        written.clear()
        publisher.mutated("/cds", [(None, make_item("One", 1.5))])  # a new mutation writes anew
        assert written == ["One"] * (1 + subscribers)

    @pytest.mark.parametrize("subscribers", [1, 4])
    def test_a_whole_batch_is_one_document_object_for_every_subscriber(
        self, namespace, subscribers
    ):
        plans = {f"c#whole{n}": feed_plan(namespace) for n in range(subscribers)}
        plans |= {f"c#titles{n}": feed_plan(namespace, True) for n in range(subscribers)}
        publisher = armed_publisher(namespace, plans)
        publisher.mutated("/cds", [(None, make_item("One", 1.0)), (None, make_item("Two", 2.0))])
        sent = {payload["sub"]: payload["document"] for payload in chunks(publisher)}
        whole = {id(sent[sub]) for sub in plans if "whole" in sub}
        projected = {id(sent[sub]) for sub in plans if "titles" in sub}
        assert len(whole) == 1 and len(projected) == subscribers
        document = sent["c#whole0"]
        assert document.startswith("<delta><item") and document.endswith("</item></delta>")
        for sub_id in plans:  # the replay log keeps the very document it sent
            assert publisher.armed[sub_id].log[0]["document"] is sent[sub_id]


class TestDeltaItemsStayText:
    """A subscriber counts a delta's items off the envelope and parses the
    document only when an item is read."""

    def _feed(self, namespace, monkeypatch, sizes):
        parses: list[str] = []
        parse = gather_module.parse_xml
        monkeypatch.setattr(
            gather_module, "parse_xml", lambda document: parses.append(document) or parse(document)
        )
        publisher = armed_publisher(namespace, {"client:9020#sub1": feed_plan(namespace)})
        for n, size in enumerate(sizes):
            publisher.mutated(
                "/cds", [(None, make_item(f"cd {n}.{k}", 1.0)) for k in range(size)]
            )
        client, state = subscriber_side()
        return publisher, client, state, parses

    def test_deltas_are_counted_without_a_parse_and_parsed_once_when_read(
        self, namespace, monkeypatch
    ):
        sizes = [1, 2, 3, 1, 2, 3]
        publisher, client, state, parses = self._feed(namespace, monkeypatch, sizes)
        for payload in chunks(publisher):
            client.on_delta_chunk(frame("delta-chunk", payload, sender="seller1:9020"))
        assert [len(delta.items) for delta in state.deltas] == sizes
        assert [delta.count for delta in state.deltas] == sizes
        assert parses == []
        third = state.deltas[2]
        assert [item.child_text("title") for item in third.items] == ["cd 2.0", "cd 2.1", "cd 2.2"]
        assert third.items[1].child_text("title") == "cd 2.1"
        assert parses == [chunks(publisher)[2]["document"]]  # once, and only that delta

    def test_a_released_delta_is_one_object_holding_the_chunks_document(
        self, namespace, monkeypatch
    ):
        publisher, client, state, parses = self._feed(namespace, monkeypatch, [2])
        (payload,) = chunks(publisher)
        client.on_delta_chunk(frame("delta-chunk", payload, sender="seller1:9020"))
        (delta,) = state.deltas
        assert not hasattr(delta, "__dict__")
        assert delta.document is payload["document"] and delta.count == 2 and not parses
        first, again = list(delta.items), list(delta.items)
        assert len(parses) == 1  # parsed on the first read, the items then kept
        assert first == again and all(a is b for a, b in zip(first, again))
        assert delta.items == first and delta.items[1] is first[1]

    def test_a_wrong_count_raises_when_the_items_are_first_read(self, namespace, monkeypatch):
        publisher, client, state, _ = self._feed(namespace, monkeypatch, [1])
        (payload,) = chunks(publisher)
        client.on_delta_chunk(frame("delta-chunk", dict(payload, count=2), sender="seller1:9020"))
        (delta,) = state.deltas
        assert len(delta.items) == 2  # counted as announced ...
        with pytest.raises(PeerError, match="announced 2 item"):
            list(delta.items)  # ... and found out on the first read


_MISSING = object()

# One broken field each, on an otherwise genuine delta-chunk envelope.
UNREADABLE = {
    "malformed-xml": ("document", "<delta kind='insert'><item>"),
    "empty-document": ("document", ""),
    "seq-as-text": ("seq", "three"),
    "epoch-none": ("epoch", None),
    "sub-missing": ("sub", _MISSING),
    "count-missing": ("count", _MISSING),
    "count-negative": ("count", -1),
    "count-as-text": ("count", "1"),
}


@pytest.mark.parametrize("reliable", [False, True], ids=["fire-and-forget", "reliable"])
@pytest.mark.parametrize("transport", TRANSPORTS)
class TestUnreadableDeltas:
    """A ``delta-chunk`` that cannot be read is dropped and counted, never
    raised out of the peer; the feed it names carries on untouched."""

    def test_each_unreadable_delta_is_refused_and_the_feed_carries_on(
        self, transport, reliable, namespace
    ):
        with subscription_cluster(transport, namespace, reliable=reliable) as cluster:
            client = cluster.session("client:9020")
            seller1 = cluster.session("seller1:9020")
            sub = client.query().area(portland_area(namespace)).where("price < 10").subscribe()
            cluster.run_until_idle()
            armed = seller1.peer.subscriptions.armed[sub.sub_id]
            forged = make_item("Forged", 1.0, seller="seller1:9020")
            genuine = {
                "document": serialize_xml(XMLElement(
                    "delta", {"sub": sub.sub_id, "kind": "insert", "seq": "0"}, [forged]
                )),
                "sub": sub.sub_id, "publisher": "seller1:9020", "epoch": armed.epoch,
                "seq": 0, "kind": "insert", "count": 1,
            }
            for key, value in UNREADABLE.values():
                broken = dict(genuine)
                if value is _MISSING:
                    del broken[key]
                else:
                    broken[key] = value
                seller1.peer.transfers.send("client:9020", "delta-chunk", broken, 64, sub.sub_id)
            cluster.run_until_idle()

            subscriptions = client.peer.subscriptions
            state = subscriptions.mine[sub.sub_id]
            assert subscriptions.deltas_refused == len(UNREADABLE)
            assert state.deltas == [] and state.feeds == {}
            kinds = cluster.metrics.messages_by_kind
            if reliable:  # every copy acknowledged, none with a position
                assert seller1.peer.transfers.pending == {} and armed.acked_seq == -1
                assert kinds["delivery-ack"] >= len(UNREADABLE)
            assert "delta-ack" not in kinds

            seller1.update("cds", [make_item("Real", 2.0, seller="seller1:9020")])
            cluster.run_until_idle()
            assert [(d.seq, [i.child_text("title") for i in d.items]) for d in state.deltas] == [
                (0, ["Real"]),
            ]
            assert subscriptions.deltas_refused == len(UNREADABLE)


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
# The subscriber's handle: reading, snapshots, scope, churn at the subscriber
# --------------------------------------------------------------------------- #


def titles_of(delta) -> list[str]:
    return [item.child_text("title") for item in delta.items]


class TestSubscriptionHandle:
    def subscribe_cheap_cds(self, cluster, namespace):
        client = cluster.session("client:9020")
        sub = client.query().area(portland_area(namespace)).where("price < 10").subscribe()
        cluster.run_until_idle()
        return sub

    def test_delivered_reads_the_feed_without_consuming_it(self, namespace):
        with subscription_cluster("sim", namespace) as cluster:
            sub = self.subscribe_cheap_cds(cluster, namespace)
            seller1 = cluster.session("seller1:9020")
            seller1.update("cds", [make_item("New CD", 3.0, seller="seller1:9020")])
            seller1.update("cds", [make_item("New CD", 4.0, seller="seller1:9020")])
            cluster.run_until_idle()
            assert [d.kind for d in sub.delivered()] == ["insert", "update"]
            assert sub.lag() == 2  # reading delivered() leaves the feed unread
            assert [d.kind for d in sub.deltas()] == ["insert", "update"]
            assert [d.kind for d in sub.delivered()] == ["insert", "update"]
            assert sub.lag() == 0

    def test_a_limit_stops_the_stream_and_the_rest_waits_for_the_next_read(self, namespace):
        with subscription_cluster("sim", namespace) as cluster:
            sub = self.subscribe_cheap_cds(cluster, namespace)
            seller1 = cluster.session("seller1:9020")
            for title, price in (("One", 1.0), ("Two", 2.0), ("Three", 3.0)):
                seller1.update("cds", [make_item(title, price, seller="seller1:9020")])
            cluster.run_until_idle()
            assert [titles_of(d) for d in sub.deltas(limit=2)] == [["One"], ["Two"]]
            assert sub.lag() == 1
            assert [titles_of(d) for d in sub.deltas()] == [["Three"]]
            assert sub.lag() == 0

    def test_a_snapshot_agrees_with_the_feed(self, namespace):
        with subscription_cluster("sim", namespace) as cluster:
            sub = self.subscribe_cheap_cds(cluster, namespace)
            seller1 = cluster.session("seller1:9020")
            seller1.update("cds", [make_item("New CD", 3.0, seller="seller1:9020")])
            cluster.session("seller2:9020").retract("cds", predicate="price < 10")
            cluster.run_until_idle()
            assert [(d.kind, titles_of(d)) for d in sub.deltas()] == [
                ("insert", ["New CD"]), ("retract", ["Blue Train"]),
            ]
            snapshot = sub.snapshot(timeout=60_000)
            assert sorted(item.child_text("title") for item in snapshot.items) == [
                "Abbey Road", "New CD",
            ]

    def test_as_a_context_manager_it_unsubscribes_on_exit(self, namespace):
        with subscription_cluster("sim", namespace) as cluster:
            seller1 = cluster.session("seller1:9020")
            with self.subscribe_cheap_cds(cluster, namespace) as sub:
                assert sub.sub_id in seller1.peer.subscriptions.armed
                seller1.update("cds", [make_item("New CD", 3.0, seller="seller1:9020")])
                assert [d.kind for d in sub.deltas(timeout=5_000)] == ["insert"]
            cluster.run_until_idle()
            assert not sub.active
            assert sub.sub_id not in seller1.peer.subscriptions.armed

    def test_a_torn_down_subscription_reads_empty_and_refuses_a_snapshot(self, namespace):
        with subscription_cluster("sim", namespace) as cluster:
            sub = self.subscribe_cheap_cds(cluster, namespace)
            cluster.session("seller1:9020").update(
                "cds", [make_item("New CD", 3.0, seller="seller1:9020")]
            )
            cluster.run_until_idle()
            sub.unsubscribe()
            cluster.run_until_idle()
            assert sub.lag() == 0
            assert sub.delivered() == []
            assert sub.conflicts() == []
            assert list(sub.deltas()) == []
            with pytest.raises(APIError, match="no longer registered"):
                sub.snapshot(timeout=60_000)

    def test_a_promoted_one_shot_handle_feeds_until_its_scope_ends(self, namespace):
        with subscription_cluster("sim", namespace) as cluster:
            client = cluster.session("client:9020")
            handle = client.query().area(portland_area(namespace)).where("price < 10").submit()
            assert sorted(i.child_text("title") for i in handle.result(timeout=60_000).items) == [
                "Abbey Road", "Blue Train",
            ]
            with handle.subscribe() as scoped:
                cluster.run_until_idle()
                cluster.session("seller2:9020").update(
                    "cds", [make_item("Moanin'", 7.0, seller="seller2:9020")]
                )
                assert [(d.kind, titles_of(d)) for d in scoped.deltas(timeout=5_000)] == [
                    ("insert", ["Moanin'"]),
                ]
            cluster.run_until_idle()
            assert not scoped.active

    def test_a_subscriber_that_leaves_is_replayed_the_missed_delta_on_rejoin(self, namespace):
        with subscription_cluster("sim", namespace) as cluster:
            sub = self.subscribe_cheap_cds(cluster, namespace)
            client = cluster.session("client:9020")
            client.leave()
            cluster.run_until_idle()
            cluster.session("seller1:9020").update(
                "cds", [make_item("Kind of Blue", 9.0, seller="seller1:9020")]
            )
            cluster.run_until_idle()
            assert sub.lag() == 0  # nothing reaches a peer that left
            client.rejoin()
            cluster.run_until_idle()
            assert [(d.kind, titles_of(d)) for d in sub.deltas()] == [
                ("insert", ["Kind of Blue"]),
            ]
            audit_exactly_once(client.peer.my_subscriptions[sub.sub_id])

    def test_streaming_with_the_subscriber_offline_raises(self, namespace):
        with subscription_cluster("sim", namespace) as cluster:
            sub = self.subscribe_cheap_cds(cluster, namespace)
            cluster.session("client:9020").leave()
            with pytest.raises(PeerOffline, match="went offline"):
                list(sub.deltas(timeout=5_000))


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
