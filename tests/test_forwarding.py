"""Plan forwarding on its own: a processor over local data, a recording node, no network."""

import pytest

from recording_node import RecordingNode, frame
from repro.algebra import PlanBuilder, QueryPlan
from repro.algebra.operators import Display, VerbatimData
from repro.catalog import Catalog, CollectionRef, ServerEntry, ServerRole
from repro.catalogtier import ShardMap
from repro.mqp import MQPProcessor, MutantQueryPlan
from repro.namespace import InterestAreaURN
from repro.peers.forwarding import PlanForwarding
from repro.peers.gather import ResultGather
from repro.peers.parts import Cancellations
from repro.peers.inbox import ResultInbox
from repro.peers.transfers import Transfers
from repro.xmlmodel import XMLElement, serialize_xml
from tests.conftest import make_item


@pytest.fixture()
def hop(namespace):
    """A base server's forwarding component, holding one collection."""
    node = RecordingNode("seller:9020")
    collections = {"/cds": [make_item("Abbey Road", 8), make_item("Kind of Blue", 12)]}
    processor = MQPProcessor(node.address, Catalog(node.address), namespace,
                             collections=collections)
    cancelled = Cancellations()
    transfers = Transfers(node, cancelled)
    inbox = ResultInbox(node, transfers, ResultGather(), cancelled)
    return PlanForwarding(node, processor, transfers, inbox, cancelled)


def plan_document(target: str = "client:9020", query_id: str = "q1") -> str:
    plan = PlanBuilder.url("seller:9020", "/cds").select("price < 10").display(target)
    return MutantQueryPlan(plan, query_id=query_id).serialize()


class TestOneHop:
    def test_a_plan_answered_here_leaves_as_one_traced_result_frame(self, hop):
        hop.on_mqp(frame("mqp", plan_document()))
        [sent] = hop.port.sent
        assert (sent.kind, sent.recipient) == ("result", "client:9020")
        assert sent.payload["items"] == 1 and sent.payload["credit"] == "1"
        assert "Abbey Road" in sent.payload["document"]
        trace = hop.port.metrics.trace("q1")
        assert trace.visited == ["seller:9020"] and trace.messages == 1
        assert (hop.plans_processed, hop.plans_forwarded, hop.plans_stuck) == (1, 0, 0)

    def test_an_answer_for_this_peer_is_recorded_not_sent(self, hop):
        hop.on_mqp(frame("mqp", plan_document(target="seller:9020")))
        assert not hop.port.sent and hop.inbox.gather.results["q1"].count == 1

    def test_a_plan_of_a_cancelled_query_is_dropped_on_arrival(self, hop):
        hop.cancelled.add("q1")
        hop.on_mqp(frame("mqp", plan_document()))
        hop.on_mqp(frame("mqp", plan_document(query_id="q2")))
        assert hop.plans_cancelled == 1 and hop.plans_processed == 1
        assert [m.payload["query_id"] for m in hop.port.sent] == ["q2"]
        assert not hop.port.timers  # processed on arrival: nothing waits for a timer


ITEM_SETS = {
    "empty": [],
    "single": [make_item("Abbey Road", 8)],
    "non-ascii": [make_item("Café ☕ Olé", 5), make_item("Ænima", 9, seller="søren:9020")],
    "markup": [make_item('Rock & "Roll" <live> \'77', 7, seller='a&b<"c">\':9020'),
               XMLElement("item", {"note": 'say "hi" & <bye>', "apos": "it's"})],
}


class TestTextInSameTextOut:
    """A complete answer leaves as the text it already is, re-wrapped: the
    document must be the one the serializer writes over the same items."""

    @pytest.mark.parametrize("query_id", ["q1", 'q"1\'&<'], ids=["plain-id", "quoted-id"])
    @pytest.mark.parametrize("arrival", ["fresh", "result-span", "collection-span"])
    @pytest.mark.parametrize("items", ITEM_SETS.values(), ids=ITEM_SETS)
    def test_the_result_document_is_the_serializers(self, hop, items, arrival, query_id):
        tag = "collection" if arrival == "collection-span" else "result"
        leaf = VerbatimData.from_items(items, tag=tag)
        mqp = MutantQueryPlan(QueryPlan(Display(leaf, "client:9020")), query_id=query_id)
        if arrival == "fresh":
            hop.deliver(mqp)
        else:  # over the wire: the leaf arrives as a span, never built into a tree
            hop.on_mqp(frame("mqp", mqp.serialize()))
        [sent] = hop.port.sent
        expected = serialize_xml(XMLElement("result", {"query-id": query_id}, items))
        assert sent.kind == "result" and sent.payload["document"] == expected
        assert sent.payload["items"] == len(items)
        assert sent.size_bytes == len(expected.encode("utf-8"))

    def test_a_partial_answer_keeps_the_item_path(self, hop):
        items = ITEM_SETS["single"]
        plan = PlanBuilder.data(items).union(PlanBuilder.url("far:9020", "/cds"))
        hop.deliver(MutantQueryPlan(plan.display("client:9020"), query_id="q1"), "stuck")
        [sent] = hop.port.sent
        assert sent.kind == "partial-result" and sent.payload["items"] == 1
        assert sent.payload["document"] == serialize_xml(
            XMLElement("result", {"query-id": "q1"}, items)
        )


PORTLAND_CDS = ["USA/OR/Portland", "Music/CDs"]


def area_plan(namespace, cell=PORTLAND_CDS, target: str = "client:9020") -> str:
    urn = str(InterestAreaURN.for_area(namespace.area(cell)))
    plan = PlanBuilder.urn(urn).select("price < 10").display(target)
    return MutantQueryPlan(plan, query_id="q1").serialize()


def index_entry(namespace, cell=("USA/OR", "*"), authoritative=True, role=ServerRole.INDEX):
    return ServerEntry("index-or:9020", role, namespace.area(list(cell)), authoritative)


@pytest.fixture()
def meta(hop, namespace):
    """The same component on a server that holds no data and knows one index."""
    hop.processor.collections.clear()
    hop.processor.catalog.register_server(index_entry(namespace))
    return hop


def referrals(hop) -> list:
    return [m for m in hop.port.sent if m.kind == "referral"]


class TestReferral:
    def test_a_client_whose_plan_goes_on_to_the_covering_authority_is_told_once(
        self, meta, namespace
    ):
        meta.on_mqp(frame("mqp", area_plan(namespace), sender="client:9020"))
        forwarded, [told] = [m for m in meta.port.sent if m.kind == "mqp"], referrals(meta)
        assert [m.recipient for m in forwarded] == ["index-or:9020"]
        assert told.recipient == "client:9020" and told.size_bytes == 256
        assert told.payload == index_entry(namespace) and told.transfer is None

    def test_a_plan_that_came_through_another_hop_refers_nobody(self, meta, namespace):
        meta.on_mqp(frame("mqp", area_plan(namespace), sender="them:9020"))
        assert meta.port.kinds() == ["mqp"]

    @pytest.mark.parametrize("asked,entry", [
        (PORTLAND_CDS, dict(authoritative=False)),
        (["USA/OR", "Music/CDs"], dict(cell=("USA/OR/Portland", "*"))),  # covers only a part
        (PORTLAND_CDS, dict(role=ServerRole.BASE)),
    ], ids=["not-authoritative", "overlapping", "not-an-index"])
    def test_only_an_authoritative_index_covering_the_area_is_referred_to(
        self, hop, namespace, asked, entry
    ):
        hop.processor.collections.clear()
        hop.processor.catalog.register_server(index_entry(namespace, **entry))
        hop.on_mqp(frame("mqp", area_plan(namespace, asked), sender="client:9020"))
        assert [(m.kind, m.recipient) for m in hop.port.sent] == [("mqp", "index-or:9020")]

    def test_on_the_sharded_tier_the_shard_map_already_names_the_owner(self, meta, namespace):
        meta.processor.shard_map = ShardMap.build([["index-or:9020"]], [namespace.area(["USA/OR", "*"])])
        meta.on_mqp(frame("mqp", area_plan(namespace), sender="client:9020"))
        assert meta.port.kinds() == ["mqp"]

    def test_a_plan_answered_or_scattered_here_refers_nobody(self, hop):
        hop.on_mqp(frame("mqp", plan_document(), sender="client:9020"))
        assert hop.port.kinds() == ["result"]


class TestCustody:
    def test_cancel_retraces_the_fan_out_and_forgets_the_pieces(self, hop):
        hop.remember("q1", "a:1", "<piece/>")
        hop.remember("q1", "b:1", "<piece/>")
        assert hop.custody["q1"] == {"a:1": [], "b:1": []}  # fire-and-forget: no piece kept
        hop.cancel("q1")
        hop.cancel("q1")  # nothing left to retrace
        assert [(m.recipient, m.kind, m.payload) for m in hop.port.sent] == [
            ("a:1", "cancel-query", "q1"), ("b:1", "cancel-query", "q1"),
        ]
        assert "q1" not in hop.custody

    def test_an_offline_peer_forgets_without_sending(self, hop):
        hop.remember("q1", "a:1", "<piece/>")
        hop.port.online = False
        hop.cancel("q1")
        assert not hop.port.sent and not hop.custody

    def test_a_returning_holder_is_sent_its_pieces_again_untraced(self, hop):
        hop.port.reliable = True
        hop.remember("q1", "a:1", "<first/>")
        hop.remember("q1", "b:1", "<other/>")
        hop.remember("q2", "a:1", "<second/>")
        hop.resend("a:1")
        assert [(m.recipient, m.payload) for m in hop.port.sent] == [
            ("a:1", "<first/>"), ("a:1", "<second/>"),
        ]
        assert all(m.transfer is not None for m in hop.port.sent)
        assert hop.port.metrics.traces == {}  # wasted traffic at worst: not charged to the query

    def test_a_returning_holder_is_sent_the_slim_text_it_was_sent_before(self, meta, namespace):
        area = namespace.area(PORTLAND_CDS)
        for seller in ("seller1:9020", "seller2:9020"):
            meta.processor.catalog.register_server(ServerEntry(
                seller, ServerRole.BASE, area, collections=[CollectionRef(seller, "/cds", "cds", 5)]
            ))
        meta.port.reliable = True
        meta.on_mqp(frame("mqp", area_plan(namespace), sender="client:9020"))
        first = {m.recipient: m.payload for m in meta.port.sent if m.kind == "mqp"}
        assert list(first) == ["seller1:9020", "seller2:9020"]
        del meta.port.sent[:]
        meta.resend("seller2:9020")  # seller2 went offline and has registered again
        [again] = meta.port.sent
        assert (again.recipient, again.kind) == ("seller2:9020", "mqp")
        assert again.payload == first["seller2:9020"] and "<original>" not in again.payload
        assert again.size_bytes == len(again.payload)
        piece = MutantQueryPlan.deserialize(again.payload)
        assert piece.original is None and piece.remaining_urns() == []
