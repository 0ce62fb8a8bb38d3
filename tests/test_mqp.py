"""Tests for mutant query plans: provenance, wire format, policy, processor."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.algebra import PlanBuilder, URLRef
from repro.catalog import (
    Binder,
    Catalog,
    CollectionRef,
    IntensionalStatement,
    NamedResourceEntry,
    RoutingCache,
    ServerEntry,
    ServerRole,
)
from repro.engine.cost import CostModel
from repro.errors import PlanError, ProvenanceError, URNError, XMLParseError
from repro.mqp import (
    PARTIAL_REASONS,
    MQPProcessor,
    MutantQueryPlan,
    PolicyManager,
    ProcessingAction,
    ProvenanceAction,
    ProvenanceLog,
    QueryPreferences,
)
from repro.mqp.plan import format_branch, parse_branch
from repro.mqp.provenance import ProvenanceRecord
from repro.namespace import InterestAreaURN, InterestCell, parse_urn
from repro.namespace.urn import _urn_parts
from repro.optimizer import Optimizer
from repro.xmlmodel import XMLElement, parse_xml, serialize_xml
from oracles.mqp_tree import mqp_text
from tests.conftest import make_item


class TestProvenance:
    def test_records_and_queries(self):
        log = ProvenanceLog()
        log.add("a:1", ProvenanceAction.BOUND, 1.0, detail="urn:ForSale:Portland-CDs")
        log.add("b:1", ProvenanceAction.EVALUATED, 2.0, detail="select->3 items")
        log.add("b:1", ProvenanceAction.FORWARDED, 3.0, detail="c:1")
        assert log.visited_servers() == ["a:1", "b:1"]
        assert log.hop_count() == 1

    def test_staleness_tracking(self):
        log = ProvenanceLog()
        log.add("a:1", ProvenanceAction.BOUND, 1.0, staleness_minutes=30)
        log.add("b:1", ProvenanceAction.BOUND, 2.0, staleness_minutes=5)
        assert log.max_staleness() == 30

    def test_xml_roundtrip(self):
        log = ProvenanceLog()
        log.add("a:1", ProvenanceAction.BOUND, 1.5, detail="urn:X:y", staleness_minutes=10)
        log.add("b:1", ProvenanceAction.DELIVERED, 2.25, detail="client:1")
        restored = ProvenanceLog.from_xml(parse_xml(log.to_text()))
        assert len(restored) == 2
        assert restored.records[0].staleness_minutes == 10
        assert restored.records[1].action is ProvenanceAction.DELIVERED

    def test_spoof_detection(self):
        """§5.1: a resource never bound by anyone is suspicious."""
        log = ProvenanceLog()
        log.add("S:1", ProvenanceAction.BOUND, 1.0, detail="urn:ForSale:A")
        suspicious = log.suspicious_resources(["urn:ForSale:A", "urn:ForSale:B"])
        assert suspicious == ["urn:ForSale:B"]

    def test_a_record_writes_one_text_back(self):
        """Parsed or built, a record's ``<visit/>`` is written once."""
        log = ProvenanceLog()
        record = log.add("a:1", ProvenanceAction.BOUND, 1.5, detail="urn:X:y", staleness_minutes=10)
        built = record.to_text()
        assert record.to_text() is built
        assert built == (
            '<visit action="bound" detail="urn:X:y" server="a:1" staleness="10" time="1.500"/>'
        )
        parsed = ProvenanceRecord.from_xml(parse_xml(built))
        assert parsed == record and parsed.to_text() == built
        assert parsed.to_text() is parsed.to_text()

    def test_an_arrived_record_writes_back_its_attributes(self):
        """Even those its fields would spell otherwise, and those it has no field for."""
        arrived = '<visit action="bound" extra="&amp;x" server="a:1" staleness="1e+01" time="1.5"/>'
        record = ProvenanceRecord.from_xml(parse_xml(arrived))
        assert record.staleness_minutes == 10 and record.time == 1.5
        assert record.to_text() == arrived

    def test_scattered_pieces_share_the_text_they_inherit(self):
        """A piece copies the record list, not the records: a record both
        pieces inherit is written once, and the same bytes come back after
        a round trip."""
        plan = PlanBuilder.url("a:9020", "/cds").display("client:9020")
        whole = MutantQueryPlan(plan, query_id="q1")
        whole.provenance.add("index:9020", ProvenanceAction.BOUND, 1.0, detail="urn:X:y")
        first, second = (
            whole.piece(plan.copy(), (7, index), Fraction(1, 2)) for index in range(2)
        )
        (inherited,) = first.provenance.records
        assert second.provenance.records[0] is inherited
        first_document = first.serialize()
        text = inherited.__dict__["_text"]
        assert text in first_document and text in second.serialize()
        assert inherited.to_text() is text  # the second piece did not write it again
        arrived = MutantQueryPlan.deserialize(first_document)
        assert arrived.serialize() == first_document


class TestMalformedWireFields:
    """A field that does not parse is a typed error, not a bare ``ValueError``."""

    @pytest.mark.parametrize(
        "field, damaged, error",
        [
            ('issued-at="2.000"', 'issued-at="later"', PlanError),
            ('target-time-ms="500"', 'target-time-ms="soon"', PlanError),
            ('action="bound"', 'action="bogus"', ProvenanceError),
            ('time="1.000"', 'time="soon"', ProvenanceError),
            ('staleness="10"', 'staleness="x"', ProvenanceError),
        ],
        ids=["issued-at", "target-time-ms", "visit-action", "visit-time", "visit-staleness"],
    )
    def test_a_malformed_field_is_refused_with_a_typed_error(self, field, damaged, error):
        mqp = MutantQueryPlan(
            PlanBuilder.urn("urn:A:b").display("c:1"),
            preferences=QueryPreferences(target_time_ms=500),
            issued_at=2.0,
        )
        mqp.provenance.add("a:1", ProvenanceAction.BOUND, 1.0, detail="urn:A:b", staleness_minutes=10)
        document = mqp.serialize()
        assert document.count(field) == 1
        MutantQueryPlan.deserialize(document)  # the undamaged document parses
        with pytest.raises(error):
            MutantQueryPlan.deserialize(document.replace(field, damaged))


class TestPreferencesAndWireFormat:
    def test_preferences_validation(self):
        with pytest.raises(PlanError):
            QueryPreferences(prefer="cheapest")
        with pytest.raises(PlanError):
            QueryPreferences(target_time_ms=0)

    def test_over_budget(self):
        preferences = QueryPreferences(target_time_ms=100)
        mqp = MutantQueryPlan(PlanBuilder.urn("urn:A:b").display("c:1"), preferences=preferences, issued_at=50)
        assert not mqp.over_budget(100)
        assert mqp.over_budget(200)

    def test_mqp_serialization_roundtrip(self, cd_items):
        plan = PlanBuilder.data(cd_items, name="cds").select("price < 10").display("client:9020")
        mqp = MutantQueryPlan(plan, preferences=QueryPreferences(target_time_ms=500, prefer="current"), issued_at=12.5)
        mqp.provenance.add("a:1", ProvenanceAction.EVALUATED, 13.0, detail="select->3 items")
        restored = MutantQueryPlan.deserialize(mqp.serialize())
        assert restored.query_id == mqp.query_id
        assert restored.plan.root == mqp.plan.root
        assert restored.original.root == mqp.original.root
        assert restored.preferences == mqp.preferences
        assert restored.issued_at == pytest.approx(12.5)
        assert len(restored.provenance) == 1

    def test_a_plan_that_arrives_without_an_original_leaves_without_one(self, cd_items):
        """Regression: an absent ``<original>`` was read as "a new query" and
        the next hop shipped a copy of the mutated plan, results included."""
        mqp = MutantQueryPlan(PlanBuilder.data(cd_items, name="cds").display("client:9020"))
        mqp.original = None  # what a leaf piece (and bench_provenance) sends
        first = mqp.serialize()
        arrived = MutantQueryPlan.deserialize(first)
        assert arrived.original is None
        assert arrived.serialize() == first and "<original>" not in first
        assert first.count("<title>Abbey Road</title>") == 1  # no result shipped twice

    def test_wire_size_includes_partial_results(self, cd_items):
        empty = MutantQueryPlan(PlanBuilder.urn("urn:A:b").display("c:1"))
        loaded = MutantQueryPlan(PlanBuilder.data(cd_items, name="cds").display("c:1"))
        assert loaded.wire_size() > empty.wire_size()


class TestPolicyManager:
    def test_next_hop_prefers_unvisited(self):
        policy = PolicyManager()
        assert policy.choose_next_hop(["a", "b"], visited=["a"]) == "b"
        assert policy.choose_next_hop(["a", "b"], visited=["a", "b"]) is None
        assert policy.choose_next_hop(["a"], visited=["a"], revisitable=["a"]) == "a"
        assert policy.choose_next_hop([], visited=[]) is None


class TestPreferenceChoice:
    """§4.3 through the processor: an index holding a fresh primary R and two
    mirrors S and T, each at most 30 minutes behind R, binds one alternative
    per preference and records its staleness bound."""

    @pytest.fixture()
    def index(self, namespace):
        portland = namespace.area(["USA/OR/Portland", "*"])
        catalog = Catalog("index:9020")
        for address in ("R:9020", "S:9020", "T:9020"):
            catalog.register_server(
                ServerEntry(address, ServerRole.BASE, portland, collections=[CollectionRef(address, "/data")])
            )
        for mirror in ("S:9020", "T:9020"):
            catalog.register_statement(
                IntensionalStatement.parse(
                    f"base[(USA.OR.Portland,*)]@R:9020 >= base[(USA.OR.Portland,*)]@{mirror}{{30}}"
                )
            )
        return catalog

    @pytest.mark.parametrize(
        "prefer, servers, staleness",
        [
            ("complete", ["R:9020", "S:9020", "T:9020"], 0.0),
            # Current: no stale replica, so every server is asked.
            ("current", ["R:9020", "S:9020", "T:9020"], 0.0),
            # Fast: one server fewer, at the mirror's 30-minute bound.
            ("fast", ["R:9020", "T:9020"], 30.0),
        ],
        ids=["complete", "current", "fast"],
    )
    def test_process_binds_the_preferred_alternative(self, namespace, index, prefer, servers, staleness):
        area = namespace.area(["USA/OR/Portland", "Music/CDs"])
        preferences = QueryPreferences(prefer=prefer)
        chosen = PolicyManager().choose_alternative(Binder(index).bind_area(area), preferences)
        assert (chosen.servers, chosen.max_delay_minutes) == (servers, staleness)

        processor = _processor_for(namespace, "index:9020", catalog=index)
        plan = PlanBuilder.urn(str(InterestAreaURN.for_area(area))).display("client:9020")
        result = processor.process(MutantQueryPlan(plan, preferences=preferences))
        assert result.bound_urns == 1
        named = {node.url for node in result.mqp.plan.iter_nodes() if isinstance(node, URLRef)}
        assert sorted(named) == servers
        bound = [r for r in result.mqp.provenance.records if r.action is ProvenanceAction.BOUND]
        assert [r.staleness_minutes for r in bound] == [staleness]


def _processor_for(namespace, address, collections=None, catalog=None):
    return MQPProcessor(address, catalog or Catalog(address), namespace, collections=collections or {})


class TestProcessor:
    def test_local_evaluation_delivers(self, namespace, cd_items):
        processor = _processor_for(namespace, "here:9020", {"/cds": cd_items})
        plan = PlanBuilder.url("here:9020", "/cds").select("price < 10").display("client:9020")
        result = processor.process(MutantQueryPlan(plan))
        assert result.action is ProcessingAction.DELIVER
        assert result.evaluated_subplans == 1
        assert result.mqp.is_fully_evaluated()
        assert len(result.mqp.plan.result().children) == 3

    def test_binding_interest_area_urn(self, namespace, cd_items):
        catalog = Catalog("index")
        area = namespace.area(["USA/OR/Portland", "Music/CDs"])
        catalog.register_server(
            ServerEntry(
                "seller:9020",
                ServerRole.BASE,
                area,
                collections=[CollectionRef("seller:9020", "/cds", "cds", 5)],
            )
        )
        processor = _processor_for(namespace, "index:9020", catalog=catalog)
        urn = str(InterestAreaURN.for_area(area))
        plan = PlanBuilder.urn(urn).select("price < 10").display("client:9020")
        result = processor.process(MutantQueryPlan(plan))
        assert result.action is ProcessingAction.FORWARD
        assert result.next_hop == "seller:9020"
        assert result.bound_urns == 1
        assert result.mqp.remaining_urns() == []
        bound_actions = [r for r in result.mqp.provenance.records if r.action is ProvenanceAction.BOUND]
        assert len(bound_actions) == 1

    def test_named_urn_binding(self, namespace, cd_items):
        catalog = Catalog("peer")
        catalog.register_named_resource(
            NamedResourceEntry("urn:ForSale:Portland-CDs", [CollectionRef("seller:9020", "/cds")])
        )
        processor = _processor_for(namespace, "peer:9020", catalog=catalog)
        plan = PlanBuilder.urn("urn:ForSale:Portland-CDs").display("client:9020")
        result = processor.process(MutantQueryPlan(plan))
        assert result.action is ProcessingAction.FORWARD
        assert result.next_hop == "seller:9020"

    def test_unresolvable_plan_is_stuck(self, namespace):
        processor = _processor_for(namespace, "peer:9020")
        plan = PlanBuilder.urn("urn:ForSale:Portland-CDs").display("client:9020")
        result = processor.process(MutantQueryPlan(plan))
        assert result.action is ProcessingAction.STUCK

    def test_over_budget_delivers_partial(self, namespace, cd_items):
        processor = _processor_for(namespace, "here:9020", {"/cds": cd_items})
        plan = (
            PlanBuilder.url("here:9020", "/cds")
            .select("price < 10")
            .join(PlanBuilder.url("remote:9020", "/tl"), on=("//title", "//title"))
            .display("client:9020")
        )
        mqp = MutantQueryPlan(plan, preferences=QueryPreferences(target_time_ms=10), issued_at=0.0)
        result = processor.process(mqp, now=100.0)
        assert result.action is ProcessingAction.DELIVER_PARTIAL

    def test_hop_limit_stops_forwarding(self, namespace):
        processor = _processor_for(namespace, "here:9020")
        processor.max_hops = 2
        plan = PlanBuilder.url("remote:9020", "/cds").display("client:9020")
        mqp = MutantQueryPlan(plan)
        for hop in range(3):
            mqp.provenance.add(f"peer{hop}:1", ProvenanceAction.FORWARDED, float(hop))
        result = processor.process(mqp, now=5.0)
        assert result.action is ProcessingAction.DELIVER_PARTIAL

    def test_statistics_annotations_added(self, namespace, cd_items):
        processor = _processor_for(namespace, "here:9020", {"/cds": cd_items})
        plan = (
            PlanBuilder.url("here:9020", "/cds")
            .select("price < 10")
            .join(PlanBuilder.url("remote:9020", "/tl"), on=("//title", "//title"))
            .display("client:9020")
        )
        result = processor.process(MutantQueryPlan(plan))
        leaves = result.mqp.plan.verbatim_leaves()
        assert leaves and any("stats.cardinality" in leaf.annotations for leaf in leaves)

    def test_learn_from_populates_cache(self, namespace):
        area = namespace.area(["USA/OR/Portland", "Music/CDs"])
        urn = str(InterestAreaURN.for_area(area))
        plan = PlanBuilder.urn(urn).display("client:9020")
        mqp = MutantQueryPlan(plan)
        mqp.provenance.add("index-or:9020", ProvenanceAction.BOUND, 1.0, detail=urn)
        processor = _processor_for(namespace, "client:9020")
        processor.learn_from(mqp)
        assert processor.cache.lookup(area)[0].server == "index-or:9020"


# --------------------------------------------------------------------------- #
# The span codec: deserialize keeps verbatim data opaque, serialize replays it
# --------------------------------------------------------------------------- #

cargo_text = st.text(alphabet="ab &<>\"'é☕\n", max_size=6)


@st.composite
def cargo_items(draw, depth=2):
    """User data, including elements that look like plan-level <data><collection>."""
    tag = draw(st.sampled_from(["item", "data", "collection", "mqp", "urn"]))
    attributes = draw(st.dictionaries(st.sampled_from(["id", "name"]), cargo_text, max_size=2))
    if depth == 0 or draw(st.booleans()):
        return XMLElement(tag, attributes, [], draw(st.one_of(st.none(), cargo_text)))
    if draw(st.booleans()):
        nested = XMLElement("collection", {}, [draw(cargo_items(depth=depth - 1))])
        return XMLElement("data", attributes, [nested])
    return XMLElement(tag, attributes, draw(st.lists(cargo_items(depth=depth - 1), max_size=3)))


@st.composite
def plans_with_data(draw):
    """Plans with data leaves at several depths: nested, empty and named ones."""

    def leaf():
        kind = draw(st.sampled_from(["data", "data", "url", "urn"]))
        if kind == "url":
            return PlanBuilder.url("far:9020", "/x")
        if kind == "urn":
            return PlanBuilder.urn("urn:ForSale:Somewhere")
        items = draw(st.lists(cargo_items(), max_size=3))
        return PlanBuilder.data(items, name=draw(st.sampled_from([None, "kept", "é"])))

    def subplan(depth):
        if depth == 0:
            return leaf()
        shape = draw(st.sampled_from(["leaf", "select", "union", "join"]))
        if shape == "leaf":
            return leaf()
        if shape == "select":
            return subplan(depth - 1).select("price < 10")
        if shape == "union":
            return subplan(depth - 1).union(subplan(depth - 1))
        return subplan(depth - 1).join(subplan(depth - 1), on=("a", "b"))

    return subplan(3).display("client:9020")


def _reference_decode(document):
    return MutantQueryPlan.from_xml(parse_xml(document))


class TestSpanCodec:
    @settings(max_examples=60, deadline=None)
    @given(plan=plans_with_data(), pretty=st.booleans())
    def test_span_decode_equals_reference_decode(self, plan, pretty):
        mqp = MutantQueryPlan(plan, query_id="q-prop")
        mqp.provenance.add("a:1", ProvenanceAction.EVALUATED, 1.0, detail="select->3 items")
        reference_bytes = mqp_text(mqp)
        document = serialize_xml(parse_xml(reference_bytes), indent=2) if pretty else reference_bytes
        decoded = MutantQueryPlan.deserialize(document)
        reference = _reference_decode(document)
        # No tree was built for any leaf, yet the plans are equal ...
        assert all(leaf._tree is None for leaf in decoded.plan.verbatim_leaves())
        assert decoded.plan.root == reference.plan.root
        assert decoded.original.root == reference.original.root
        # ... and what goes back on the wire is what the reference path writes
        # (as received: pretty cargo stays pretty, and parses to the same).
        written = decoded.serialize()
        assert written == mqp_text(decoded)
        if not pretty:
            assert written == reference_bytes
        assert serialize_xml(parse_xml(written)) == reference_bytes

    def _forwarding_hop(self, namespace, document, address):
        """Receive, run the whole pipeline, forward: one server that cannot evaluate."""
        mqp = MutantQueryPlan.deserialize(document)
        (leaf,) = mqp.plan.verbatim_leaves()
        received = leaf.span
        result = _processor_for(namespace, address).process(mqp)
        assert result.action is ProcessingAction.FORWARD
        # The very same text object goes from the inbound document to the
        # outbound one: nothing re-serialized it, nothing parsed it.
        assert result.mqp.plan.verbatim_leaves()[0].span is received
        outbound = result.mqp.serialize()
        assert f"<collection>{received.source}</collection>" in outbound
        assert leaf._tree is None
        return outbound, received.source

    def _elements_built_over_three_hops(self, namespace, monkeypatch, cargo_size):
        items = [make_item(f"cd-{index:03d}", 7) for index in range(cargo_size)]
        plan = (
            PlanBuilder.data(items, name="carried")
            .union(PlanBuilder.url("far:9020", "/cds").select("price < 5"))
            .display("client:9020")
        )
        document = MutantQueryPlan(plan, query_id="q-hops").serialize()

        built = []
        trusted, validating = XMLElement._trusted.__func__, XMLElement.__init__

        def counting_trusted(cls, *args):
            built.append(1)
            return trusted(cls, *args)

        def counting_init(self, *args, **kwargs):
            built.append(1)
            validating(self, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(XMLElement, "_trusted", classmethod(counting_trusted))
            patch.setattr(XMLElement, "__init__", counting_init)
            spans = []
            for hop in ("hop1:9020", "hop2:9020", "hop3:9020"):
                document, span = self._forwarding_hop(namespace, document, hop)
                spans.append(span)
        assert spans[0] == spans[1] == spans[2]
        assert spans[0] == serialize_xml(XMLElement("collection", {}, items))
        leaf = MutantQueryPlan.deserialize(document).plan.verbatim_leaves()[0]
        assert leaf.cardinality() == cargo_size
        return len(built)

    def test_three_hops_forward_a_span_untouched(self, namespace, monkeypatch):
        small = self._elements_built_over_three_hops(namespace, monkeypatch, 3)
        large = self._elements_built_over_three_hops(namespace, monkeypatch, 300)
        # Every XMLElement construction goes through one of the two counted
        # entry points; a hundred times the cargo builds not one node more.
        assert 0 < small == large

    @pytest.mark.parametrize(
        "damage",
        [
            lambda doc: doc.replace("</title>", "</titel>", 1),       # mis-nested
            lambda doc: doc.replace("</item></collection>", "</collection>", 1),  # truncated
            lambda doc: doc.replace("<price>", "<price", 1),          # broken tag
        ],
    )
    def test_damaged_payload_inside_a_span_is_rejected_at_reception(self, cd_items, damage):
        plan = PlanBuilder.data(cd_items, name="cds").union(PlanBuilder.url("far:1", "/x")).display("c:1")
        document = MutantQueryPlan(plan).serialize()
        damaged = damage(document)
        assert damaged != document
        with pytest.raises(XMLParseError):
            MutantQueryPlan.deserialize(damaged)

    def test_fresh_result_is_serialized_once_and_measured_on_that_text(self, namespace, cd_items):
        processor = _processor_for(namespace, "here:9020", {"/cds": cd_items})
        plan = (
            PlanBuilder.url("here:9020", "/cds").select("price < 10")
            .union(PlanBuilder.url("far:9020", "/cds"))
            .display("client:9020")
        )
        result = processor.process(MutantQueryPlan(plan))
        (leaf,) = result.mqp.plan.verbatim_leaves()
        shipped = leaf.span.source
        assert shipped in result.mqp.serialize()
        items_text = "".join(serialize_xml(item) for item in leaf.items)
        assert shipped == f"<result>{items_text}</result>"
        assert leaf.annotations["stats.bytes"] == str(len(items_text.encode("utf-8")))
        assert leaf.annotations["stats.cardinality"] == "3"

    def test_wire_size_counts_utf8_bytes(self):
        item = make_item("Café ☕", 3)
        mqp = MutantQueryPlan(PlanBuilder.data([item]).display("c:1"))
        assert mqp.wire_size() == len(mqp.serialize().encode("utf-8")) > len(mqp.serialize())


# --------------------------------------------------------------------------- #
# Scatter: a union body leaves as one piece per server that can reduce it
# --------------------------------------------------------------------------- #


def _catalog_with_sellers(namespace, area, sellers):
    catalog = Catalog("index")
    for address, paths in sellers.items():
        catalog.register_server(
            ServerEntry(
                address,
                ServerRole.BASE,
                area,
                collections=[CollectionRef(address, path, path.lstrip("/"), 5) for path in paths],
            )
        )
    return catalog


class TestScatter:
    def test_branch_and_credit_ride_the_wire_only_on_pieces(self):
        plan = PlanBuilder.url("far:9020", "/cds").display("client:9020")
        whole = MutantQueryPlan(plan, query_id="q1")
        assert "branch" not in whole.serialize() and "credit" not in whole.serialize()
        assert whole.branch == () and whole.credit == 1
        piece = whole.piece(plan.copy(), (2, 17), Fraction(1, 191))
        document = piece.serialize()
        assert 'branch="2.17"' in document and 'credit="1/191"' in document
        decoded = MutantQueryPlan.deserialize(document)
        assert decoded.branch == (2, 17) and decoded.credit == Fraction(1, 191)
        assert decoded.query_id == "q1" and decoded.target == "client:9020"
        assert format_branch(()) == "" and parse_branch("") == ()
        with pytest.raises(PlanError):
            parse_branch("2.x")
        with pytest.raises(PlanError):
            MutantQueryPlan.deserialize(document.replace('"1/191"', '"1/0"'))

    def test_a_bound_union_scatters_one_piece_per_holder_in_plan_order(self, namespace):
        area = namespace.area(["USA/OR/Portland", "Music/CDs"])
        sellers = {"s1:9020": ["/cds", "/lps"], "s2:9020": ["/cds"], "s3:9020": ["/cds"]}
        processor = _processor_for(
            namespace, "index:9020", catalog=_catalog_with_sellers(namespace, area, sellers)
        )
        urn = str(InterestAreaURN.for_area(area))
        plan = PlanBuilder.urn(urn).select("price < 10").display("client:9020")
        mqp = MutantQueryPlan(plan, query_id="q1")
        result = processor.process(mqp, now=3.0)
        assert result.action is ProcessingAction.FORWARD and result.next_hop is None
        assert [piece.next_hop for piece in result.pieces] == list(sellers)
        tags = {piece.mqp.branch[0] for piece in result.pieces}
        assert len(tags) == 1  # one split, one lineage tag
        assert [piece.mqp.branch[1] for piece in result.pieces] == [0, 1, 2]
        assert [piece.mqp.credit for piece in result.pieces] == [Fraction(1, 3)] * 3
        first = result.pieces[0].mqp
        # s1's two collections travel together; each piece is a whole MQP.
        assert [ref.path for ref in first.plan.url_refs()] == ["/cds", "/lps"]
        assert first.query_id == "q1" and first.target == "client:9020"
        # No URN left to bind, improve or undo at a holder: the original stays
        # behind, and what arrives there has none (nothing is made up for it).
        assert first.original is None and mqp.original is not None
        assert "<original>" not in first.serialize() and "<original>" in mqp.serialize()
        assert MutantQueryPlan.deserialize(first.serialize()).original is None
        assert first.provenance.hop_count() == 1
        assert first.provenance.records[-1].detail == "s1:9020"
        assert mqp.provenance.hop_count() == 0  # each piece logs its own hop

    def test_the_original_travels_only_with_the_piece_that_has_a_urn_left(self, namespace):
        area = namespace.area(["USA/OR/Portland", "Music/CDs"])
        sellers = {"s1:9020": ["/cds"], "s2:9020": ["/cds"]}
        processor = _processor_for(
            namespace, "index:9020", catalog=_catalog_with_sellers(namespace, area, sellers)
        )
        urn, unbound = str(InterestAreaURN.for_area(area)), "urn:ForSale:Nowhere"
        plan = PlanBuilder.urn(urn).union(PlanBuilder.urn(unbound)).display("client:9020")
        result = processor.process(MutantQueryPlan(plan, query_id="q1"), now=3.0)
        *holders, residual = result.pieces
        assert [piece.next_hop for piece in holders] == list(sellers)
        for piece in holders:
            document = piece.mqp.serialize()
            assert piece.mqp.original is None and "<original>" not in document
            decoded = MutantQueryPlan.deserialize(document)
            assert decoded.original is None and "<original>" not in decoded.serialize()
            # The history still travels whole: it is what a holder learns from.
            assert [r.detail for r in decoded.provenance.records][:1] == [urn]
        assert residual.mqp.remaining_urns() == [unbound]
        carried = MutantQueryPlan.deserialize(residual.mqp.serialize()).original
        assert [ref.urn for ref in carried.urn_refs()] == [urn, unbound]
        assert carried.root == result.mqp.original.root

    def test_a_holder_learns_the_same_routes_from_a_slim_piece_as_from_a_fat_one(self, namespace):
        area = namespace.area(["USA/OR/Portland", "Music/CDs"])
        sellers = {"s1:9020": ["/cds"], "s2:9020": ["/cds"]}
        index = _processor_for(
            namespace, "index:9020", catalog=_catalog_with_sellers(namespace, area, sellers)
        )
        urn = str(InterestAreaURN.for_area(area))
        whole = MutantQueryPlan(PlanBuilder.urn(urn).select("price < 10").display("client:9020"))
        slim = index.process(whole, now=1.0).pieces[0].mqp
        fat = MutantQueryPlan.deserialize(slim.serialize())
        fat.original = whole.original
        assert "<original>" in fat.serialize() and "<original>" not in slim.serialize()
        learned = []
        for document in (slim.serialize(), fat.serialize()):
            holder = _processor_for(namespace, "s1:9020", {"/cds": [make_item("A", 5)]})
            arrived = MutantQueryPlan.deserialize(document)
            assert holder.process(arrived, now=2.0).action is ProcessingAction.DELIVER
            holder.learn_from(arrived)
            learned.append(list(holder.cache._entries))
        assert learned[0] == learned[1] == [(str(area), "index:9020")]

    def test_a_nested_split_divides_the_credit_again(self, namespace, cd_items):
        plan = (
            PlanBuilder.url("a:9020", "/cds")
            .union(PlanBuilder.url("b:9020", "/cds"))
            .display("client:9020")
        )
        parent = MutantQueryPlan(plan, query_id="q1").piece(plan, (9, 4), Fraction(1, 5))
        result = _processor_for(namespace, "hop:9020").process(parent)
        assert [piece.mqp.credit for piece in result.pieces] == [Fraction(1, 10)] * 2
        assert all(piece.mqp.branch[:2] == (9, 4) for piece in result.pieces)
        assert [piece.mqp.branch[3] for piece in result.pieces] == [0, 1]

    def test_held_data_goes_home_and_unbound_urns_stay_in_one_residual_piece(
        self, namespace, cd_items
    ):
        plan = (
            PlanBuilder.urn("urn:ForSale:Nowhere")
            .union(PlanBuilder.url("here:9020", "/cds").select("price < 10"))
            .union(PlanBuilder.url("far:9020", "/cds"))
            .union(PlanBuilder.urn("urn:ForSale:Elsewhere"))
            .display("client:9020")
        )
        processor = _processor_for(namespace, "here:9020", {"/cds": cd_items})
        result = processor.process(MutantQueryPlan(plan))
        held, far, residual = result.pieces  # plan order, the residual last
        assert held.next_hop is None and held.reason is None
        assert held.mqp.is_fully_evaluated() and len(held.mqp.plan.result().children) == 3
        assert far.next_hop == "far:9020"
        assert residual.mqp.remaining_urns() == ["urn:ForSale:Nowhere", "urn:ForSale:Elsewhere"]
        assert residual.next_hop is None and residual.reason == "stuck"  # nobody to ask
        assert sum(piece.mqp.credit for piece in result.pieces) == 1

    @pytest.mark.parametrize("shape", ["join", "top_n", "order_by", "aggregate"])
    def test_a_body_that_is_not_a_union_travels_as_one_piece(self, namespace, shape):
        union = PlanBuilder.url("a:9020", "/cds").union(PlanBuilder.url("b:9020", "/cds"))
        body = {
            "join": lambda: union.join(PlanBuilder.url("c:9020", "/tl"), on=("//title", "//title")),
            "top_n": lambda: union.top_n(3, "price"),
            "order_by": lambda: union.order_by("price"),
            "aggregate": lambda: union.aggregate("count"),
        }[shape]()
        mqp = MutantQueryPlan(body.display("client:9020"))
        result = _processor_for(namespace, "hop:9020").process(mqp)
        assert result.action is ProcessingAction.FORWARD
        (piece,) = result.pieces
        assert piece.mqp is mqp and piece.next_hop == "a:9020"
        assert mqp.branch == () and mqp.credit == 1

    def test_one_group_is_no_split(self, namespace):
        plan = (
            PlanBuilder.url("a:9020", "/cds")
            .union(PlanBuilder.url("a:9020", "/lps"))
            .display("client:9020")
        )
        mqp = MutantQueryPlan(plan)
        result = _processor_for(namespace, "hop:9020").process(mqp)
        assert [piece.mqp for piece in result.pieces] == [mqp]
        assert result.next_hop == "a:9020" and mqp.branch == ()

    def test_two_catalogs_splitting_one_plan_mark_rival_lineages(self, namespace):
        area = namespace.area(["USA/OR/Portland", "Music/CDs"])
        urn = str(InterestAreaURN.for_area(area))

        def split(sellers):
            catalog = _catalog_with_sellers(namespace, area, {s: ["/cds"] for s in sellers})
            plan = PlanBuilder.urn(urn).display("client:9020")
            result = _processor_for(namespace, "index:9020", catalog=catalog).process(
                MutantQueryPlan(plan)
            )
            return {piece.mqp.branch[0] for piece in result.pieces}

        same = split(["s1:9020", "s2:9020", "s3:9020"])
        assert same == split(["s1:9020", "s2:9020", "s3:9020"])  # same grouping, same tag
        assert same != split(["s1:9020", "s3:9020", "s4:9020"])  # also 3 pieces, another tag

    def test_a_dead_holder_costs_its_branch_only(self, namespace):
        plan = (
            PlanBuilder.url("up:9020", "/cds")
            .union(PlanBuilder.url("down:9020", "/cds"))
            .display("client:9020")
        )
        result = _processor_for(namespace, "hop:9020").process(
            MutantQueryPlan(plan), avoid={"down:9020"}
        )
        up, down = result.pieces
        assert up.next_hop == "up:9020" and up.reason is None
        assert down.next_hop is None and down.reason == "unreachable"


class _NothingShrinks(CostModel):
    """Every evaluable sub-plan looks result-growing: deferment's worst case."""

    def reduces_plan_size(self, node) -> bool:
        return False


class TestDefermentAtTheLastHolder:
    def test_the_whole_body_is_never_deferred(self, namespace, cd_items):
        """flash-200, data seed 23, q3: 33 of 36 answers, ``partial=True``.

        The last holder got ``union(data, data, select(url@here))``, the cost
        estimate of the union came out one rounding error above its inputs,
        deferment declined the only evaluable sub-plan — the entire body —
        and the plan came home stuck with just the carried leaves.
        """
        carried = [make_item(f"cd-{index}", 5) for index in range(4)]
        plan = (
            PlanBuilder.data(carried[:2])
            .union(PlanBuilder.data(carried[2:]))
            .union(PlanBuilder.url("here:9020", "/cds").select("price < 10"))
            .display("client:9020")
        )
        processor = MQPProcessor(
            "here:9020",
            Catalog("here:9020"),
            namespace,
            collections={"/cds": cd_items},
            optimizer=Optimizer(cost_model=_NothingShrinks()),
        )
        result = processor.process(MutantQueryPlan(plan))
        assert result.action is ProcessingAction.DELIVER
        assert len(result.mqp.plan.result().children) == 4 + 3

    def test_branches_of_a_union_body_are_shipped_not_deferred(self, namespace, cd_items):
        plan = (
            PlanBuilder.url("here:9020", "/cds")
            .select("price < 10")
            .union(PlanBuilder.url("far:9020", "/cds"))
            .display("client:9020")
        )
        processor = MQPProcessor(
            "here:9020",
            Catalog("here:9020"),
            namespace,
            collections={"/cds": cd_items},
            optimizer=Optimizer(cost_model=_NothingShrinks()),
        )
        held, far = processor.process(MutantQueryPlan(plan)).pieces
        assert held.mqp.is_fully_evaluated() and far.next_hop == "far:9020"

    def test_a_sub_plan_that_rides_on_is_still_deferred(self, namespace, cd_items):
        plan = (
            PlanBuilder.url("here:9020", "/cds")
            .select("price < 10")
            .join(PlanBuilder.url("far:9020", "/tl"), on=("//title", "//title"))
            .display("client:9020")
        )
        processor = MQPProcessor(
            "here:9020",
            Catalog("here:9020"),
            namespace,
            collections={"/cds": cd_items},
            optimizer=Optimizer(cost_model=_NothingShrinks()),
        )
        result = processor.process(MutantQueryPlan(plan))
        assert result.evaluated_subplans == 0 and result.next_hop == "far:9020"


class TestAuthorityAnswers:
    def _index(self, namespace, authority, known=()):
        catalog = Catalog("index")
        for address, role, area in known:
            catalog.register_server(ServerEntry(address, role, area))
        processor = _processor_for(namespace, "index:9020", catalog=catalog)
        processor.authority = authority
        return processor

    def test_a_covering_authority_with_no_source_answers_empty_and_complete(self, namespace):
        oregon = namespace.area(["USA/OR", "*"])
        query = namespace.area(["USA/OR/Portland", "Music/CDs"])
        meta = ("meta:9020", ServerRole.META_INDEX, namespace.top_area())
        processor = self._index(namespace, oregon, known=[meta])
        plan = PlanBuilder.urn(str(InterestAreaURN.for_area(query))).select("price < 5")
        result = processor.process(MutantQueryPlan(plan.display("client:9020")))
        assert result.action is ProcessingAction.DELIVER and result.reason is None
        assert result.mqp.plan.result().children == []

    def test_an_overlapping_index_keeps_routing(self, namespace):
        portland = namespace.area(["USA/OR/Portland", "*"])
        query = namespace.area(["USA/OR", "Music/CDs"])  # wider than the authority
        meta = ("meta:9020", ServerRole.META_INDEX, namespace.top_area())
        processor = self._index(namespace, portland, known=[meta])
        plan = PlanBuilder.urn(str(InterestAreaURN.for_area(query))).display("client:9020")
        result = processor.process(MutantQueryPlan(plan))
        assert result.action is ProcessingAction.FORWARD and result.next_hop == "meta:9020"

    def test_an_authority_asks_the_indexes_below_it_first(self, namespace):
        query = namespace.area(["USA/OR/Portland", "Music/CDs"])
        below = ("index-or:9020", ServerRole.INDEX, namespace.area(["USA/OR", "*"]))
        processor = self._index(namespace, namespace.top_area(), known=[below])
        plan = PlanBuilder.urn(str(InterestAreaURN.for_area(query))).display("client:9020")
        mqp = MutantQueryPlan(plan)
        assert processor.process(mqp).next_hop == "index-or:9020"
        # Once the plan has been there, nobody is left who could know more.
        asked = MutantQueryPlan(plan.copy())
        asked.provenance.add("index-or:9020", ProvenanceAction.FORWARDED, 1.0)
        assert processor.process(asked).action is ProcessingAction.DELIVER

    def test_without_authority_the_plan_is_stuck_as_before(self, namespace):
        query = namespace.area(["USA/OR/Portland", "Music/CDs"])
        processor = self._index(namespace, None)
        plan = PlanBuilder.urn(str(InterestAreaURN.for_area(query))).display("client:9020")
        result = processor.process(MutantQueryPlan(plan))
        assert result.action is ProcessingAction.STUCK and result.reason == "stuck"


class TestPartialReasons:
    def test_budgets_name_themselves(self, namespace):
        processor = _processor_for(namespace, "here:9020")
        plan = PlanBuilder.url("remote:9020", "/cds").display("client:9020")
        late = MutantQueryPlan(plan, preferences=QueryPreferences(target_time_ms=10))
        assert processor.process(late, now=100.0).reason == "time-budget"
        processor.max_hops = 1
        tired = MutantQueryPlan(plan.copy())
        tired.provenance.add("peer:1", ProvenanceAction.FORWARDED, 0.0)
        assert processor.process(tired).reason == "hop-budget"
        assert PARTIAL_REASONS.index("time-budget") < PARTIAL_REASONS.index("unreachable")


# --------------------------------------------------------------------------- #
# The leaf hop: a body whose every leaf is here skips bind, cost and policy
# --------------------------------------------------------------------------- #

HERE = "here:9020"

LEAF_HOPS = {
    "select(url)": lambda items: PlanBuilder.url(HERE, "/cds").select("price < 10"),
    # merge-adjacent-selects fires: the hop still logs ``reoptimized``.
    "select(select(url))": lambda items: (
        PlanBuilder.url(HERE, "/cds").select("price > 7").select("price < 10")
    ),
    # push-select-through-union fires, then the whole union is reduced.
    "select(union(url, url))": lambda items: (
        PlanBuilder.url(HERE, "/cds").union(PlanBuilder.url(HERE, "/lps")).select("price < 10")
    ),
    "select(data)": lambda items: PlanBuilder.data(items[:3], name="carried").select("price < 10"),
}

FULL_PIPELINE = {
    "urn": lambda items: PlanBuilder.urn("urn:ForSale:Portland-CDs").select("price < 10"),
    "remote-url": lambda items: (
        PlanBuilder.url(HERE, "/cds").union(PlanBuilder.url("far:9020", "/cds")).select("price < 10")
    ),
    "conjoint-or": lambda items: (
        PlanBuilder.url(HERE, "/cds").conjoint_or(PlanBuilder.url(HERE, "/lps")).select("price < 10")
    ),
    "bare-leaf": lambda items: PlanBuilder.url(HERE, "/cds"),
}


class TestLeafHop:
    def _holder(self, cd_items):
        return MQPProcessor(HERE, Catalog(HERE), collections={"/cds": cd_items, "/lps": cd_items[:2]})

    def _hops(self, processor, shape, cd_items, monkeypatch, full=False):
        """The same plan twice (the second a replay), counting optimizer runs."""
        calls = []
        optimize = Optimizer.optimize

        def spy(optimizer, *args, **kwargs):
            calls.append(args)
            return optimize(optimizer, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(Optimizer, "optimize", spy)
            if full:
                patch.setattr(MQPProcessor, "_is_leaf_hop", lambda self, mqp: False)
            results = [
                processor.process(
                    MutantQueryPlan(shape(cd_items).display("client:9020"), query_id=f"q{n}"),
                    now=1.0,
                )
                for n in range(2)
            ]
        return results, len(calls)

    @staticmethod
    def _observed(processor, results):
        return (
            [result.action for result in results],
            [result.mqp.serialize() for result in results],
            [
                [(r.server, r.action, r.detail) for r in result.mqp.provenance.records]
                for result in results
            ],
            [(result.bound_urns, result.evaluated_subplans) for result in results],
            (processor.evaluations.hits, processor.evaluations.misses),
            processor.subplans_evaluated,
        )

    @pytest.mark.parametrize("shape", list(LEAF_HOPS))
    def test_a_leaf_hop_runs_no_optimizer_and_answers_as_the_full_pipeline(
        self, cd_items, shape, monkeypatch
    ):
        leaf = self._holder(cd_items)
        results, optimized = self._hops(leaf, LEAF_HOPS[shape], cd_items, monkeypatch)
        assert optimized == 0
        full = self._holder(cd_items)
        reference, full_optimized = self._hops(
            full, LEAF_HOPS[shape], cd_items, monkeypatch, full=True
        )
        assert full_optimized == 2
        assert self._observed(leaf, results) == self._observed(full, reference)
        assert [result.action for result in results] == [ProcessingAction.DELIVER] * 2
        assert leaf.evaluations.hits == 1  # the second plan is a replay
        actions = [r.action for r in results[0].mqp.provenance.records]
        rewritten = shape in ("select(select(url))", "select(union(url, url))")
        assert (ProvenanceAction.REOPTIMIZED in actions) is rewritten
        assert actions[-1] is ProvenanceAction.EVALUATED

    @pytest.mark.parametrize("shape", list(FULL_PIPELINE))
    def test_anything_else_takes_the_full_pipeline(self, cd_items, shape, monkeypatch):
        processor = self._holder(cd_items)
        plan = MutantQueryPlan(FULL_PIPELINE[shape](cd_items).display("client:9020"))
        assert not processor._is_leaf_hop(plan)
        _, optimized = self._hops(processor, FULL_PIPELINE[shape], cd_items, monkeypatch)
        assert optimized == 2

    def test_a_free_rider_takes_the_full_pipeline_and_evaluates_nothing(
        self, cd_items, monkeypatch
    ):
        processor = self._holder(cd_items)
        processor.free_ride = True
        plan = MutantQueryPlan(LEAF_HOPS["select(url)"](cd_items).display("client:9020"))
        assert not processor._is_leaf_hop(plan)
        results, optimized = self._hops(processor, LEAF_HOPS["select(url)"], cd_items, monkeypatch)
        assert optimized == 0 and processor.subplans_evaluated == 0
        assert all(not result.mqp.is_fully_evaluated() for result in results)

    def test_a_union_that_collapses_to_a_bare_leaf_is_pinned_as_before(
        self, cd_items, monkeypatch
    ):
        """``union(url)`` passes the leaf-hop test, and the rewrite leaves a bare leaf."""

        def shape(items):
            return PlanBuilder.url(HERE, "/cds").union()

        leaf, full = self._holder(cd_items), self._holder(cd_items)
        results, optimized = self._hops(leaf, shape, cd_items, monkeypatch)
        reference, _ = self._hops(full, shape, cd_items, monkeypatch, full=True)
        assert optimized == 0
        assert self._observed(leaf, results) == self._observed(full, reference)
        assert results[0].mqp.plan.result().children == cd_items


# --------------------------------------------------------------------------- #
# learn_from: one parse per distinct record text, one area per peer
# --------------------------------------------------------------------------- #


def _bound_by(*records):
    mqp = MutantQueryPlan(PlanBuilder.url("x:9020", "/a").display("client:9020"))
    for server, detail in records:
        mqp.provenance.add(server, ProvenanceAction.BOUND, 1.0, detail=detail)
    return mqp


def _learn_by_parsing(processor, mqp):
    """What ``learn_from`` did before it was memoized: one parse per record."""
    for record in mqp.provenance.records:
        if record.action is ProvenanceAction.BOUND and record.server != processor.address:
            try:
                parsed = parse_urn(record.detail)
            except URNError:
                continue
            if isinstance(parsed, InterestAreaURN):
                processor.cache.remember(parsed.area, record.server)


class TestLearnFromMemo:
    def test_two_peers_learning_one_record_hold_distinct_areas(self, namespace):
        area = namespace.area(["USA/OR/Portland", "Music/CDs"])
        mqp = _bound_by(("index-or:9020", str(InterestAreaURN.for_area(area))))
        peers = [_processor_for(namespace, address) for address in ("a:9020", "b:9020")]
        for peer in peers:
            peer.learn_from(mqp)
        (mine,), (theirs,) = (list(peer.cache._entries.values()) for peer in peers)
        assert mine.area == theirs.area == area and mine.area is not theirs.area
        mine.area.add(InterestCell.of("USA/WA", "Music/CDs"))
        assert theirs.area == area  # one peer's area is not another's
        late = _processor_for(namespace, "c:9020")
        late.learn_from(mqp)
        assert late.cache.lookup(area)[0].area == area  # nor the memo's

    def test_the_memo_stays_within_its_bound(self, namespace):
        bound = _urn_parts.cache_info().maxsize
        processor = _processor_for(namespace, "a:9020")
        processor.learn_from(_bound_by(*(("i:9020", f"urn:ForSale:c{n}") for n in range(bound + 8))))
        assert 0 < _urn_parts.cache_info().currsize <= bound

    def test_a_malformed_urn_detail_is_skipped(self, namespace):
        area = namespace.area(["USA/OR/Portland", "Music/CDs"])
        processor = _processor_for(namespace, "a:9020")
        processor.learn_from(
            _bound_by(
                ("i:9020", "not a urn"),
                ("i:9020", "urn:InterestArea:((USA"),
                ("i:9020", "urn:InterestArea:(USA.OR,)"),
                ("i:9020", ""),
                ("i:9020", "urn:ForSale:Portland-CDs"),
                ("j:9020", str(InterestAreaURN.for_area(area))),
            )
        )
        assert list(processor.cache._entries) == [(str(area), "j:9020")]

    def test_the_routing_cache_order_is_that_of_one_parse_per_record(self, namespace):
        areas = [
            namespace.area(cell)
            for cell in (
                ["USA/OR/Portland", "Music/CDs"],
                ["USA/OR", "*"],
                ["USA/WA/Seattle", "Furniture"],
                ["USA/OR/Portland", "Music/CDs"],  # the first area again, another binder
                ["USA/WA", "Music"],
            )
        ]
        urns = [str(InterestAreaURN.for_area(area)) for area in areas]
        hops = [
            _bound_by(("i1:9020", urns[0]), ("i2:9020", urns[1])),
            _bound_by(("i3:9020", urns[2]), ("here:9020", urns[4]), ("i1:9020", urns[0])),
            _bound_by(("i1:9020", "urn:ForSale:x"), ("i2:9020", urns[4]), ("i4:9020", urns[3])),
            _bound_by(("i2:9020", urns[1]), ("i3:9020", urns[2]), ("i5:9020", urns[4])),
        ]
        memoized, parsing = (
            MQPProcessor("here:9020", Catalog("here:9020"), cache=RoutingCache(capacity=4))
            for _ in range(2)
        )
        for mqp in hops:
            memoized.learn_from(mqp)
            _learn_by_parsing(parsing, mqp)
            assert list(memoized.cache._entries) == list(parsing.cache._entries)
            assert [entry.area for entry in memoized.cache._entries.values()] == [
                entry.area for entry in parsing.cache._entries.values()
            ]
        assert len(memoized.cache._entries) == 4  # the capacity evicted in LRU order


# --------------------------------------------------------------------------- #
# Routing: one lookup per area per process call
# --------------------------------------------------------------------------- #


class _LookupPerSite(MQPProcessor):
    """Routing as it was before the per-call memo: binding and routing each
    look the area up."""

    def _routes_for(self, urn, routes):
        return self._routing_servers_for(urn.area)


class TestOneRoutingLookupPerArea:
    def _router(self, cls, namespace):
        oregon, wash = namespace.area(["USA/OR", "*"]), namespace.area(["USA/WA", "*"])
        catalog = Catalog("meta:9020")
        catalog.register_server(ServerEntry("idx-or:9020", ServerRole.INDEX, oregon, authoritative=True))
        catalog.register_server(ServerEntry("idx-wa:9020", ServerRole.INDEX, wash))
        catalog.register_server(ServerEntry("meta-2:9020", ServerRole.META_INDEX, namespace.top_area()))
        cache = RoutingCache(capacity=8)
        for area, server in (
            (oregon, "seen-or:9020"),
            (namespace.area(["France", "*"]), "seen-fr:9020"),
            (namespace.top_area(), "seen-top:9020"),
            (wash, "seen-wa:9020"),
            (namespace.area(["USA/CA", "*"]), "seen-ca:9020"),
        ):
            cache.remember(area, server)
        return cls("meta:9020", catalog, namespace, cache=cache)

    def _plan(self, namespace):
        portland, seattle = (
            str(InterestAreaURN.for_area(namespace.area(cell)))
            for cell in (["USA/OR/Portland", "Music/CDs"], ["USA/WA/Seattle", "Furniture"])
        )
        plan = (
            PlanBuilder.urn(portland)
            .union(PlanBuilder.urn(seattle), PlanBuilder.url("far:9020", "/x"))
            .display("client:9020")
        )
        return MutantQueryPlan(plan, query_id="q-routes")

    def test_each_area_is_looked_up_once_and_routes_as_before(self, namespace, monkeypatch):
        looked_up = []
        lookup = MQPProcessor._routing_servers_for

        def counting(self, area):
            looked_up.append((type(self), str(area)))
            return lookup(self, area)

        monkeypatch.setattr(MQPProcessor, "_routing_servers_for", counting)
        memoized, per_site = (self._router(cls, namespace) for cls in (MQPProcessor, _LookupPerSite))
        before = list(memoized.cache._entries)
        once, twice = (
            processor.process(self._plan(namespace), now=1.0) for processor in (memoized, per_site)
        )
        areas = [area for who, area in looked_up if who is MQPProcessor]
        assert len(areas) == len(set(areas)) == 2  # bound and routed on one lookup each
        assert sorted(area for who, area in looked_up if who is _LookupPerSite) == sorted(areas * 2)
        # The second lookup changed nothing but the routing cache's hit counter.
        assert len(once.pieces) == 2  # the URL branch scattered from the URN branches
        assert [(piece.next_hop, piece.reason, piece.mqp.serialize()) for piece in once.pieces] == [
            (piece.next_hop, piece.reason, piece.mqp.serialize()) for piece in twice.pieces
        ]
        assert once.route_candidates == twice.route_candidates
        assert list(memoized.cache._entries) == list(per_site.cache._entries) != before
        assert memoized.cache.hits == per_site.cache.hits // 2 > 0

    def test_a_bound_area_needs_no_routing_lookup(self, namespace, monkeypatch):
        area = namespace.area(["USA/OR/Portland", "Music/CDs"])
        processor = _processor_for(
            namespace, "index:9020",
            catalog=_catalog_with_sellers(namespace, area, {"s1:9020": ["/cds"]}),
        )
        monkeypatch.setattr(
            MQPProcessor, "_routing_servers_for", lambda self, area: pytest.fail("looked up")
        )
        plan = PlanBuilder.urn(str(InterestAreaURN.for_area(area))).display("client:9020")
        assert processor.process(MutantQueryPlan(plan)).next_hop == "s1:9020"
