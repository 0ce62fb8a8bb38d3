"""Tests for the XML wire format of query plans (MQP encoding)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.algebra import (
    DATA_SPANS,
    PlanBuilder,
    VerbatimData,
    parse_plan,
    plan_from_xml,
    plan_to_xml,
    plan_wire_size,
    serialize_plan,
)
from repro.errors import PlanError, PlanSerializationError
from repro.xmlmodel import (
    XMLElement,
    XMLSpan,
    parse_xml,
    serialize_xml,
    serialized_size,
    text_element,
)
from tests.conftest import make_item


def build_reference_plan(cd_items):
    return (
        PlanBuilder.urn("urn:ForSale:Portland-CDs")
        .select("price < 10")
        .join(PlanBuilder.url("http://10.2.3.4:9020", "/cds"), on=("//title", "//CD/title"))
        .union(PlanBuilder.data(cd_items, name="favorites"))
        .top_n(5, "//price", descending=False)
        .display("129.95.50.105:9020")
    )


class TestRoundTrip:
    def test_reference_plan_roundtrip(self, cd_items):
        plan = build_reference_plan(cd_items)
        document = serialize_plan(plan)
        restored = parse_plan(document)
        assert restored.root == plan.root
        assert restored.target == plan.target

    def test_roundtrip_preserves_annotations(self, cd_items):
        plan = PlanBuilder.data(cd_items, name="cds").select("price < 10").display("c:1")
        plan.root.children[0].annotate("stats.cardinality", 42)
        restored = parse_plan(serialize_plan(plan))
        assert restored.root.children[0].annotations["stats.cardinality"] == "42"

    def test_roundtrip_every_operator(self, cd_items):
        plan = (
            PlanBuilder.data(cd_items, name="cds")
            .select("price < 10")
            .project([("title", "title"), ("price", "price")])
            .order_by("price")
            .top_n(3, "price", descending=False)
            .display("c:1")
        )
        assert parse_plan(serialize_plan(plan)).root == plan.root

    def test_roundtrip_aggregate_and_difference(self, cd_items):
        plan = (
            PlanBuilder.data(cd_items)
            .difference(PlanBuilder.data(cd_items[:1]), key_path="title")
            .aggregate("count")
            .display("c:1")
        )
        assert parse_plan(serialize_plan(plan)).root == plan.root

    def test_roundtrip_conjoint_or(self, cd_items):
        plan = (
            PlanBuilder.url("r:9020", "/a")
            .conjoint_or(PlanBuilder.url("s:9020", "/a"))
            .display("c:1")
        )
        assert parse_plan(serialize_plan(plan)).root == plan.root

    def test_verbatim_data_contents_survive(self, cd_items):
        plan = PlanBuilder.data(cd_items, name="cds").display("c:1")
        restored = parse_plan(serialize_plan(plan))
        titles = [item.child_text("title") for item in restored.verbatim_leaves()[0].items]
        assert titles == [item.child_text("title") for item in cd_items]

    def test_pretty_printed_form_parses(self, cd_items):
        plan = build_reference_plan(cd_items)
        assert parse_plan(serialize_plan(plan, indent=2)).root == plan.root


class TestWireSize:
    def test_wire_size_grows_with_embedded_data(self, cd_items):
        empty = PlanBuilder.urn("urn:ForSale:Portland-CDs").display("c:1")
        loaded = PlanBuilder.data(cd_items, name="cds").display("c:1")
        assert plan_wire_size(loaded) > plan_wire_size(empty)

    def test_wire_size_matches_serialization(self, cd_items):
        plan = build_reference_plan(cd_items)
        assert plan_wire_size(plan) == len(serialize_plan(plan).encode("utf-8"))


class TestErrors:
    def test_unknown_operator_rejected(self):
        with pytest.raises(PlanSerializationError):
            plan_from_xml(parse_xml("<mqp><teleport target='x'/></mqp>"))

    def test_missing_required_attribute(self):
        with pytest.raises(PlanSerializationError):
            parse_plan("<mqp><select><urn name='urn:A:b'/></select></mqp>")

    def test_join_arity_checked(self):
        with pytest.raises(PlanSerializationError):
            parse_plan(
                "<mqp><join left-path='a' right-path='b'><urn name='urn:A:b'/></join></mqp>"
            )

    def test_wrapper_element_required(self):
        with pytest.raises(PlanSerializationError):
            plan_from_xml(parse_xml("<urn name='urn:A:b'/>"))

    def test_data_without_collection_rejected(self):
        with pytest.raises(PlanSerializationError):
            parse_plan("<mqp><data name='x'/></mqp>")


class TestPropertyBasedRoundTrip:
    @settings(max_examples=30, deadline=None)
    @given(
        prices=st.lists(st.integers(min_value=1, max_value=500), min_size=0, max_size=8),
        threshold=st.integers(min_value=1, max_value=500),
        target=st.text(
            alphabet=st.characters(whitelist_categories=("Ll", "Nd")), min_size=1, max_size=12
        ),
    )
    def test_select_over_data_roundtrip(self, prices, threshold, target):
        items = [make_item(f"cd-{index}", price) for index, price in enumerate(prices)]
        plan = (
            PlanBuilder.data(items, name="cds")
            .select(f"price < {threshold}")
            .display(f"{target}:9020")
        )
        restored = parse_plan(serialize_plan(plan))
        assert restored.root == plan.root
        assert restored.target == plan.target


class TestVerbatimSpans:
    """A data leaf owns its collection as a tree, as wire text, or both."""

    def _span_leaf(self, items):
        return VerbatimData(XMLSpan(serialize_xml(XMLElement("collection", {}, items))), "cds")

    def test_span_leaf_parses_on_first_use_only(self, cd_items):
        leaf = self._span_leaf(cd_items)
        assert leaf._tree is None
        assert leaf.serialized_size() == len(leaf.span.source)
        assert leaf._tree is None  # its size is the length of the text
        assert leaf.cardinality() == len(cd_items)
        assert leaf.items == cd_items
        assert leaf.collection is leaf.collection  # parsed once, kept

    def test_tree_leaf_serializes_once(self, cd_items):
        leaf = VerbatimData.from_items(cd_items, name="cds")
        assert leaf._span is None
        first = leaf.span
        assert first.source == serialize_xml(leaf.collection)
        assert leaf.span is first
        assert leaf.items_size() == sum(serialized_size(item) for item in cd_items)
        assert leaf.serialized_size() == serialized_size(leaf.collection)

    def test_items_size_of_empty_text_and_non_ascii_collections(self):
        assert VerbatimData.from_items([]).items_size() == 0
        assert VerbatimData(text_element("note", "é")).items_size() == 0
        items = [make_item("Café ☕", 3), make_item("Ünïcode", 4)]
        leaf = VerbatimData(XMLElement("cds", {"lang": "fr ☕"}, items))
        assert leaf.items_size() == sum(serialized_size(item) for item in items)

    def test_copy_shares_both_forms(self, cd_items):
        for leaf in (self._span_leaf(cd_items), VerbatimData.from_items(cd_items)):
            leaf.annotate("stats.cardinality", 5)
            leaf.span, leaf.collection  # materialize both forms
            clone = leaf.copy()
            assert clone is not leaf and clone == leaf
            assert clone.span is leaf.span and clone.collection is leaf.collection
            assert clone.annotations == leaf.annotations
            assert clone.annotations is not leaf.annotations

    def test_opaque_wire_tree_carries_the_span_and_writes_reference_bytes(self, cd_items):
        plan = build_reference_plan(cd_items)
        reference = serialize_xml(plan_to_xml(plan))
        assert serialize_xml(plan_to_xml(plan, opaque=True)) == reference
        restored = plan_from_xml(parse_xml(reference, opaque=DATA_SPANS))
        (leaf,) = restored.verbatim_leaves()
        assert leaf._tree is None and leaf.name == "favorites"
        assert serialize_xml(plan_to_xml(restored, opaque=True)) == reference
        assert leaf._tree is None
        # The generic pair builds the tree and agrees.
        assert serialize_xml(plan_to_xml(restored)) == reference
        assert restored.root == plan.root

    def test_foreign_span_is_forwarded_as_received_and_equal_after_parsing(self, cd_items):
        foreign = serialize_xml(XMLElement("collection", {}, cd_items), indent=4).replace('"', "'")
        document = f"<mqp><data name='cds'><collection>\n{foreign}</collection></data></mqp>"
        plan = plan_from_xml(parse_xml(document, opaque=DATA_SPANS))
        assert foreign.strip() in serialize_xml(plan_to_xml(plan, opaque=True))
        assert plan.root == parse_plan(document).root
        assert serialize_plan(plan) == serialize_plan(parse_plan(document))

    def test_rejects_non_xml_collections(self):
        with pytest.raises(PlanError):
            VerbatimData("<collection/>")
