"""Tests for the local query engine (plan interpreter + physical operators)."""

import pytest

from repro.algebra import PlanBuilder, URLRef
from repro.engine import QueryEngine
from repro.engine.operators import (
    stream_aggregate,
    stream_difference,
    stream_join,
    stream_order_by,
    stream_project,
    stream_select,
    stream_top_n,
    stream_union,
)
from repro.algebra import parse_predicate
from repro.errors import EvaluationError
from repro.xmlmodel import element, text_element
from tests.conftest import make_item


class TestPhysicalOperators:
    def test_select(self, cd_items):
        cheap = list(stream_select(cd_items, parse_predicate("price < 10")))
        assert {item.child_text("title") for item in cheap} == {"Abbey Road", "Blue Train", "Green Onions"}

    def test_project(self, cd_items):
        projected = list(stream_project(cd_items, [("title", "t"), ("price", "p")], item_tag="row"))
        assert projected[0].tag == "row"
        assert projected[0].child_text("t") == "Abbey Road"
        assert len(projected) == len(cd_items)

    def test_join_inner(self):
        left = [make_item("A", 5), make_item("B", 6)]
        right = [
            element("CD", {}, text_element("title", "A"), text_element("song", "s1")),
            element("CD", {}, text_element("title", "C"), text_element("song", "s2")),
        ]
        joined = list(stream_join(left, right, "//title", "//CD/title"))
        assert len(joined) == 1
        assert joined[0].tag == "tuple"
        assert len(joined[0].children) == 2

    def test_join_left_outer_keeps_unmatched(self):
        left = [make_item("A", 5), make_item("B", 6)]
        right = [element("CD", {}, text_element("title", "A"))]
        joined = list(stream_join(left, right, "//title", "//title", join_type="left_outer"))
        assert len(joined) == 2
        unmatched = [item for item in joined if len(item.children) == 1]
        assert len(unmatched) == 1

    def test_join_multivalued_paths(self):
        favorites = [element("fav", {}, text_element("song", "x"), text_element("song", "y"))]
        listings = [element("CD", {}, text_element("title", "T"), text_element("song", "y"))]
        joined = list(stream_join(favorites, listings, "//song", "//song"))
        assert len(joined) == 1

    def test_join_rejects_unknown_type(self):
        with pytest.raises(EvaluationError):
            list(stream_join([], [], "a", "b", join_type="full_outer"))

    def test_union_concatenates(self, cd_items):
        merged = list(stream_union([cd_items[:2], cd_items[2:]]))
        assert len(merged) == len(cd_items)

    def test_difference_by_key(self, cd_items):
        remaining = list(stream_difference(cd_items, cd_items[:2], key_path="title"))
        assert len(remaining) == len(cd_items) - 2

    def test_difference_structural(self, cd_items):
        assert list(stream_difference(cd_items, [item.copy() for item in cd_items])) == []

    def test_aggregate_count_and_avg(self, cd_items):
        count = list(stream_aggregate(cd_items, "count"))
        assert count[0].child_text("value") == str(len(cd_items))
        average = list(stream_aggregate(cd_items, "avg", value_path="price"))
        assert float(average[0].child_text("value")) == pytest.approx(10.2)

    def test_aggregate_grouped(self, furniture_items):
        groups = list(stream_aggregate(furniture_items, "count", group_path="city"))
        assert len(groups) == 3
        by_group = {item.child_text("group"): item.child_text("value") for item in groups}
        assert by_group["USA/OR/Portland"] == "2"

    def test_aggregate_count_on_empty(self):
        result = list(stream_aggregate([], "count"))
        assert result[0].child_text("value") == "0"

    def test_aggregate_non_numeric_raises(self, cd_items):
        with pytest.raises(EvaluationError):
            list(stream_aggregate(cd_items, "sum", value_path="title"))

    def test_order_by_numeric_and_topn(self, cd_items):
        ordered = list(stream_order_by(cd_items, "price"))
        prices = [float(item.child_text("price")) for item in ordered]
        assert prices == sorted(prices)
        top = list(stream_top_n(cd_items, 2, "price", descending=True))
        assert [item.child_text("title") for item in top] == ["Giant Steps", "Kind of Blue"]

    def test_order_by_missing_values_sort_last(self, cd_items):
        items = cd_items + [element("item", {}, text_element("title", "No price"))]
        ordered = list(stream_order_by(items, "price"))
        assert ordered[-1].child_text("title") == "No price"


class TestQueryEngine:
    def test_full_plan_evaluation(self, cd_items):
        plan = (
            PlanBuilder.data(cd_items, name="cds")
            .select("price < 10")
            .project([("title", "title")])
            .display("client:9020")
        )
        engine = QueryEngine()
        result = engine.evaluate(plan)
        assert {item.child_text("title") for item in result} == {
            "Abbey Road",
            "Blue Train",
            "Green Onions",
        }
        assert engine.operators_evaluated >= 3

    def test_conjoint_or_falls_back_to_first_branch(self, cd_items):
        plan = (
            PlanBuilder.data(cd_items[:2], name="a")
            .conjoint_or(PlanBuilder.data(cd_items, name="b"))
            .plan()
        )
        assert len(QueryEngine().evaluate(plan)) == 2

    def test_unresolved_leaf_raises(self):
        plan = PlanBuilder.url("remote:9020", "/cds").select("price < 10").plan()
        with pytest.raises(EvaluationError):
            QueryEngine().evaluate(plan)

    def test_resolver_supplies_url_data(self, cd_items):
        def resolver(leaf):
            if isinstance(leaf, URLRef) and leaf.url == "remote:9020":
                return cd_items
            return None

        plan = PlanBuilder.url("remote:9020", "/cds").select("price < 10").plan()
        assert len(QueryEngine(resolver).evaluate(plan)) == 3

    def test_evaluate_collection_wraps_items(self, cd_items):
        collection = QueryEngine().evaluate_collection(PlanBuilder.data(cd_items).build())
        assert collection.tag == "result"
        assert len(collection.children) == len(cd_items)

    def test_multiway_join_matches_central_answer(self, cd_items):
        listings = [
            element("CD", {}, text_element("title", item.child_text("title")), text_element("song", f"s{i}"))
            for i, item in enumerate(cd_items)
        ]
        favorites = [element("fav", {}, text_element("song", "s0")), element("fav", {}, text_element("song", "s2"))]
        plan = (
            PlanBuilder.data(cd_items, name="cds")
            .select("price < 10")
            .join(PlanBuilder.data(listings, name="tl"), on=("//title", "//CD/title"))
            .join(PlanBuilder.data(favorites, name="fav"), on=("//song", "//fav/song"))
            .plan()
        )
        result = QueryEngine().evaluate(plan)
        titles = {title.text for item in result for title in item.iter_tag("title")}
        assert titles == {"Abbey Road", "Blue Train"}
