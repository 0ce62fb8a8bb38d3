"""Tests for the XPath-lite evaluator."""

import pytest

from repro.algebra.expressions import parse_predicate
from repro.errors import PathSyntaxError
from repro.xmlmodel import (
    element,
    evaluate_path,
    evaluate_path_values,
    parse_path,
    text_element,
)


@pytest.fixture()
def document():
    return element(
        "data",
        {"id": "root"},
        element(
            "item",
            {"id": "245"},
            text_element("title", "Putter"),
            text_element("price", "45"),
        ),
        element(
            "item",
            {"id": "246"},
            text_element("title", "Driver"),
            text_element("price", "120"),
        ),
        element(
            "bundle",
            {},
            element("item", {"id": "300"}, text_element("title", "Irons"), text_element("price", "80")),
        ),
    )


class TestParsing:
    def test_rejects_empty(self):
        with pytest.raises(PathSyntaxError):
            parse_path("")

    def test_rejects_text_in_middle(self):
        with pytest.raises(PathSyntaxError):
            parse_path("a/text()/b")

    def test_rejects_attribute_in_middle(self):
        with pytest.raises(PathSyntaxError):
            parse_path("a/@id/b")

    def test_rejects_unbalanced_predicate(self):
        with pytest.raises(PathSyntaxError):
            parse_path("item[foo")

    def test_parse_records_source(self):
        assert parse_path(" item/price ").source == "item/price"


class TestCompiledOnce:
    def test_an_invalid_path_raises_on_every_call(self):
        for _ in range(3):  # a failure is never remembered
            with pytest.raises(PathSyntaxError):
                parse_path("cd[price <")
            with pytest.raises(PathSyntaxError):
                evaluate_path_values(element("item", {}), "a/text()/b")

    def test_a_predicate_over_many_items_parses_each_of_its_paths_once(self):
        predicate = parse_predicate("cost-once < 10 and maker-once = 'x'")
        items = [
            element("item", {}, text_element("cost-once", n), text_element("maker-once", "x"))
            for n in range(40)
        ]
        before = parse_path.cache_info()
        assert sum(predicate.evaluate(item) for item in items) == 10
        after = parse_path.cache_info()
        assert after.misses - before.misses == 2  # the two paths, not 2 x 40
        assert after.hits - before.hits == 40 + 10 - 2  # `and` asks the maker of ten


class TestChildSteps:
    def test_relative_child_path(self, document):
        assert len(evaluate_path(document, "item")) == 2

    def test_absolute_path_matches_root_tag(self, document):
        assert len(evaluate_path(document, "/data/item")) == 2
        assert evaluate_path(document, "/other/item") == []

    def test_nested_path(self, document):
        values = evaluate_path_values(document, "item/title")
        assert values == ["Putter", "Driver"]

    def test_wildcard_step(self, document):
        assert len(evaluate_path(document, "*")) == 3

    def test_missing_path_returns_empty(self, document):
        assert evaluate_path(document, "nothing/here") == []


class TestDescendantSteps:
    def test_descendant_finds_nested(self, document):
        assert len(evaluate_path(document, "//item")) == 3

    def test_descendant_values(self, document):
        assert set(evaluate_path_values(document, "//title")) == {"Putter", "Driver", "Irons"}

    def test_no_duplicates_in_document_order(self, document):
        ids = [node.get("id") for node in evaluate_path(document, "//item")]
        assert ids == ["245", "246", "300"]


class TestPredicates:
    def test_attribute_equality(self, document):
        nodes = evaluate_path(document, "item[@id = '245']")
        assert len(nodes) == 1
        assert nodes[0].child_text("title") == "Putter"

    def test_numeric_comparison_on_child(self, document):
        nodes = evaluate_path(document, "//item[price < 100]")
        assert {node.get("id") for node in nodes} == {"245", "300"}

    def test_existence_predicate(self, document):
        assert len(evaluate_path(document, "item[title]")) == 2
        assert evaluate_path(document, "item[missing]") == []

    def test_positional_predicate(self, document):
        nodes = evaluate_path(document, "item[2]")
        assert [node.get("id") for node in nodes] == ["246"]

    def test_attribute_presence_predicate(self, document):
        assert len(evaluate_path(document, "//item[@id]")) == 3

    def test_paper_catalog_entry_style(self, document):
        # (http://10.3.4.5, /data[id=245]) -- id here is a child-element test
        data = element("data", {}, element("collection", {}, text_element("id", "245")))
        assert len(evaluate_path(data, "/data/collection[id = 245]")) == 1


class TestValueExtraction:
    def test_attribute_extraction(self, document):
        assert evaluate_path_values(document, "item/@id") == ["245", "246"]

    def test_text_function(self, document):
        assert evaluate_path_values(document, "item/title/text()") == ["Putter", "Driver"]

    def test_element_text_fallback(self, document):
        assert evaluate_path_values(document, "item/price") == ["45", "120"]
