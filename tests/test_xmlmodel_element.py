"""Tests for the XML element tree model."""

import operator

import pytest

from repro.xmlmodel import XMLElement, element, parse_xml, text_element
from repro.xmlmodel.element import NO_ATTRIBUTES, NO_CHILDREN


class TestConstruction:
    def test_simple_element(self):
        node = XMLElement("item", {"id": "1"})
        assert node.tag == "item"
        assert node.get("id") == "1"
        assert len(node) == 0

    def test_attribute_values_are_strings(self):
        node = XMLElement("item", {"price": 10.5, "count": 3})
        assert node.get("price") == "10.5"
        assert node.get("count") == "3"

    def test_invalid_tag_rejected(self):
        with pytest.raises(ValueError):
            XMLElement("")
        with pytest.raises(ValueError):
            XMLElement("bad tag")

    def test_non_element_child_rejected(self):
        with pytest.raises(TypeError):
            XMLElement("parent", children=["not an element"])  # type: ignore[list-item]

    def test_element_helper_nests_children(self):
        node = element("parent", {}, text_element("child", "x"), text_element("child", "y"))
        assert [child.text for child in node.find_all("child")] == ["x", "y"]

    def test_text_element_coerces_value(self):
        assert text_element("price", 12).text == "12"


class TestAccessors:
    def test_find_returns_first_match(self):
        node = element("p", {}, text_element("a", "1"), text_element("a", "2"))
        assert node.find("a").text == "1"
        assert node.find("missing") is None

    def test_child_text_with_default(self):
        node = element("p", {}, text_element("a", "1"))
        assert node.child_text("a") == "1"
        assert node.child_text("b", "fallback") == "fallback"

    def test_append_returns_child(self):
        parent = XMLElement("p")
        child = parent.append(XMLElement("c"))
        assert child in parent.children

    def test_append_rejects_non_element(self):
        with pytest.raises(TypeError):
            XMLElement("p").append("x")  # type: ignore[arg-type]

    def test_iter_is_preorder(self):
        tree = element("a", {}, element("b", {}, text_element("c", "1")), text_element("d", "2"))
        assert [node.tag for node in tree.iter()] == ["a", "b", "c", "d"]

    def test_iter_tag_filters(self):
        tree = element("a", {}, element("b", {}, text_element("b", "1")))
        assert len(list(tree.iter_tag("b"))) == 2

    def test_descendant_count(self):
        tree = element("a", {}, element("b", {}), element("c", {}))
        assert tree.descendant_count() == 3


class TestEqualityAndCopy:
    def test_structural_equality(self):
        first = element("a", {"x": 1}, text_element("b", "v"))
        second = element("a", {"x": 1}, text_element("b", "v"))
        assert first == second
        assert hash(first) == hash(second)

    def test_inequality_on_text(self):
        assert text_element("a", "1") != text_element("a", "2")

    def test_inequality_on_attributes(self):
        assert XMLElement("a", {"k": "1"}) != XMLElement("a", {"k": "2"})

    def test_copy_is_deep(self):
        original = element("a", {}, text_element("b", "v"))
        clone = original.copy()
        clone.children[0].text = "changed"
        assert original.children[0].text == "v"
        assert original == element("a", {}, text_element("b", "v"))

    def test_set_attribute(self):
        node = XMLElement("a")
        node.set("k", 5)
        assert node.get("k") == "5"


class TestSharedEmpties:
    """Every leaf holds one shared empty child list, every element without
    attributes one shared empty attribute map."""

    def test_parsed_built_and_copied_leaves_share_the_empties(self):
        parsed = parse_xml("<item id='1'><price>5</price><title>A</title><tag/></item>")
        built = [XMLElement("price", text="5"), text_element("title", "A"), element("x", {})]
        built.append(XMLElement("y", {}, (child for child in ())))
        leaves = [*parsed.children, *built, *parsed.copy().children, built[0].copy()]
        assert len(leaves) == 11
        for leaf in leaves:
            assert leaf.children is NO_CHILDREN and leaf.attributes is NO_ATTRIBUTES
        assert parsed.attributes == {"id": "1"} and parsed.copy().attributes is not NO_ATTRIBUTES
        assert NO_CHILDREN == [] and NO_ATTRIBUTES == {}

    def test_growing_one_leaf_leaves_every_other_leaf_unchanged(self):
        grown, built, parsed = XMLElement("a"), text_element("b", "1"), parse_xml("<r><c/></r>")
        grown.append(XMLElement("d"))
        grown.set("k", "v")
        assert grown.children == [XMLElement("d")] and grown.attributes == {"k": "v"}
        leaf = parsed.children[0]
        leaf.extend([XMLElement("e")])
        leaf.set("id", 7)
        assert leaf == XMLElement("c", {"id": "7"}, [XMLElement("e")])
        for other in (built, XMLElement("f"), parse_xml("<g/>"), grown.children[0]):
            assert other.children == [] and other.attributes == {}
        assert NO_CHILDREN == [] and NO_ATTRIBUTES == {}

    @pytest.mark.parametrize("mutate", [
        lambda children, attributes: children.append(XMLElement("c")),
        lambda children, attributes: children.extend([XMLElement("c")]),
        lambda children, attributes: children.insert(0, XMLElement("c")),
        lambda children, attributes: operator.iadd(children, [XMLElement("c")]),
        lambda children, attributes: operator.setitem(children, slice(0, 0), [XMLElement("c")]),
        lambda children, attributes: operator.setitem(attributes, "k", "v"),
        lambda children, attributes: attributes.update(k="v"),
        lambda children, attributes: attributes.setdefault("k", "v"),
        lambda children, attributes: operator.ior(attributes, {"k": "v"}),
    ], ids=["append", "extend", "insert", "iadd", "slice", "setitem", "update",
            "setdefault", "ior"])
    def test_mutating_a_shared_empty_in_place_raises(self, mutate):
        leaf = parse_xml("<a/>")
        with pytest.raises(TypeError, match="shared"):
            mutate(leaf.children, leaf.attributes)
        assert NO_CHILDREN == [] and NO_ATTRIBUTES == {}
