"""Tests for XML parsing and serialization."""

from xml.sax import saxutils

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import XMLParseError
from repro.xmlmodel import (
    XMLElement,
    XMLSpan,
    children_text,
    element,
    parse_xml,
    serialize_collection,
    serialize_xml,
    serialized_size,
    text_element,
)
from repro.xmlmodel.parser import escape, quoteattr


class TestParse:
    def test_parse_simple_document(self):
        root = parse_xml("<items><item id='1'><title>CD</title></item></items>")
        assert root.tag == "items"
        assert root.children[0].get("id") == "1"
        assert root.children[0].child_text("title") == "CD"

    def test_parse_rejects_malformed(self):
        with pytest.raises(XMLParseError):
            parse_xml("<items><item></items>")

    def test_parse_rejects_mixed_content(self):
        with pytest.raises(XMLParseError):
            parse_xml("<a>text<b/></a>")

    def test_whitespace_only_text_ignored(self):
        root = parse_xml("<a>\n  <b>x</b>\n</a>")
        assert root.text is None
        assert root.children[0].text == "x"


class TestSerialize:
    def test_roundtrip(self):
        original = element(
            "items",
            {"count": 2},
            element("item", {"id": "1"}, text_element("title", "Blue Train")),
            element("item", {"id": "2"}, text_element("title", "A & B <CDs>")),
        )
        assert parse_xml(serialize_xml(original)) == original

    def test_escaping_special_characters(self):
        node = text_element("title", "Tom & Jerry <live>")
        document = serialize_xml(node)
        assert "&amp;" in document and "&lt;" in document
        assert parse_xml(document).text == "Tom & Jerry <live>"

    def test_attribute_quoting(self):
        node = element("item", {"note": 'say "hi"'})
        assert parse_xml(serialize_xml(node)).get("note") == 'say "hi"'

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(st.text(alphabet=st.sampled_from(list("ab &<>\"'\n\r\té#;")), max_size=24))
    def test_escaping_writes_what_saxutils_writes(self, text):
        assert escape(text) == saxutils.escape(text, {"\r": "&#13;"})
        assert quoteattr(text) == saxutils.quoteattr(text)

    def test_empty_element_self_closes(self):
        assert serialize_xml(element("empty", {})) == "<empty/>"

    def test_pretty_print_contains_newlines(self):
        doc = serialize_xml(element("a", {}, element("b", {})), indent=2)
        assert "\n" in doc
        assert parse_xml(doc) == element("a", {}, element("b", {}))

    def test_serialized_size_counts_bytes(self):
        node = text_element("title", "abc")
        assert serialized_size(node) == len(serialize_xml(node).encode("utf-8"))
        assert serialized_size(node) > 0


# --------------------------------------------------------------------------- #
# Canonical form and opaque spans
# --------------------------------------------------------------------------- #

# Everything XML 1.0 can carry: no control characters except tab/newline/
# carriage return, no surrogates, no non-characters.
xml_text = st.text(
    alphabet=st.one_of(
        st.characters(blacklist_categories=("Cs", "Cc"), blacklist_characters="\ufffe\uffff"),
        st.sampled_from("\t\n\r &<>\"'é☕"),
    ),
    max_size=12,
)
xml_names = st.sampled_from(["a", "b", "item", "title", "data", "collection", "x-1"])


@st.composite
def xml_trees(draw, depth=3):
    """Random elements: either text (possibly empty or blank) or children."""
    attributes = draw(st.dictionaries(xml_names, xml_text, max_size=3))
    if depth == 0 or draw(st.booleans()):
        text = draw(st.one_of(st.none(), xml_text))
        return XMLElement(draw(xml_names), attributes, [], text)
    children = draw(st.lists(xml_trees(depth=depth - 1), max_size=3))
    return XMLElement(draw(xml_names), attributes, children)


class TestCanonicalForm:
    def test_text_is_stripped_at_write(self):
        assert serialize_xml(text_element("a", " x ")) == "<a>x</a>"
        assert serialize_xml(text_element("a", " \n ")) == "<a/>"
        assert serialize_xml(text_element("a", "")) == "<a/>"

    def test_carriage_return_survives_as_a_character_reference(self):
        document = serialize_xml(text_element("a", "x\ry"))
        assert document == "<a>x&#13;y</a>"
        assert parse_xml(document).text == "x\ry"

    @settings(max_examples=200, deadline=None)
    @given(tree=xml_trees())
    def test_serializer_output_is_a_fixed_point_of_parse_then_serialize(self, tree):
        document = serialize_xml(tree)
        assert serialize_xml(parse_xml(document)) == document
        # Pretty-printing changes the bytes, never the parsed tree.
        assert serialize_xml(parse_xml(serialize_xml(tree, indent=2))) == document

    @settings(max_examples=100, deadline=None)
    @given(tree=xml_trees())
    def test_an_element_cut_down_to_its_children_is_its_children_serialized(self, tree):
        text, size = serialize_collection(tree)
        assert text == serialize_xml(tree)
        if not tree.children or (tree.text or "").strip():
            assert size == 0
        else:
            inner = "".join(serialize_xml(child) for child in tree.children)
            assert children_text(text) == inner and size == len(inner.encode("utf-8"))

    def test_text_after_a_child_is_ignored_and_before_one_is_rejected(self):
        assert parse_xml("<a><b/>tail</a>") == element("a", {}, element("b", {}))
        with pytest.raises(XMLParseError, match="mixes text and child elements"):
            parse_xml("<a>head<b/></a>")


class TestOpaqueSpans:
    OPAQUE = (("data", "collection"),)

    def _span(self, document):
        root = parse_xml(document, opaque=self.OPAQUE)
        wrapper = root if root.tag == "collection" else next(root.iter_tag("collection"))
        (span,) = wrapper.children
        assert isinstance(span, XMLSpan)
        return span

    @settings(max_examples=200, deadline=None)
    @given(tree=xml_trees())
    def test_own_serialization_is_kept_byte_for_byte(self, tree):
        cargo = serialize_xml(tree)
        document = f"<mqp><data><collection>{cargo}</collection></data></mqp>"
        span = self._span(document)
        assert span.source == cargo
        # ... and the document is written back exactly as it arrived.
        assert serialize_xml(parse_xml(document, opaque=self.OPAQUE)) == document

    @settings(max_examples=100, deadline=None)
    @given(tree=xml_trees())
    def test_foreign_formatting_is_kept_as_received_and_parses_equal(self, tree):
        wrapped = element("mqp", {}, element("data", {}, element("collection", {}, tree)))
        pretty = serialize_xml(wrapped, indent=3)
        span = self._span(pretty)
        assert span.source in pretty
        assert serialize_xml(parse_xml(span.source)) == serialize_xml(tree)

    def test_differently_quoted_cargo_is_forwarded_as_received(self):
        cargo = "<r  b='2'\n a='1' ><!-- note --><i >x</i ></r >"
        document = f"<data><collection>\n  {cargo}\n</collection></data>"
        assert self._span(document).source == cargo
        assert cargo in serialize_xml(parse_xml(document, opaque=self.OPAQUE))
        assert serialize_xml(parse_xml(cargo)) == '<r a="1" b="2"><i>x</i></r>'

    @pytest.mark.parametrize(
        "cargo",
        ["<r/>", "<r a='>'/>", '<r a="/>"></r >', "<r><data><collection><x/></collection></data></r>"],
    )
    def test_span_boundaries(self, cargo):
        document = f"<data><collection>{cargo}</collection><collection><y/></collection></data>"
        root = parse_xml(document, opaque=self.OPAQUE)
        first, second = root.children
        assert first.children[0].source == cargo
        assert second.children[0].source == "<y/>"

    def test_pair_is_not_matched_elsewhere(self):
        root = parse_xml("<x><collection><r/></collection></x>", opaque=self.OPAQUE)
        assert root == parse_xml("<x><collection><r/></collection></x>")

    def test_non_ascii_document_offsets(self):
        cargo = "<r t='☕'><i>é</i></r>"
        document = f"<mqp n='ü'><data><collection>{cargo}</collection></data><z>ß</z></mqp>"
        assert self._span(document).source == cargo

    @pytest.mark.parametrize(
        "cargo", ["<r><i></r>", "<r><i>", "<r>&undefined;</r>", "<r a=1/>", "<r/></collection>"]
    )
    def test_malformed_cargo_is_rejected_while_scanning(self, cargo):
        with pytest.raises(XMLParseError):
            parse_xml(f"<data><collection>{cargo}</collection></data>", opaque=self.OPAQUE)

    def test_no_nodes_are_built_for_a_span(self):
        cargo = serialize_xml(element("r", {}, *[text_element("i", n) for n in range(50)]))
        root = parse_xml(f"<data><collection>{cargo}</collection></data>", opaque=self.OPAQUE)
        assert root.children[0].children[0].source == cargo
        assert len(root.children) == 1 and len(root.children[0].children) == 1

    def test_several_pairs_are_each_kept_where_named(self):
        original = "<mqp><data><collection><s/></collection></data></mqp>"
        document = (
            "<m><c><data><collection><r/></collection></data></c>"
            f"<original>{original}</original></m>"
        )
        root = parse_xml(document, opaque=self.OPAQUE + (("m", "original"),))
        (kept,) = root.find("original").children
        assert isinstance(kept, XMLSpan) and kept.source == original  # not looked into
        assert root.find("c").find("data").find("collection").children[0].source == "<r/>"
        assert serialize_xml(root) == document
