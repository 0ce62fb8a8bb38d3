"""Parsing and serialization of :class:`~repro.xmlmodel.element.XMLElement` trees.

Mutant query plans travel between peers "encoded in XML" (paper, §2): a
server parses an incoming plan and serializes the mutated plan before
forwarding it.  The parser builds our node type directly from
``xml.parsers.expat`` events.  Most of a travelling plan is *cargo* —
verbatim results only the server evaluating over them looks inside, and
the original plan nobody reads in transit — so
``parse_xml(document, opaque=...)`` can keep such subtrees as
:class:`XMLSpan` source text (scanned for well-formedness, no nodes built)
which :func:`serialize_xml` writes back verbatim.

Canonical form: the serializer strips text content (as the parser does)
and escapes carriage returns, so ``serialize_xml(parse_xml(s)) == s`` for
every ``s`` it emits — forwarding a span is byte-identical to parsing and
re-serializing it.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Callable
from xml.parsers import expat

from ..errors import XMLParseError
from .element import NO_ATTRIBUTES, NO_CHILDREN, XMLElement

__all__ = ["XMLSpan", "parse_xml", "serialize_xml", "serialize_collection", "children_text",
           "quoteattr", "serialized_size", "utf8_len", "well_formed"]

# Text content and attribute values repeat heavily (tags, prices, organism
# names, provenance fields), so the escaping work is memoized.  Bounded
# caches: plan documents can carry arbitrary user data.  Both write exactly
# what ``xml.sax.saxutils`` writes, without importing it (it pulls in
# urllib, http, email and ssl).


@lru_cache(maxsize=16384)
def escape(text: str) -> str:
    """Character data with ``&``, ``>`` and ``<`` escaped.

    A parser turns a literal carriage return into a newline, so it is
    written as a reference.
    """
    return (
        text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;").replace("\r", "&#13;")
    )


@lru_cache(maxsize=16384)
def quoteattr(text: str) -> str:
    """An attribute value, escaped and quoted (single quotes when it holds a ``"``)."""
    value = (
        text.replace("&", "&amp;")
        .replace(">", "&gt;")
        .replace("<", "&lt;")
        .replace("\n", "&#10;")
        .replace("\r", "&#13;")
        .replace("\t", "&#9;")
    )
    if '"' not in value:
        return f'"{value}"'
    if "'" not in value:
        return f"'{value}'"
    return '"' + value.replace('"', "&quot;") + '"'


# From the "<" of a start tag to its closing ">"; attribute values may hold a ">".
_TAG = re.compile(r"""(?:[^>"']|"[^"]*"|'[^']*')*>""")


class XMLSpan:
    """The source text of one element, standing in for it among its parent's
    children: scanned by the parser, never built.  Treated as immutable, so
    plans, their copies and wire trees share one instance."""

    __slots__ = ("source",)

    def __init__(self, source: str) -> None:
        self.source = source


def utf8_len(text: str) -> int:
    """Size of ``text`` in UTF-8 bytes (what the network is charged for)."""
    return len(text) if text.isascii() else len(text.encode("utf-8"))


def _char_offsets(document: str) -> Callable[[int], int]:
    """Map expat's (ascending) UTF-8 byte offsets to indices into ``document``."""
    if document.isascii():
        return lambda byte_index: byte_index
    data, seen = document.encode("utf-8"), [0, 0]  # bytes, characters converted so far

    def offset(byte_index: int) -> int:
        seen[:] = byte_index, seen[1] + len(data[seen[0] : byte_index].decode("utf-8"))
        return seen[1]

    return offset


def parse_xml(document: str, opaque: tuple[tuple[str, str], ...] = ()) -> XMLElement:
    """Parse an XML document string into an :class:`XMLElement` tree.

    ``opaque`` names ``(parent tag, tag)`` pairs: the first child element
    of every ``<tag>`` directly under ``<parent tag>`` is kept as an
    :class:`XMLSpan` instead of a subtree (and never looked into, so no
    pair is matched inside one).

    Raises :class:`XMLParseError` if the document is not well formed (spans
    included) or mixes text and child elements in one node; text after the
    last child is ignored.
    """
    outer_of = {tag: parent for parent, tag in opaque}
    parser = expat.ParserCreate()
    parser.buffer_text = True
    build = XMLElement._trusted
    stack = [build("#document", {}, [], None)]
    offset = _char_offsets(document)
    depth = 0  # open elements inside the span being skipped
    span_start = 0

    def start(tag: str, attributes: dict[str, str]) -> None:
        nonlocal depth, span_start
        if depth:
            depth += 1
            return
        parent = stack[-1]
        if parent.text is not None:
            if parent.text.strip():
                raise XMLParseError(
                    f"element <{parent.tag}> mixes text and child elements; "
                    "mixed content is not supported"
                )
            parent.text = None
        if (
            parent.tag in outer_of
            and not parent.children
            and stack[-2].tag == outer_of[parent.tag]
        ):
            depth = 1
            span_start = offset(parser.CurrentByteIndex)
            parser.CharacterDataHandler = None
            return
        # Expat hands over string tags and a fresh dict: nothing to validate.
        # A node holds the shared empties until its first child arrives.
        node = build(tag, attributes or NO_ATTRIBUTES, NO_CHILDREN, None)
        if parent.children is NO_CHILDREN:
            parent.children = [node]
        else:
            parent.children.append(node)
        stack.append(node)

    def end(tag: str) -> None:
        nonlocal depth
        if depth:
            depth -= 1
            if not depth:
                opening = _TAG.match(document, span_start)
                assert opening is not None  # expat accepted the tag
                span_end = opening.end()
                if document[span_end - 2] != "/":  # not <child/>: find </child>
                    span_end = document.index(">", offset(parser.CurrentByteIndex)) + 1
                span = XMLSpan(document[span_start:span_end])
                # Always the first child: the node still holds NO_CHILDREN.
                stack[-1].children = [span]  # type: ignore[list-item]
                parser.CharacterDataHandler = characters
            return
        node = stack.pop()
        if node.text is not None:
            node.text = node.text.strip() or None

    def characters(data: str) -> None:
        node = stack[-1]
        if not node.children:  # text after a child is ignored
            node.text = data if node.text is None else node.text + data

    parser.StartElementHandler = start
    parser.EndElementHandler = end
    parser.CharacterDataHandler = characters
    try:
        parser.Parse(document, True)
    except expat.ExpatError as exc:
        raise XMLParseError(f"malformed XML: {exc}") from exc
    finally:
        # The handlers reference the parser that references them; cut the
        # cycle so the document is freed now, not at the next GC pass.
        parser.StartElementHandler = parser.EndElementHandler = parser.CharacterDataHandler = None
    return stack[0].children[0]


def well_formed(document: str) -> bool:
    """Whether ``document`` is well-formed XML: one expat pass with no handler
    set, so nothing is built — the check a document that is only counted on
    arrival (and parsed when first read) gets."""
    try:
        expat.ParserCreate().Parse(document, True)
    except expat.ExpatError:
        return False
    return True


def serialize_xml(root: XMLElement, indent: int | None = None) -> str:
    """Serialize an element tree to an XML string.

    With ``indent``, pretty-print using that many spaces per nesting level;
    otherwise produce a compact single-line document.
    """
    pieces: list[str] = []
    step, newline = ("", "") if indent is None else (" " * indent, "\n")
    _write(pieces.append, root, "", step, newline)
    return "".join(pieces)


def _write(
    write: Callable[[str], object], node: XMLElement | XMLSpan, pad: str, step: str, newline: str
) -> None:
    if isinstance(node, XMLSpan):
        write(f"{pad}{node.source}{newline}")
        return
    tag = node.tag
    head = f"{pad}<{tag}"
    if node.attributes:
        head += "".join(
            [f" {name}={quoteattr(value)}" for name, value in sorted(node.attributes.items())]
        )
    text = node.text
    if text is not None and (text := text.strip()):
        write(f"{head}>{escape(text)}</{tag}>{newline}")
    elif node.children:
        write(f"{head}>{newline}")
        inner = pad + step
        for child in node.children:
            _write(write, child, inner, step, newline)
        write(f"{pad}</{tag}>{newline}")
    else:
        write(f"{head}/>{newline}")


def children_text(text: str) -> str:
    """What lies between the start and the end tag of ``text``, the compact
    text of an element that has child elements: its children, serialized."""
    opening = _TAG.match(text)
    assert opening is not None
    return text[opening.end() : text.rindex("</")]


def serialize_collection(root: XMLElement) -> tuple[str, int]:
    """Compact text of ``root`` plus the UTF-8 bytes of its children alone: one
    serialization says what is shipped and how large the items are (§5.1)."""
    text = serialize_xml(root)
    if not root.children or (root.text or "").strip():
        return text, 0  # written as <tag/> or as text: no child is shipped
    return text, utf8_len(children_text(text))


def serialized_size(root: XMLElement) -> int:
    """Return the size in bytes of the compact serialization of ``root``.

    The network simulator charges transfer time proportional to message
    size; partial results accumulated inside a mutant query plan are counted
    with this function (paper §2: "their size matters").
    """
    return utf8_len(serialize_xml(root))
