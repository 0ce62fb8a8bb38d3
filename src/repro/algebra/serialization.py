"""XML wire format for query plans (the MQP encoding, paper §2).

Plans travel between peers serialized as XML.  Every operator becomes an
element named after the operator, with its parameters as attributes, its
input sub-plans as child elements, and any accumulated annotations inside a
reserved ``<annotations>`` child.  Verbatim data is embedded under a
reserved ``<collection>`` child so that arbitrary XML payloads never clash
with the operator vocabulary.

A plan is written straight to text by one writer (:func:`write_plan`):
attributes in name order and no whitespace, byte for byte what
``serialize_xml`` writes for the element tree of the plan, with no tree
built.  ``serialize_plan`` / ``parse_plan`` go between plans and strings;
``plan_to_xml`` / ``plan_from_xml`` between plans and element trees.

A ``<collection>`` whose child the parser kept as an ``XMLSpan`` becomes a
leaf owning that span, and the writer with ``opaque`` writes it back
verbatim (the MQP codec's and the evaluation cache's path); without
``opaque`` every collection is written from its tree, so the text is
canonical whatever formatting a span arrived in.
"""

from __future__ import annotations

from typing import Callable

from ..errors import PlanSerializationError
from ..xmlmodel import XMLElement, parse_xml, quoteattr, serialize_xml
from .expressions import parse_predicate
from .operators import (
    Aggregate,
    ConjointOr,
    Difference,
    Display,
    Join,
    OrderBy,
    PlanNode,
    Project,
    Select,
    TopN,
    Union,
    URLRef,
    URNRef,
    VerbatimData,
)
from .plan import QueryPlan

__all__ = [
    "plan_to_xml",
    "plan_from_xml",
    "serialize_plan",
    "parse_plan",
    "plan_wire_size",
    "write_plan",
    "node_text",
    "DATA_SPANS",
]

_RESERVED_TAGS = {"annotations", "column", "collection"}

DATA_SPANS = (("data", "collection"),)
"""The ``parse_xml(opaque=...)`` pair that keeps a plan's verbatim data as text."""


# --------------------------------------------------------------------------- #
# Serialization
# --------------------------------------------------------------------------- #


def _write_node(write: Callable[[str], object], node: PlanNode, opaque: bool) -> None:
    """Write ``node``: its attributes in name order, its reserved children
    (collection or columns, then annotations), then its inputs."""
    tag = node.operator
    inner = ""
    if isinstance(node, VerbatimData):
        head = f" name={quoteattr(node.name)}" if node.name else ""
        body = node.span.source if opaque else serialize_xml(node.collection)
        inner = f"<collection>{body}</collection>"
    elif isinstance(node, URLRef):
        head = f" href={quoteattr(node.url)}"
        if node.path:
            head += f" path={quoteattr(node.path)}"
    elif isinstance(node, URNRef):
        head = f" name={quoteattr(node.urn)}"
    elif isinstance(node, Select):
        head = f" predicate={quoteattr(node.predicate.to_text())}"
    elif isinstance(node, Project):
        head = f" item-tag={quoteattr(node.item_tag)}"
        inner = "".join(
            f"<column path={quoteattr(path)} tag={quoteattr(column)}/>"
            for path, column in node.columns
        )
    elif isinstance(node, Join):
        head = (
            f" left-path={quoteattr(node.left_path)} output-tag={quoteattr(node.output_tag)}"
            f" right-path={quoteattr(node.right_path)} type={quoteattr(node.join_type)}"
        )
    elif isinstance(node, Difference):
        head = f" key-path={quoteattr(node.key_path)}" if node.key_path else ""
    elif isinstance(node, Aggregate):
        head = f" function={quoteattr(node.function)}"
        if node.group_path:
            head += f" group-path={quoteattr(node.group_path)}"
        head += f" output-tag={quoteattr(node.output_tag)}"
        if node.value_path:
            head += f" value-path={quoteattr(node.value_path)}"
    elif isinstance(node, OrderBy):
        head = f' descending="{str(node.descending).lower()}" path={quoteattr(node.path)}'
    elif isinstance(node, TopN):
        head = (
            f' descending="{str(node.descending).lower()}" limit="{node.limit}"'
            f" path={quoteattr(node.path)}"
        )
    elif isinstance(node, Display):
        head = f" target={quoteattr(node.target)}"
    elif isinstance(node, (Union, ConjointOr)):
        head = ""
    else:
        raise PlanSerializationError(f"cannot serialize plan node {type(node).__name__}")

    if node.annotations:
        inner += "<annotations>" + "".join(
            f"<annotation key={quoteattr(key)} value={quoteattr(value)}/>"
            for key, value in sorted(node.annotations.items())
        ) + "</annotations>"
    if not inner and not node.children:
        write(f"<{tag}{head}/>")
        return
    write(f"<{tag}{head}>{inner}")
    for child in node.children:
        _write_node(write, child, opaque)
    write(f"</{tag}>")


def write_plan(write: Callable[[str], object], plan: QueryPlan, opaque: bool = True) -> None:
    """Write the compact text of ``plan``, wrapped in ``<mqp>``, piece by piece."""
    write("<mqp>")
    _write_node(write, plan.root, opaque)
    write("</mqp>")


def node_text(node: PlanNode) -> str:
    """The compact text of a bare plan node, data as carried (the
    evaluation cache's key: structural identity, node ids excluded)."""
    pieces: list[str] = []
    _write_node(pieces.append, node, True)
    return "".join(pieces)


def serialize_plan(plan: QueryPlan, indent: int | None = None) -> str:
    """Serialize a plan to its canonical XML string (pretty with ``indent``)."""
    pieces: list[str] = []
    write_plan(pieces.append, plan, opaque=False)
    text = "".join(pieces)
    return text if indent is None else serialize_xml(parse_xml(text), indent=indent)


def plan_to_xml(plan: QueryPlan, opaque: bool = False) -> XMLElement:
    """The plan's ``<mqp>`` element tree, parsed from its text.  With
    ``opaque``, verbatim data stays the text it is carried as (spans)."""
    pieces: list[str] = []
    write_plan(pieces.append, plan, opaque)
    return parse_xml("".join(pieces), opaque=DATA_SPANS if opaque else ())


def plan_wire_size(plan: QueryPlan) -> int:
    """Size in bytes of the plan's wire encoding (partial results included)."""
    return len(serialize_plan(plan).encode("utf-8"))


# --------------------------------------------------------------------------- #
# Parsing
# --------------------------------------------------------------------------- #


def _require(element: XMLElement, attribute: str) -> str:
    value = element.get(attribute)
    if value is None:
        raise PlanSerializationError(
            f"<{element.tag}> is missing required attribute {attribute!r}"
        )
    return value


def _operator_children(element: XMLElement) -> list[XMLElement]:
    return [child for child in element.children if child.tag not in _RESERVED_TAGS]


def _node_from_xml(element: XMLElement) -> PlanNode:
    children = [_node_from_xml(child) for child in _operator_children(element)]
    tag = element.tag

    node: PlanNode
    if tag == "data":
        collection_wrapper = element.find("collection")
        if collection_wrapper is None or not collection_wrapper.children:
            raise PlanSerializationError("<data> node has no embedded collection")
        # The plan adopts the parsed subtree (or the span kept in its
        # place) instead of deep-copying it; parsing produces a fresh tree
        # per document — callers must not mutate the input afterwards.
        node = VerbatimData(collection_wrapper.children[0], element.get("name"))
    elif tag == "url":
        node = URLRef(_require(element, "href"), element.get("path"))
    elif tag == "urn":
        node = URNRef(_require(element, "name"))
    elif tag == "select":
        node = Select(_single(children, tag), parse_predicate(_require(element, "predicate")))
    elif tag == "project":
        columns = [
            (_require(column, "path"), _require(column, "tag"))
            for column in element.find_all("column")
        ]
        node = Project(_single(children, tag), columns, element.get("item-tag", "item"))
    elif tag == "join":
        if len(children) != 2:
            raise PlanSerializationError("<join> needs exactly two inputs")
        node = Join(
            children[0],
            children[1],
            _require(element, "left-path"),
            _require(element, "right-path"),
            element.get("type", "inner"),
            element.get("output-tag", "tuple"),
        )
    elif tag == "union":
        node = Union(children)
    elif tag == "or":
        node = ConjointOr(children)
    elif tag == "difference":
        if len(children) != 2:
            raise PlanSerializationError("<difference> needs exactly two inputs")
        node = Difference(children[0], children[1], element.get("key-path"))
    elif tag == "aggregate":
        node = Aggregate(
            _single(children, tag),
            _require(element, "function"),
            element.get("value-path"),
            element.get("group-path"),
            element.get("output-tag", "aggregate"),
        )
    elif tag == "orderby":
        node = OrderBy(
            _single(children, tag),
            _require(element, "path"),
            element.get("descending", "false") == "true",
        )
    elif tag == "topn":
        node = TopN(
            _single(children, tag),
            int(_require(element, "limit")),
            _require(element, "path"),
            element.get("descending", "true") == "true",
        )
    elif tag == "display":
        node = Display(_single(children, tag), _require(element, "target"))
    else:
        raise PlanSerializationError(f"unknown plan operator <{tag}>")

    annotations = element.find("annotations")
    if annotations is not None:
        for annotation in annotations.find_all("annotation"):
            node.annotate(_require(annotation, "key"), _require(annotation, "value"))
    return node


def _single(children: list[PlanNode], tag: str) -> PlanNode:
    if len(children) != 1:
        raise PlanSerializationError(f"<{tag}> needs exactly one input, got {len(children)}")
    return children[0]


def plan_from_xml(root: XMLElement) -> QueryPlan:
    """Parse the ``<mqp>`` element form back into a :class:`QueryPlan`."""
    if root.tag != "mqp" or len(root.children) != 1:
        raise PlanSerializationError("expected a single-child <mqp> element")
    return QueryPlan(_node_from_xml(root.children[0]))


def parse_plan(document: str) -> QueryPlan:
    """Parse the XML string form of a plan."""
    return plan_from_xml(parse_xml(document))
