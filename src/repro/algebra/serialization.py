"""XML wire format for query plans (the MQP encoding, paper §2).

Plans travel between peers serialized as XML.  Every operator becomes an
element named after the operator, with its parameters as attributes, its
input sub-plans as child elements, and any accumulated annotations inside a
reserved ``<annotations>`` child.  Verbatim data is embedded under a
reserved ``<collection>`` child so that arbitrary XML payloads never clash
with the operator vocabulary.

``plan_to_xml``/``plan_from_xml`` convert between :class:`QueryPlan` and
:class:`XMLElement`; ``serialize_plan``/``parse_plan`` go all the way to
strings, which is what the network layer ships around.

A ``<collection>`` whose child the parser kept as an ``XMLSpan`` becomes a
leaf owning that span, and ``plan_to_xml(plan, opaque=True)`` hands it back
to be written verbatim (the MQP codec's path); without ``opaque`` the pair
works on plain trees — the reference the span path is tested against.
"""

from __future__ import annotations

from ..errors import PlanSerializationError
from ..xmlmodel import XMLElement, parse_xml, serialize_xml
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

__all__ = ["plan_to_xml", "plan_from_xml", "serialize_plan", "parse_plan", "plan_wire_size"]

_RESERVED_TAGS = {"annotations", "column", "collection"}


# --------------------------------------------------------------------------- #
# Serialization
# --------------------------------------------------------------------------- #


def _annotations_element(node: PlanNode) -> XMLElement | None:
    if not node.annotations:
        return None
    # Tags, annotations and attributes are strings already: no re-validation.
    children = [
        XMLElement._trusted("annotation", {"key": key, "value": value}, [], None)
        for key, value in sorted(node.annotations.items())
    ]
    return XMLElement._trusted("annotations", {}, children, None)


def node_to_xml(node: PlanNode, opaque: bool = False) -> XMLElement:
    """Serialize a bare plan node (also the canonical cache key for nodes)."""
    attributes: dict[str, str] = {}
    extra_children: list[XMLElement] = []

    if isinstance(node, VerbatimData):
        if node.name:
            attributes["name"] = node.name
        # The wire tree aliases the plan's constant data (tree or span):
        # every caller renders it to text immediately; it is read-only.
        collection = node.span if opaque else node.collection
        extra_children.append(
            XMLElement._trusted("collection", {}, [collection], None)  # type: ignore[list-item, arg-type]
        )
    elif isinstance(node, URLRef):
        attributes["href"] = node.url
        if node.path:
            attributes["path"] = node.path
    elif isinstance(node, URNRef):
        attributes["name"] = node.urn
    elif isinstance(node, Select):
        attributes["predicate"] = node.predicate.to_text()
    elif isinstance(node, Project):
        attributes["item-tag"] = node.item_tag
        extra_children.extend(
            XMLElement._trusted("column", {"path": path, "tag": tag}, [], None)
            for path, tag in node.columns
        )
    elif isinstance(node, Join):
        attributes.update(
            {
                "left-path": node.left_path,
                "right-path": node.right_path,
                "type": node.join_type,
                "output-tag": node.output_tag,
            }
        )
    elif isinstance(node, Difference):
        if node.key_path:
            attributes["key-path"] = node.key_path
    elif isinstance(node, Aggregate):
        attributes["function"] = node.function
        if node.value_path:
            attributes["value-path"] = node.value_path
        if node.group_path:
            attributes["group-path"] = node.group_path
        attributes["output-tag"] = node.output_tag
    elif isinstance(node, OrderBy):
        attributes["path"] = node.path
        attributes["descending"] = str(node.descending).lower()
    elif isinstance(node, TopN):
        attributes["limit"] = str(node.limit)
        attributes["path"] = node.path
        attributes["descending"] = str(node.descending).lower()
    elif isinstance(node, Display):
        attributes["target"] = node.target
    elif isinstance(node, (Union, ConjointOr)):
        pass
    else:
        raise PlanSerializationError(f"cannot serialize plan node {type(node).__name__}")

    annotation_element = _annotations_element(node)
    if annotation_element is not None:
        extra_children.append(annotation_element)

    children = extra_children + [node_to_xml(child, opaque) for child in node.children]
    return XMLElement._trusted(node.operator, attributes, children, None)


def plan_to_xml(plan: QueryPlan, opaque: bool = False) -> XMLElement:
    """Serialize a plan to its XML element form, wrapped in ``<mqp>``.  With
    ``opaque``, verbatim leaves contribute their span, not their tree, and
    the result is only good for ``serialize_xml``."""
    return XMLElement._trusted("mqp", {}, [node_to_xml(plan.root, opaque)], None)


def serialize_plan(plan: QueryPlan, indent: int | None = None) -> str:
    """Serialize a plan to the XML string shipped between peers."""
    return serialize_xml(plan_to_xml(plan), indent=indent)


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
