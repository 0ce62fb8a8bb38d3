"""The element-tree plan writer: the oracle for the plan text writers.

Builds the ``XMLElement`` tree of a plan node, a plan or a whole mutant
query plan the way the codec did before it wrote text, for
``serialize_xml`` to render.  ``serialize_plan``, ``EvaluationMemo.key_for``
and ``MutantQueryPlan.serialize`` must write the same bytes.
"""

from __future__ import annotations

from repro.algebra import (
    Aggregate,
    ConjointOr,
    Difference,
    Display,
    Join,
    OrderBy,
    PlanNode,
    Project,
    QueryPlan,
    Select,
    TopN,
    Union,
    URLRef,
    URNRef,
    VerbatimData,
)
from repro.mqp import MutantQueryPlan, ProvenanceLog, QueryPreferences
from repro.mqp.plan import format_branch
from repro.mqp.provenance import ProvenanceRecord
from repro.xmlmodel import XMLElement, XMLSpan, serialize_xml


def _number(value: float) -> str:
    """``:g`` when it reads back as the same float, ``repr`` otherwise."""
    text = f"{value:g}"
    return text if float(text) == value else repr(float(value))


def node_to_xml(node: PlanNode, opaque: bool = False) -> XMLElement:
    """A bare plan node; with ``opaque``, verbatim data as its carried span."""
    attributes: dict[str, str] = {}
    children: list = []
    if isinstance(node, VerbatimData):
        if node.name:
            attributes["name"] = node.name
        collection = XMLElement("collection")
        collection.children = [node.span if opaque else node.collection]  # type: ignore[list-item]
        children.append(collection)
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
        children.extend(XMLElement("column", {"path": path, "tag": tag}) for path, tag in node.columns)
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
    elif not isinstance(node, (Union, ConjointOr)):
        raise TypeError(f"no oracle for {type(node).__name__}")
    if node.annotations:
        children.append(
            XMLElement(
                "annotations",
                {},
                [
                    XMLElement("annotation", {"key": key, "value": value})
                    for key, value in sorted(node.annotations.items())
                ],
            )
        )
    children.extend(node_to_xml(child, opaque) for child in node.children)
    element = XMLElement(node.operator, attributes)
    element.children = children  # a span is not an XMLElement: adopt, do not validate
    return element


def plan_to_xml(plan: QueryPlan, opaque: bool = False) -> XMLElement:
    return XMLElement("mqp", {}, [node_to_xml(plan.root, opaque)])


def preferences_to_xml(preferences: QueryPreferences) -> XMLElement:
    attributes = {"prefer": preferences.prefer}
    if preferences.target_time_ms is not None:
        attributes["target-time-ms"] = _number(preferences.target_time_ms)
    return XMLElement("preferences", attributes)


def record_to_xml(record: ProvenanceRecord) -> XMLElement:
    """A record that arrived is written from the attributes it arrived with."""
    arrived = record.__dict__.get("_attributes")
    if arrived is not None:
        return XMLElement("visit", dict(arrived))
    attributes = {
        "server": record.server,
        "action": record.action.value,
        "time": f"{record.time:.3f}",
    }
    if record.detail:
        attributes["detail"] = record.detail
    if record.staleness_minutes:
        attributes["staleness"] = _number(record.staleness_minutes)
    return XMLElement("visit", attributes)


def provenance_to_xml(log: ProvenanceLog) -> XMLElement:
    return XMLElement("provenance", {}, [record_to_xml(record) for record in log.records])


def mqp_to_xml(mqp: MutantQueryPlan) -> XMLElement:
    """The whole plan as shipped: data and an original that arrived as
    text written back as that text, an original built here from its plan."""
    children = [
        XMLElement("current", {}, [plan_to_xml(mqp.plan, opaque=True)]),
        preferences_to_xml(mqp.preferences),
        provenance_to_xml(mqp.provenance),
    ]
    if mqp._original_text is not None:
        original = XMLElement("original")
        original.children = [XMLSpan(mqp._original_text)]  # type: ignore[list-item]
        children.append(original)
    elif mqp._original is not None:
        children.append(XMLElement("original", {}, [plan_to_xml(mqp._original, opaque=True)]))
    attributes = {"id": mqp.query_id, "issued-at": f"{mqp.issued_at:.3f}"}
    if mqp.branch:
        attributes["branch"] = format_branch(mqp.branch)
        attributes["credit"] = str(mqp.credit)
    return XMLElement("mutant-query", attributes, children)


def mqp_text(mqp: MutantQueryPlan) -> str:
    return serialize_xml(mqp_to_xml(mqp))
