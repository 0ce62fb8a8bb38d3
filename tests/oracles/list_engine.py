"""The list-in / list-out query engine: the oracle for ``repro.engine``.

This is the recursive evaluator the repository started with — every
operator takes complete lists and returns a complete list.  Production runs
the pull-based ``stream_*`` operators only; the differential tests evaluate
the same plan here and there and require identical item sequences.

:func:`evaluate` walks a plan with a leaf resolver of the same shape
``QueryEngine`` takes.  Aggregation calls the production
``evaluate_aggregate``: it is the one operator with a single implementation
(``stream_aggregate`` runs it over its buffer).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Sequence

from repro.algebra.expressions import Expression
from repro.algebra.operators import (
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
from repro.algebra.plan import QueryPlan
from repro.engine import LeafResolver
from repro.engine.operators import evaluate_aggregate
from repro.errors import EvaluationError
from repro.xmlmodel import XMLElement, evaluate_path_values, text_element


def _first_value(item: XMLElement, path: str) -> str | None:
    values = evaluate_path_values(item, path)
    return values[0] if values else None


def _sort_key(value: str | None) -> tuple[int, float | str]:
    """Missing values last; numbers before strings, compared numerically."""
    if value is None:
        return (2, "")
    try:
        return (0, float(value))
    except ValueError:
        return (1, value)


def evaluate_select(items: Sequence[XMLElement], predicate: Expression) -> list[XMLElement]:
    """Keep the items satisfying ``predicate``."""
    return [item for item in items if predicate.matches(item)]


def evaluate_project(
    items: Sequence[XMLElement],
    columns: Sequence[tuple[str, str]],
    item_tag: str = "item",
) -> list[XMLElement]:
    """Build new items containing only the projected fields."""
    projected: list[XMLElement] = []
    for item in items:
        fields: list[XMLElement] = []
        for path, tag in columns:
            for value in evaluate_path_values(item, path):
                fields.append(text_element(tag, value))
        projected.append(XMLElement(item_tag, {}, fields))
    return projected


def evaluate_join(
    left: Sequence[XMLElement],
    right: Sequence[XMLElement],
    left_path: str,
    right_path: str,
    join_type: str = "inner",
    output_tag: str = "tuple",
) -> list[XMLElement]:
    """Equality join; ``left_outer`` keeps unmatched left items.

    Items may have several values at the join path (XML is multi-valued);
    two items join when their value sets intersect, which matches the
    favourite-songs / track-listing join of Figure 3.
    """
    if join_type not in ("inner", "left_outer"):
        raise EvaluationError(f"unsupported join type {join_type!r}")

    index: dict[str, list[XMLElement]] = defaultdict(list)
    for right_item in right:
        for value in set(evaluate_path_values(right_item, right_path)):
            index[value].append(right_item)

    joined: list[XMLElement] = []
    for left_item in left:
        matches: list[XMLElement] = []
        seen: set[int] = set()
        for value in evaluate_path_values(left_item, left_path):
            for right_item in index.get(value, ()):
                if id(right_item) not in seen:
                    seen.add(id(right_item))
                    matches.append(right_item)
        if matches:
            for right_item in matches:
                joined.append(
                    XMLElement(output_tag, {}, [left_item.copy(), right_item.copy()])
                )
        elif join_type == "left_outer":
            joined.append(XMLElement(output_tag, {}, [left_item.copy()]))
    return joined


def evaluate_union(collections: Sequence[Sequence[XMLElement]]) -> list[XMLElement]:
    """Bag union: concatenate the input collections."""
    merged: list[XMLElement] = []
    for collection in collections:
        merged.extend(collection)
    return merged


def evaluate_difference(
    left: Sequence[XMLElement],
    right: Sequence[XMLElement],
    key_path: str | None = None,
) -> list[XMLElement]:
    """Items of ``left`` not present in ``right``.

    With ``key_path`` given, membership compares the first value at that
    path; otherwise it compares whole items structurally.
    """
    if key_path is None:
        right_keys = {hash(item) for item in right}
        return [item for item in left if hash(item) not in right_keys]
    right_values = {_first_value(item, key_path) for item in right}
    return [item for item in left if _first_value(item, key_path) not in right_values]


def evaluate_order_by(
    items: Sequence[XMLElement], path: str, descending: bool = False
) -> list[XMLElement]:
    """Stable sort by the (possibly numeric) value at ``path``."""
    return sorted(items, key=lambda item: _sort_key(_first_value(item, path)), reverse=descending)


def evaluate_top_n(
    items: Sequence[XMLElement], limit: int, path: str, descending: bool = True
) -> list[XMLElement]:
    """The first ``limit`` items when ordered by ``path``."""
    return evaluate_order_by(items, path, descending)[:limit]


def evaluate(plan: QueryPlan | PlanNode, resolver: LeafResolver | None = None) -> list[XMLElement]:
    """Evaluate ``plan`` bottom-up, materializing every intermediate list."""
    node = plan.root if isinstance(plan, QueryPlan) else plan

    def walk(node: PlanNode) -> list[XMLElement]:
        if isinstance(node, VerbatimData):
            return node.items
        if isinstance(node, (URLRef, URNRef)):
            items = resolver(node) if resolver is not None else None
            if items is None:
                description = getattr(node, "url", None) or getattr(node, "urn", None)
                raise EvaluationError(f"leaf {description!r} is not available locally")
            return list(items)
        if isinstance(node, Select):
            return evaluate_select(walk(node.child), node.predicate)
        if isinstance(node, Project):
            return evaluate_project(walk(node.child), node.columns, node.item_tag)
        if isinstance(node, Join):
            return evaluate_join(
                walk(node.left), walk(node.right),
                node.left_path, node.right_path, node.join_type, node.output_tag,
            )
        if isinstance(node, Union):
            return evaluate_union([walk(child) for child in node.children])
        if isinstance(node, ConjointOr):
            return walk(node.children[0])
        if isinstance(node, Difference):
            return evaluate_difference(walk(node.left), walk(node.right), node.key_path)
        if isinstance(node, Aggregate):
            return evaluate_aggregate(
                walk(node.child), node.function, node.value_path, node.group_path,
                node.output_tag,
            )
        if isinstance(node, OrderBy):
            return evaluate_order_by(walk(node.child), node.path, node.descending)
        if isinstance(node, TopN):
            return evaluate_top_n(walk(node.child), node.limit, node.path, node.descending)
        if isinstance(node, Display):
            return walk(node.child)
        raise EvaluationError(f"cannot evaluate plan node {type(node).__name__}")

    return walk(node)
