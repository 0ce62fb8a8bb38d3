"""Classical algebraic rewrite rules.

These are the availability-independent rules every server applies to an
incoming mutant query plan before deciding what to evaluate locally:
selection pushdown through unions and conjoint unions (the rewrite shown in
Figure 4(a), where ``select price < $10`` is pushed through the union of
the two seller URLs), merging of adjacent selections, and removal of
degenerate operators.
"""

from __future__ import annotations

from ..algebra.expressions import And
from ..algebra.operators import ConjointOr, PlanNode, Select, TopN, OrderBy, Union
from .rewrite import RewriteRule

__all__ = [
    "push_select_through_union",
    "push_select_through_or",
    "merge_adjacent_selects",
    "collapse_singleton_union",
    "merge_orderby_into_topn",
    "standard_rules",
]


def _push_select_through_union(node: PlanNode) -> PlanNode | None:
    if not isinstance(node, Select) or not isinstance(node.child, Union):
        return None
    union = node.child
    pushed = [Select(child.copy(), node.predicate) for child in union.children]
    return Union(pushed)


push_select_through_union = RewriteRule(
    "push-select-through-union",
    _push_select_through_union,
    "sigma(A union B) -> sigma(A) union sigma(B); enables per-seller evaluation (Fig. 4a)",
    Select,
)


def _push_select_through_or(node: PlanNode) -> PlanNode | None:
    if not isinstance(node, Select) or not isinstance(node.child, ConjointOr):
        return None
    conjoint = node.child
    pushed = [Select(child.copy(), node.predicate) for child in conjoint.children]
    return ConjointOr(pushed)


push_select_through_or = RewriteRule(
    "push-select-through-or",
    _push_select_through_or,
    "sigma(A | B) -> sigma(A) | sigma(B); keeps conjoint-union choices open",
    Select,
)


def _merge_adjacent_selects(node: PlanNode) -> PlanNode | None:
    if not isinstance(node, Select) or not isinstance(node.child, Select):
        return None
    inner = node.child
    return Select(inner.child.copy(), And(node.predicate, inner.predicate))


merge_adjacent_selects = RewriteRule(
    "merge-adjacent-selects",
    _merge_adjacent_selects,
    "sigma_p(sigma_q(A)) -> sigma_{p and q}(A)",
    Select,
)


def _collapse_singleton_union(node: PlanNode) -> PlanNode | None:
    if isinstance(node, Union) and len(node.children) == 1:
        return node.children[0].copy()
    return None


collapse_singleton_union = RewriteRule(
    "collapse-singleton-union",
    _collapse_singleton_union,
    "union(A) -> A",
    Union,
)


def _merge_orderby_into_topn(node: PlanNode) -> PlanNode | None:
    if not isinstance(node, TopN) or not isinstance(node.child, OrderBy):
        return None
    inner = node.child
    if inner.path != node.path:
        return None
    return TopN(inner.child.copy(), node.limit, node.path, node.descending)


merge_orderby_into_topn = RewriteRule(
    "merge-orderby-into-topn",
    _merge_orderby_into_topn,
    "topn(orderby(A)) -> topn(A) when ordering on the same path",
    TopN,
)


def standard_rules() -> list[RewriteRule]:
    """The default availability-independent rule set, in priority order."""
    return [
        merge_adjacent_selects,
        push_select_through_union,
        push_select_through_or,
        collapse_singleton_union,
        merge_orderby_into_topn,
    ]
