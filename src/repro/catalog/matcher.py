"""Publish-time subscription matching (continuous queries).

A standing query must react to every mutation a peer applies to its
collections, but re-running the full plan per mutation would cost
O(queries x data) at every publish.  The armed subscriptions live in the
catalog's :class:`~repro.catalog.index.AreaIndex`: a mutation against a
collection registered under area ``A`` finds the subscriptions whose area
overlaps ``A`` with the same O(depth + matches) walk the catalog's server
lookups use.

The *shape* of a subscribable plan is deliberately narrow in this
iteration: an optional :class:`~repro.algebra.operators.Project` over any
number of :class:`~repro.algebra.operators.Select` filters over a single
interest-area :class:`~repro.algebra.operators.URNRef`.  That covers the
paper's area queries (the workloads' entire query vocabulary) while
keeping delta semantics exact: a mutation's relevance is decided by the
conjunction of the Select predicates alone, and the wire items are built
with the same physical Project operator the snapshot engine uses, so a
subscriber's delta feed and a re-issued snapshot agree item for item.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..algebra.expressions import And, Expression
from ..algebra.operators import PlanNode, Project, Select, URNRef
from ..algebra.plan import QueryPlan
from ..engine.operators import stream_project
from ..errors import PlanError
from ..namespace import InterestArea
from ..namespace.urn import InterestAreaURN, parse_urn
from ..xmlmodel import XMLElement
from .index import AreaIndex

__all__ = ["SubscriptionShape", "SubscriptionMatcher", "subscribable_shape"]


@dataclass(frozen=True)
class SubscriptionShape:
    """The decomposed form of a subscribable plan.

    ``predicate`` is the conjunction of the plan's Select filters (``None``
    when the plan has none), ``columns``/``item_tag`` mirror the plan's
    Project (``columns`` is ``None`` when items pass through whole).
    """

    area: InterestArea
    predicate: Expression | None
    columns: tuple[tuple[str, str], ...] | None
    item_tag: str

    def relevant(self, item: XMLElement) -> bool:
        """Does ``item`` satisfy the subscription's Select filters?"""
        return self.predicate is None or self.predicate.matches(item)

    def apply(self, items: list[XMLElement]) -> list[XMLElement]:
        """Run the plan's Project (if any) over already-filtered items."""
        if self.columns is None:
            return items
        return list(stream_project(items, self.columns, self.item_tag))


def subscribable_shape(plan: QueryPlan | PlanNode) -> SubscriptionShape:
    """Validate and decompose a standing-query plan.

    Accepts an optional Project over zero or more Selects over exactly one
    interest-area URNRef; anything else raises :class:`PlanError`.  The
    restriction is what makes publish-time matching exact rather than a
    heuristic — see the module docstring.
    """
    node = plan.body if isinstance(plan, QueryPlan) else plan
    columns: tuple[tuple[str, str], ...] | None = None
    item_tag = "item"
    predicates: list[Expression] = []
    if isinstance(node, Project):
        columns = node.columns
        item_tag = node.item_tag
        node = node.child
    while isinstance(node, Select):
        predicates.append(node.predicate)
        node = node.child
    if not isinstance(node, URNRef):
        raise PlanError(
            "not a subscribable plan: expected select/project over a single "
            f"interest-area URN, found {node.operator!r}"
        )
    urn = parse_urn(node.urn)
    if not isinstance(urn, InterestAreaURN):
        raise PlanError(
            f"not a subscribable plan: source {node.urn!r} is not an interest-area URN"
        )
    predicate: Expression | None
    if not predicates:
        predicate = None
    elif len(predicates) == 1:
        predicate = predicates[0]
    else:
        predicate = And(*predicates)
    return SubscriptionShape(urn.area, predicate, columns, item_tag)


class SubscriptionMatcher:
    """The armed subscriptions of one peer, indexed by interest area."""

    __slots__ = ("subscriptions", "_areas")

    def __init__(self) -> None:
        subscriptions: dict[str, SubscriptionShape] = {}
        self.subscriptions = subscriptions
        self._areas: AreaIndex[str] = AreaIndex(lambda sub_id: subscriptions[sub_id].area)

    def __len__(self) -> int:
        return len(self.subscriptions)

    def __contains__(self, sub_id: str) -> bool:
        return sub_id in self.subscriptions

    # -- maintenance ---------------------------------------------------- #

    def arm(self, sub_id: str, shape: SubscriptionShape) -> None:
        """Index ``shape``; re-arming replaces any previous registration."""
        self.disarm(sub_id)
        self.subscriptions[sub_id] = shape
        self._areas.add(sub_id, shape.area)

    def disarm(self, sub_id: str) -> bool:
        """Drop ``sub_id``; returns whether it was armed."""
        shape = self.subscriptions.pop(sub_id, None)
        if shape is None:
            return False
        self._areas.discard(sub_id, shape.area)
        return True

    # -- the publish-time lookup ---------------------------------------- #

    def matching(self, area: InterestArea) -> list[tuple[str, SubscriptionShape]]:
        """Armed subscriptions whose area overlaps ``area``, id-ordered."""
        return [(sub_id, self.subscriptions[sub_id]) for sub_id in self._areas.overlapping(area)]
