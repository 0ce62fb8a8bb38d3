"""Publish-time subscription matching (continuous queries).

A standing query must react to every mutation a peer applies to its
collections, but re-running the full plan per mutation would cost
O(queries x data) at every publish.  The armed-plan index here reuses the
catalog's trie machinery (:class:`~repro.catalog.index.CategoryTrie`, the
structure behind :class:`~repro.catalog.index.StatementIndex`): each armed
subscription is inserted once per cell of its interest area, and a
mutation against a collection registered under area ``A`` finds the
candidate subscriptions with the same O(depth + matches) overlap walk the
server index uses — root→path buckets plus the subtree below — then
verifies candidates with the exact :meth:`InterestArea.overlaps` test.

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
from .index import CategoryTrie, _cell_candidates_overlapping

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
    """Trie index from interest areas to armed subscription ids.

    Mirrors :class:`~repro.catalog.index.CatalogIndex` maintenance: one
    :class:`CategoryTrie` per namespace dimension, grown lazily; a
    subscription is counted once per cell coordinate so partial overlap
    between its own cells survives removal.
    """

    __slots__ = ("subscriptions", "_tries")

    def __init__(self) -> None:
        self.subscriptions: dict[str, SubscriptionShape] = {}
        self._tries: list[CategoryTrie] = []

    def __len__(self) -> int:
        return len(self.subscriptions)

    def __contains__(self, sub_id: str) -> bool:
        return sub_id in self.subscriptions

    # -- maintenance ---------------------------------------------------- #

    def _trie(self, dimension: int) -> CategoryTrie:
        while len(self._tries) <= dimension:
            self._tries.append(CategoryTrie())
        return self._tries[dimension]

    def arm(self, sub_id: str, shape: SubscriptionShape) -> None:
        """Index ``shape``; re-arming replaces any previous registration."""
        if sub_id in self.subscriptions:
            self.disarm(sub_id)
        self.subscriptions[sub_id] = shape
        for cell in shape.area:
            for dimension, coordinate in enumerate(cell.coordinates):
                self._trie(dimension).add(coordinate.segments, sub_id)

    def disarm(self, sub_id: str) -> bool:
        """Drop ``sub_id``; returns whether it was armed."""
        shape = self.subscriptions.pop(sub_id, None)
        if shape is None:
            return False
        for cell in shape.area:
            for dimension, coordinate in enumerate(cell.coordinates):
                if dimension < len(self._tries):
                    self._tries[dimension].remove(coordinate.segments, sub_id)
        return True

    # -- the publish-time lookup ---------------------------------------- #

    def matching(self, area: InterestArea) -> list[tuple[str, SubscriptionShape]]:
        """Armed subscriptions whose area overlaps ``area``, id-ordered.

        O(depth + matches) per mutation: trie candidates from the mutated
        collection's cells, verified with the exact overlap test.
        """
        matched: set[str] = set()
        for cell in area:
            for sub_id in _cell_candidates_overlapping(self._tries, cell, self.subscriptions):
                if sub_id in matched:
                    continue
                if self.subscriptions[sub_id].area.overlaps(area):
                    matched.add(sub_id)
        return [(sub_id, self.subscriptions[sub_id]) for sub_id in sorted(matched)]
