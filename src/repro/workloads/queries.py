"""Query workload generation over a multi-hierarchic namespace.

Queries in the routing experiments are interest areas (optionally with a
price predicate).  The generator draws query cells with the same Zipf-skewed
popularity the data generator uses — the locality assumption of §3.1: "If
this address is in USA/OR/Portland, most prospective buyers will come from
Portland, or locations close to Portland in the location hierarchy."

Both synthetic populations describe an item by one text field per namespace
dimension (``GarageSaleWorkload.CELL_FIELDS``,
``GeneExpressionWorkload.CELL_FIELDS``); :func:`item_cell` reads an item's
cell off those fields and :func:`query_plan_for` writes the area query that
selects on them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..algebra import PlanBuilder, QueryPlan
from ..namespace import (
    CategoryPath,
    InterestArea,
    InterestAreaURN,
    InterestCell,
    MultiHierarchicNamespace,
)
from ..xmlmodel import XMLElement
from .distributions import make_rng, zipf_choice

__all__ = ["CellIndex", "QuerySpec", "QueryWorkload", "item_cell", "query_plan_for"]


def item_cell(item: XMLElement, fields: tuple[str, str]) -> InterestCell:
    """The item-level interest cell of a record: one coordinate per cell field."""
    return InterestCell(
        tuple(CategoryPath.parse(item.child_text(name) or "*") for name in fields)
    )


def _related(
    relation: Callable[[CategoryPath, CategoryPath], bool],
    mine: InterestCell,
    theirs: InterestCell,
) -> bool:
    """Whether ``relation`` holds in every dimension of two cells."""
    return all(map(relation, mine.coordinates, theirs.coordinates))


class CellIndex:
    """A generated population's items, grouped by the cell of the peer that
    holds them, then by their own item-level cell.

    A population repeats a few hundred distinct cells over thousands of
    items, so a ground-truth query tests each distinct holder cell for
    overlap and, under the holders it overlaps, each distinct item cell for
    cover — never an item.  The cells are compared coordinate by
    coordinate, not through the process-wide cell-comparison memo: the
    ground truth is the harness's, and its pairs are ones the system under
    test never asks about.
    """

    def __init__(self) -> None:
        self.items: list[XMLElement] = []  # in generation order
        self._positions: dict[InterestCell, dict[InterestCell, list[int]]] = {}

    def add(self, holder: InterestCell, cell: InterestCell, item: XMLElement) -> None:
        """Append ``item``, whose cell is ``cell``, served under ``holder``."""
        self._positions.setdefault(holder, {}).setdefault(cell, []).append(len(self.items))
        self.items.append(item)

    def covered_by(self, area: InterestArea) -> list[XMLElement]:
        """The items whose cell ``area`` covers, in generation order."""
        positions = [
            position
            for holder, cells in self._positions.items()
            if any(_related(CategoryPath.overlaps, mine, holder) for mine in area)
            for cell, held in cells.items()
            if any(_related(CategoryPath.covers, mine, cell) for mine in area)
            for position in held
        ]
        positions.sort()
        return [self.items[position] for position in positions]


def query_plan_for(
    area: InterestArea,
    target: str,
    fields: tuple[str, str],
    max_price: float | None = None,
) -> QueryPlan:
    """The MQP for an area query: the area's URN, a selection on the cell
    fields of every cell that is not the namespace top, and an optional
    price ceiling."""
    predicates: list[str] = []
    for cell in area:
        conjuncts = [
            f"{name} contains '{coordinate}'"
            for name, coordinate in zip(fields, cell.coordinates)
            if not coordinate.is_top
        ]
        if conjuncts:
            predicates.append("(" + " and ".join(conjuncts) + ")")
    clauses = [" or ".join(predicates)] if predicates else []
    if max_price is not None:
        clauses.append(f"price < {max_price:g}")
    builder = PlanBuilder.urn(str(InterestAreaURN.for_area(area)))
    if clauses:
        builder = builder.select(" and ".join(f"({clause})" for clause in clauses))
    return builder.display(target)


@dataclass(frozen=True)
class QuerySpec:
    """One generated query: its interest area and optional price ceiling."""

    area: InterestArea
    max_price: float | None = None


_LOCATION_SKEW = 1.1
_CATEGORY_SKEW = 0.9
"""Zipf exponents of the location and category draws: a few places and
categories are asked about far more often than the rest."""


class QueryWorkload:
    """Generates Zipf-skewed interest-area queries of configurable granularity."""

    def __init__(
        self,
        namespace: MultiHierarchicNamespace,
        location_level: int = 3,
        category_level: int = 1,
        price_ceiling_range: tuple[float, float] | None = (10.0, 200.0),
        seed: int = 99,
    ) -> None:
        self.namespace = namespace
        self.price_ceiling_range = price_ceiling_range
        self._rng = make_rng(seed)
        self._locations = self._categories_at(namespace.dimensions[0], location_level)
        self._categories = self._categories_at(namespace.dimensions[1], category_level)

    @staticmethod
    def _categories_at(hierarchy, level: int) -> list[CategoryPath]:
        exact = [category for category in hierarchy.categories() if category.depth == level]
        if exact:
            return exact
        return hierarchy.leaves()

    # -- generation ---------------------------------------------------------------------------- #

    def next_query(self) -> QuerySpec:
        """Draw one query."""
        location = zipf_choice(self._rng, self._locations, _LOCATION_SKEW)
        category = zipf_choice(self._rng, self._categories, _CATEGORY_SKEW)
        area = InterestArea([InterestCell((location, category))])
        max_price = None
        if self.price_ceiling_range is not None:
            low, high = self.price_ceiling_range
            max_price = round(float(self._rng.uniform(low, high)), 2)
        return QuerySpec(area, max_price)

    def batch(self, count: int) -> list[QuerySpec]:
        """Draw ``count`` queries."""
        return [self.next_query() for _ in range(count)]
