"""Routing-index baseline (Crespo & Garcia-Molina, cited as [CG02] in §6).

Routing Indices are "distributed indices, maintained at each node, that
guide each query to the most promising neighbors of the node".  We
implement the *compound* routing index over the namespace's first
dimension's top-level categories: every peer knows, per overlay neighbour,
how many items per top-level category that neighbour advertised holding.

A query walks the overlay one peer at a time instead of flooding: each
peer forwards it to its best-ranked neighbour not yet on the query's path,
until a requested number of results is found or no neighbour is left.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

from ..namespace import CategoryPath, InterestArea, InterestCell, MultiHierarchicNamespace
from ..network import Message, Topology
from ..network.transport.codec import register_extension
from ..xmlmodel import XMLElement
from .baseline import BaselinePeer, reply_size

__all__ = ["RoutingIndexPeer"]

_CATEGORY_DIMENSION = 1
"""The namespace dimension whose top-level categories the index counts."""


@dataclass
class _RIQuery:
    query_id: str
    origin: str
    area: InterestArea
    wanted: int
    found: int = 0
    path: list[str] = field(default_factory=list)


register_extension(
    17,
    _RIQuery,
    lambda q: (q.query_id, q.origin, q.area, q.wanted, q.found, q.path),
    lambda v: _RIQuery(*v),
)


class RoutingIndexPeer(BaselinePeer):
    """A peer maintaining a compound routing index over top-level categories."""

    def __init__(
        self,
        address: str,
        namespace: MultiHierarchicNamespace,
        topology: Topology | None = None,
    ) -> None:
        super().__init__(address, topology)
        self.namespace = namespace
        self.local_counts: Counter = Counter()
        # neighbour -> Counter of top-level category -> reachable item count
        self.routing_index: dict[str, Counter] = {}
        self.seen_queries: set[str] = set()

    # -- data & index construction ------------------------------------------------- #

    def add_items(self, cell: InterestCell, items: Sequence[XMLElement]) -> None:
        """Store items and update the local category counts."""
        super().add_items(cell, items)
        coordinate = cell.coordinate(_CATEGORY_DIMENSION)
        self.local_counts[coordinate.segments[0] if coordinate.segments else "*"] += len(items)

    def advertise(self) -> None:
        """Push this peer's category counts to every neighbour (index build)."""
        for neighbor in self.neighbors():
            payload = (self.address, Counter(self.local_counts))
            self.send(neighbor, "ri-advert", payload, size_bytes=96)

    # -- querying ------------------------------------------------------------------- #

    def issue_query(self, area: InterestArea, wanted: int = 10, query_id: str | None = None) -> str:
        """Start a routing-index-guided search for items in ``area``."""
        query_id, local = self._issue(area, query_id)
        self.seen_queries.add(query_id)
        if len(local) >= wanted:
            self.metrics.trace(query_id).completed_at = self.now
        else:
            query = _RIQuery(query_id, self.address, area, wanted, len(local), [self.address])
            self._forward(query, exclude=None)
        return query_id

    # -- protocol ---------------------------------------------------------------------- #

    def handle_message(self, message: Message) -> None:
        if message.kind == "ri-advert":
            neighbor, counts = message.payload
            self.routing_index[neighbor] = Counter(counts)
        elif message.kind == "ri-query":
            self._handle_query(message)
        elif message.kind == "ri-hit":
            query_id, items = message.payload
            self._answered(query_id, items).completed_at = self.now

    def _handle_query(self, message: Message) -> None:
        query: _RIQuery = message.payload
        if query.query_id in self.seen_queries:
            return
        self.seen_queries.add(query.query_id)
        trace = self.metrics.trace(query.query_id)
        trace.visited.append(self.address)
        matches = self.matching_items(query.area)
        if matches:
            hit = (query.query_id, [item.copy() for item in matches])
            trace.charge(self.send(query.origin, "ri-hit", hit, size_bytes=reply_size(matches)))
            query.found += len(matches)
        if query.found < query.wanted:
            query.path = query.path + [self.address]
            self._forward(query, exclude=message.sender)

    def _forward(self, query: _RIQuery, exclude: str | None) -> None:
        """Send ``query`` to the best-ranked neighbour only, never flood; a
        query with no neighbour left to try ends here."""
        goodness = self._rank_neighbors(query.area, exclude, query.path)
        if goodness:
            sent = self.send(goodness[0][0], "ri-query", query, size_bytes=220)
            self.metrics.trace(query.query_id).charge(sent)

    def _rank_neighbors(
        self, area: InterestArea, exclude: str | None, path: list[str]
    ) -> list[tuple[str, float]]:
        query_tops = self._query_top_categories(area)
        ranked: list[tuple[str, float]] = []
        for neighbor in self.neighbors():
            if neighbor == exclude or neighbor in path:
                continue
            counts = self.routing_index.get(neighbor, Counter())
            score = float(sum(counts.get(top, 0) for top in query_tops))
            ranked.append((neighbor, score))
        ranked.sort(key=lambda pair: (-pair[1], pair[0]))
        return ranked

    def _query_top_categories(self, area: InterestArea) -> list[str]:
        tops: set[str] = set()
        for cell in area:
            coordinate = cell.coordinate(_CATEGORY_DIMENSION)
            if coordinate.is_top:
                hierarchy = self.namespace.dimensions[_CATEGORY_DIMENSION]
                tops.update(child.label for child in hierarchy.children(CategoryPath()))
            else:
                tops.add(coordinate.segments[0])
        return sorted(tops)
