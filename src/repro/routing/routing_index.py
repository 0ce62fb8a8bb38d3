"""Routing-index baseline (Crespo & Garcia-Molina, cited as [CG02] in §6).

Routing Indices are "distributed indices, maintained at each node, that
guide each query to the most promising neighbors of the node".  We
implement the *compound* routing index over the namespace's first
dimension's top-level categories: every peer knows, per overlay neighbour,
how many items per top-level category are reachable through that
neighbour (its whole subtree in the aggregation, here approximated by the
neighbour's own advertisement plus what the neighbour aggregated).

The query protocol forwards the query to the most promising neighbour
first (instead of flooding), falling back to the next-best neighbour when
a branch is exhausted, until a requested number of results is found or no
promising neighbours remain.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

from ..namespace import CategoryPath, InterestArea, InterestCell, MultiHierarchicNamespace
from ..network import Message, NetworkNode, Topology
from ..xmlmodel import XMLElement, serialize_xml

__all__ = ["RoutingIndexPeer"]

_query_counter = itertools.count(1)

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


class RoutingIndexPeer(NetworkNode):
    """A peer maintaining a compound routing index over top-level categories."""

    def __init__(
        self,
        address: str,
        namespace: MultiHierarchicNamespace,
        topology: Topology | None = None,
    ) -> None:
        super().__init__(address)
        self.namespace = namespace
        self.topology = topology
        self.items: list[tuple[InterestCell, XMLElement]] = []
        self.local_counts: Counter = Counter()
        # neighbour -> Counter of top-level category -> reachable item count
        self.routing_index: dict[str, Counter] = {}
        self.seen_queries: set[str] = set()
        self.hits: dict[str, list[XMLElement]] = {}

    # -- data & index construction ------------------------------------------------- #

    def add_items(self, cell: InterestCell, items: Sequence[XMLElement]) -> None:
        """Store items and update the local category counts."""
        top = self._top_category(cell)
        for item in items:
            self.items.append((cell, item))
        self.local_counts[top] += len(items)

    def _top_category(self, cell: InterestCell) -> str:
        coordinate = cell.coordinate(_CATEGORY_DIMENSION)
        return coordinate.segments[0] if coordinate.segments else "*"

    def aggregate_counts(self) -> Counter:
        """Local counts plus everything advertised as reachable through neighbours."""
        total = Counter(self.local_counts)
        for counts in self.routing_index.values():
            total.update(counts)
        return total

    def advertise(self) -> None:
        """Push this peer's aggregate counts to every neighbour (index build)."""
        for neighbor in self.neighbors():
            payload = (self.address, Counter(self.local_counts))
            self.send(neighbor, "ri-advert", payload, size_bytes=96)

    def neighbors(self) -> list[str]:
        """Overlay neighbours of this peer."""
        if self.topology is None:
            return []
        return self.topology.neighbors(self.address)

    # -- querying ------------------------------------------------------------------- #

    def issue_query(self, area: InterestArea, wanted: int = 10, query_id: str | None = None) -> str:
        """Start a routing-index-guided search for items in ``area``."""
        query_id = query_id or f"rq{next(_query_counter)}"
        self.hits.setdefault(query_id, [])
        self.seen_queries.add(query_id)
        trace = self.network.metrics.trace(query_id)  # type: ignore[union-attr]
        trace.issued_at = self.now
        trace.visited.append(self.address)
        local = self.matching_items(area)
        if local:
            self.hits[query_id].extend(local)
            trace.answers += len(local)
        query = _RIQuery(query_id, self.address, area, wanted, found=len(local), path=[self.address])
        if query.found >= wanted:
            trace.completed_at = self.now
            return query_id
        self._forward(query, exclude=None)
        return query_id

    def matching_items(self, area: InterestArea) -> list[XMLElement]:
        """Local items covered by the query area."""
        return [item for cell, item in self.items if area.covers_cell(cell)]

    def results_for(self, query_id: str) -> list[XMLElement]:
        """Items found so far for a query issued at this peer."""
        return self.hits.get(query_id, [])

    # -- protocol ---------------------------------------------------------------------- #

    def handle_message(self, message: Message) -> None:
        if message.kind == "ri-advert":
            neighbor, counts = message.payload
            self.routing_index[neighbor] = Counter(counts)
        elif message.kind == "ri-query":
            self._handle_query(message)
        elif message.kind == "ri-hit":
            self._handle_hit(message)

    def _handle_query(self, message: Message) -> None:
        query: _RIQuery = message.payload
        trace = self.network.metrics.trace(query.query_id)  # type: ignore[union-attr]
        if query.query_id in self.seen_queries:
            return
        self.seen_queries.add(query.query_id)
        trace.visited.append(self.address)
        matches = self.matching_items(query.area)
        if matches:
            size = sum(len(serialize_xml(item).encode()) for item in matches) + 64
            sent = self.send(query.origin, "ri-hit", (query.query_id, [item.copy() for item in matches]), size_bytes=size)
            trace.messages += 1
            trace.bytes += sent.size_bytes
            query.found += len(matches)
        if query.found < query.wanted:
            query.path = query.path + [self.address]
            self._forward(query, exclude=message.sender)

    def _forward(self, query: _RIQuery, exclude: str | None) -> None:
        trace = self.network.metrics.trace(query.query_id)  # type: ignore[union-attr]
        goodness = self._rank_neighbors(query.area, exclude, query.path)
        if not goodness:
            return
        best, score = goodness[0]
        if score <= 0 and len(goodness) > 1:
            # Nothing promising: fall back to the least-bad neighbour anyway,
            # but only one — routing indices avoid flooding.
            best = goodness[0][0]
        sent = self.send(best, "ri-query", query, size_bytes=220)
        trace.messages += 1
        trace.bytes += sent.size_bytes

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

    def _handle_hit(self, message: Message) -> None:
        query_id, items = message.payload
        self.hits.setdefault(query_id, []).extend(items)
        trace = self.network.metrics.trace(query_id)  # type: ignore[union-attr]
        trace.answers += len(items)
        trace.completed_at = self.now
