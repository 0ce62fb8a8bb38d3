"""What the comparison baselines share: an item store and a query's ledger.

Gnutella, Napster and routing-index peers differ only in how a query
travels.  Each holds data items filed under interest cells, opens a query
the same way (the origin answers from its own store first) and collects the
items that come back under the query's id.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

from ..namespace import InterestArea, InterestCell
from ..network import NetworkNode, QueryTrace, Topology
from ..xmlmodel import XMLElement, serialized_size

__all__ = ["BaselinePeer", "reply_size"]

_query_counter = itertools.count(1)


def reply_size(items: Iterable[XMLElement]) -> int:
    """Bytes of a reply carrying ``items``: their compact text plus a header."""
    return sum(serialized_size(item) for item in items) + 64


class BaselinePeer(NetworkNode):
    """A peer of a comparison baseline: items by cell, results by query."""

    def __init__(self, address: str, topology: Topology | None = None) -> None:
        super().__init__(address)
        self.topology = topology
        self.items: list[tuple[InterestCell, XMLElement]] = []
        self.results: dict[str, list[XMLElement]] = {}

    def add_items(self, cell: InterestCell, items: Sequence[XMLElement]) -> None:
        """Store items filed under one interest cell."""
        self.items.extend((cell, item) for item in items)

    def matching_items(self, area: InterestArea) -> list[XMLElement]:
        """Local items whose cell the query area covers."""
        return [item for cell, item in self.items if area.covers_cell(cell)]

    def neighbors(self) -> list[str]:
        """Overlay neighbours of this peer."""
        if self.topology is None:
            return []
        return self.topology.neighbors(self.address)

    def _issue(self, area: InterestArea, query_id: str | None) -> tuple[str, list[XMLElement]]:
        """Open a query here: start its trace and answer from the local store.
        Returns the query id and the local matches."""
        query_id = query_id or f"bq{next(_query_counter)}"
        trace = self.metrics.trace(query_id)
        trace.issued_at = self.now
        trace.visited.append(self.address)
        local = self.matching_items(area)
        self._answered(query_id, local)
        return query_id, local

    def _answered(self, query_id: str, items: list[XMLElement]) -> QueryTrace:
        """Collect ``items`` as answers to ``query_id``; return its trace."""
        self.results.setdefault(query_id, []).extend(items)
        trace = self.metrics.trace(query_id)
        trace.answers += len(items)
        return trace
