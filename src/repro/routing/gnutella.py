"""The "Gnutella" (pure) baseline: query broadcasting with a horizon (paper §1).

"No central indices are maintained; queries are broadcast to a node's
neighbors (which then broadcast them to all of their neighbors, and so on,
up to a fixed number of steps, called the horizon)."

Peers hold data items tagged with interest cells.  A query floods the
overlay up to ``horizon`` hops; every peer that holds matching items sends
a hit directly back to the query origin.  The baseline exists to make the
paper's qualitative claims measurable: broadcast "wastes network bandwidth
and hurts result quality by limiting the availability of rare content"
(content beyond the horizon is simply never found).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..namespace import InterestArea
from ..network import Message, Topology
from ..network.transport.codec import register_extension
from ..xmlmodel import XMLElement
from .baseline import BaselinePeer, reply_size

__all__ = ["GnutellaQuery", "GnutellaHit", "GnutellaPeer"]


@dataclass
class GnutellaQuery:
    """A flooded query: an interest area plus the remaining time-to-live."""

    query_id: str
    origin: str
    area: InterestArea
    ttl: int


@dataclass
class GnutellaHit:
    """A peer's answer: the matching items it holds."""

    query_id: str
    server: str
    items: list[XMLElement] = field(default_factory=list)


register_extension(
    13, GnutellaQuery, lambda q: (q.query_id, q.origin, q.area, q.ttl), lambda v: GnutellaQuery(*v)
)
register_extension(
    14, GnutellaHit, lambda h: (h.query_id, h.server, h.items), lambda v: GnutellaHit(*v)
)


class GnutellaPeer(BaselinePeer):
    """A peer of the unstructured broadcast overlay."""

    def __init__(self, address: str, topology: Topology | None = None) -> None:
        super().__init__(address, topology)
        self.seen_queries: set[str] = set()

    def issue_query(self, area: InterestArea, horizon: int, query_id: str | None = None) -> str:
        """Broadcast a query to all neighbours with the given horizon."""
        query_id, _ = self._issue(area, query_id)
        self.seen_queries.add(query_id)
        self._flood(GnutellaQuery(query_id, self.address, area, horizon), exclude=None)
        return query_id

    def handle_message(self, message: Message) -> None:
        if message.kind == "g-query":
            self._handle_query(message)
        elif message.kind == "g-hit":
            hit: GnutellaHit = message.payload
            self._answered(hit.query_id, hit.items).completed_at = self.now

    def _handle_query(self, message: Message) -> None:
        query: GnutellaQuery = message.payload
        if query.query_id in self.seen_queries:
            return
        self.seen_queries.add(query.query_id)
        trace = self.metrics.trace(query.query_id)
        trace.visited.append(self.address)
        matches = self.matching_items(query.area)
        if matches:
            hit = GnutellaHit(query.query_id, self.address, [item.copy() for item in matches])
            trace.charge(self.send(query.origin, "g-hit", hit, size_bytes=reply_size(matches)))
        if query.ttl > 1:
            self._flood(
                GnutellaQuery(query.query_id, query.origin, query.area, query.ttl - 1),
                exclude=message.sender,
            )

    def _flood(self, query: GnutellaQuery, exclude: str | None) -> None:
        trace = self.metrics.trace(query.query_id)
        for neighbor in self.neighbors():
            if neighbor == exclude:
                continue
            trace.charge(self.send(neighbor, "g-query", query, size_bytes=200))
