"""The "Napster" (hybrid) baseline: a centralized index server (paper §1).

"A centralized group of servers indexes filenames, and all queries must go
through them."  Here a single :class:`NapsterIndexServer` indexes every
published item's interest cell.  Clients query the central server, receive
the addresses of peers holding matching items, and then fetch the items
directly from those peers.  The baseline makes measurable the paper's
claim that "centralized index servers don't scale with the number of
clients" — all query traffic concentrates on one node — while recall stays
perfect as long as the central index is reachable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..namespace import InterestArea, InterestCell
from ..network import Message, NetworkNode
from ..network.transport.codec import register_extension
from ..xmlmodel import XMLElement
from .baseline import BaselinePeer, reply_size

__all__ = ["NapsterIndexServer", "NapsterPeer"]


@dataclass
class _IndexRecord:
    """One published collection: who has it and how it is categorized."""

    owner: str
    cell: InterestCell
    count: int


@dataclass
class _FetchRequest:
    query_id: str
    area: InterestArea


register_extension(
    15, _IndexRecord, lambda r: (r.owner, r.cell, r.count), lambda v: _IndexRecord(*v)
)
register_extension(16, _FetchRequest, lambda r: (r.query_id, r.area), lambda v: _FetchRequest(*v))


class NapsterIndexServer(NetworkNode):
    """The central index: receives publications, answers lookups."""

    def __init__(self, address: str) -> None:
        super().__init__(address)
        self.records: list[_IndexRecord] = []
        self.lookups_served = 0

    def handle_message(self, message: Message) -> None:
        if message.kind == "n-publish":
            record: _IndexRecord = message.payload
            self.records.append(record)
        elif message.kind == "n-lookup":
            self._handle_lookup(message)

    def _handle_lookup(self, message: Message) -> None:
        query_id, area = message.payload
        self.lookups_served += 1
        owners = sorted({record.owner for record in self.records if area.covers_cell(record.cell)})
        trace = self.metrics.trace(query_id)
        trace.visited.append(self.address)
        size = 64 + 32 * len(owners)
        matches = (query_id, area, owners)
        trace.charge(self.send(message.sender, "n-matches", matches, size_bytes=size))


class NapsterPeer(BaselinePeer):
    """A peer that publishes to, and queries through, the central index."""

    def __init__(self, address: str, index_address: str) -> None:
        super().__init__(address)
        self.index_address = index_address
        self.pending_fetches: dict[str, int] = {}

    def add_items(self, cell: InterestCell, items: Sequence[XMLElement]) -> None:
        """Store items locally and advertise them to the central index."""
        super().add_items(cell, items)
        record = _IndexRecord(self.address, cell, len(items))
        self.send(self.index_address, "n-publish", record, size_bytes=128)

    def issue_query(self, area: InterestArea, query_id: str | None = None) -> str:
        """Look up matching peers at the central index, then fetch from them."""
        query_id, _ = self._issue(area, query_id)
        sent = self.send(self.index_address, "n-lookup", (query_id, area), size_bytes=200)
        self.metrics.trace(query_id).charge(sent)
        return query_id

    def handle_message(self, message: Message) -> None:
        if message.kind == "n-matches":
            self._handle_matches(message)
        elif message.kind == "n-fetch":
            self._handle_fetch(message)
        elif message.kind == "n-data":
            self._handle_data(message)

    def _handle_matches(self, message: Message) -> None:
        query_id, area, owners = message.payload
        trace = self.metrics.trace(query_id)
        remote_owners = [owner for owner in owners if owner != self.address]
        self.pending_fetches[query_id] = len(remote_owners)
        if not remote_owners:
            trace.completed_at = self.now
            return
        for owner in remote_owners:
            trace.charge(self.send(owner, "n-fetch", _FetchRequest(query_id, area), size_bytes=160))

    def _handle_fetch(self, message: Message) -> None:
        request: _FetchRequest = message.payload
        matches = [item.copy() for item in self.matching_items(request.area)]
        trace = self.metrics.trace(request.query_id)
        trace.visited.append(self.address)
        data = (request.query_id, matches)
        trace.charge(self.send(message.sender, "n-data", data, size_bytes=reply_size(matches)))

    def _handle_data(self, message: Message) -> None:
        query_id, items = message.payload
        trace = self._answered(query_id, items)
        self.pending_fetches[query_id] = self.pending_fetches.get(query_id, 1) - 1
        if self.pending_fetches[query_id] <= 0:
            trace.completed_at = self.now
