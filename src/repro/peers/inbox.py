"""Results arriving home: one frame a piece, handed to the gather.

Message kinds handled here:

``result`` / ``partial-result``
    A (possibly partial) result arriving at its target in one frame: the
    answer of one piece, echoing the piece's branch path and credit.  The
    target's :class:`~repro.peers.gather.ResultGather` keeps pieces per
    path and calls the answer final when the credits sum to exactly 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Container, Sequence

from ..network.message import Message
from ..network.node import NetworkNode
from ..xmlmodel import XMLElement
from .gather import ResultGather, ResultItems, ResultPiece
from .transfers import Transfers

__all__ = ["ResultInbox"]


@dataclass(slots=True, eq=False, repr=False)
class ResultInbox:
    """Result frames arriving at their target, gathered and announced."""

    port: NetworkNode
    transfers: Transfers
    gather: ResultGather
    cancelled: Container[str] = ()

    def on_result(self, message: Message) -> None:
        """A ``result`` / ``partial-result`` frame: one piece, whole."""
        envelope: dict = message.payload
        if envelope["query_id"] in self.cancelled:
            return  # the issuer no longer wants this answer
        # Counted now, parsed when (and if) somebody reads the answer.
        self.record(envelope, ResultItems.of_document(envelope["document"], envelope.get("items")))

    def record(self, envelope: dict, items: Sequence[XMLElement]) -> None:
        """Hand one arrived result envelope to the gather and announce its verdict."""
        query_id = envelope["query_id"]
        if self.gather.is_answered(query_id):
            # A complete result is terminal: a straggling partial from a
            # slower relay path (or a duplicate) must not overwrite it.
            return
        self.transfers.absorb_failures(envelope)
        now = self.port.now
        outcome = self.gather.offer(query_id, ResultPiece.from_envelope(envelope, items), now)
        if outcome is None:
            return  # malformed, a duplicate, or a branch already accounted for
        arrival, recorded = outcome
        trace = self.port.metrics.trace(query_id)
        trace.completed_at = now
        trace.answers = recorded.count
        self.gather.watchers.notify(query_id, arrival, last=not arrival.partial)
