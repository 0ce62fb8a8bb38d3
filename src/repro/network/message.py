"""Messages exchanged between simulated peers."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any

__all__ = ["Message"]

_message_counter = itertools.count(1)


@dataclass
class Message:
    """A single network message.

    ``kind`` names the protocol step (``mqp``, ``register``, ``query``,
    ``result``, ...); ``payload`` is an arbitrary Python object (usually an
    XML string for MQPs, or small dataclasses for control traffic);
    ``size_bytes`` is what the latency model charges for the transfer.

    ``transfer`` and ``attempt`` are the reliable-delivery envelope
    (``Cluster(reliable=True)``): a non-``None`` transfer id asks the
    receiver to acknowledge the delivery and to deduplicate retransmitted
    attempts of the same transfer.  Both stay at their defaults on every
    fire-and-forget message, so a fire-and-forget cluster's wire is unchanged.
    """

    sender: str
    recipient: str
    kind: str
    payload: Any = None
    size_bytes: int = 256
    message_id: int = field(default_factory=lambda: next(_message_counter))
    sent_at: float = 0.0
    hop: int = 0
    transfer: str | None = None
    attempt: int = 0

    def __post_init__(self) -> None:
        self.size_bytes = max(1, int(self.size_bytes))

    def __repr__(self) -> str:
        return (
            f"Message(#{self.message_id} {self.kind!r} "
            f"{self.sender} -> {self.recipient}, {self.size_bytes}B)"
        )
