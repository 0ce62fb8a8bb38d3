"""Per-peer state of the continuous-query protocol.

Three parties hold state for one standing query:

* the **publisher** (a base server holding overlapping data) keeps an
  :class:`ArmedSubscription` — the matcher registration plus the delta
  sequence counter, the epoch token, and a bounded replay log of
  unacknowledged envelopes;
* an **authority** (an index / meta-index server whose area covers the
  subscription) keeps the registered subscribe envelope so it can re-arm
  publishers that crash and rejoin, or that register after the
  subscription was made;
* the **subscriber** keeps a :class:`SubscriberState` — the serialized
  plan (for re-subscription across its own churn), one
  :class:`PublisherFeed` of in-order release state per publisher, and the
  released :class:`DeltaRecord` list the API-layer
  :class:`~repro.api.Subscription` consumes.

Epoch tokens (``<publisher>/e<n>``) name one arming generation of one
publisher.  Sequence numbers are contiguous *within* an epoch; a publisher
that re-arms after a crash (or after its replay log lost an unacknowledged
entry) starts a fresh epoch, which tells the subscriber the feed's
continuity broke rather than silently skipping deltas.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..catalog.matcher import SubscriptionShape
from ..xmlmodel import XMLElement

__all__ = [
    "ArmedSubscription",
    "PublisherFeed",
    "DeltaRecord",
    "SubscriberState",
    "epoch_counter",
]


def epoch_counter(epoch: str) -> int:
    """The generation number inside an ``<publisher>/e<n>`` epoch token.

    Tokens that do not parse order as generation 0 — an unknown format is
    treated as oldest, so a well-formed successor always supersedes it.
    """
    _, _, suffix = epoch.rpartition("/e")
    try:
        return int(suffix)
    except ValueError:
        return 0


@dataclass
class ArmedSubscription:
    """Publisher-side state of one armed standing query.

    ``log`` maps sequence number → delta envelope for every delta not yet
    acknowledged by the subscriber (bounded by the peer's
    ``delta_log_memory``); ``paused`` is set when delivery to the
    subscriber failed (unreachable bounce or exhausted retries) — deltas
    keep being logged but not transmitted until a re-subscription arrives.
    """

    sub_id: str
    subscriber: str
    shape: SubscriptionShape
    authority: str
    epoch: str
    next_seq: int = 0
    acked_seq: int = -1
    paused: bool = False
    log: dict[int, dict] = field(default_factory=dict)


@dataclass
class PublisherFeed:
    """Subscriber-side in-order release state for one publisher's feed.

    Deltas may arrive out of order (each is its own framed message); they
    are held in ``pending`` and released strictly in sequence, exactly
    like the chunked-result reassembly.  A frame from a *newer* epoch
    resets the feed; frames from older epochs are stale retransmits and
    are dropped.
    """

    epoch: str
    next_seq: int = 0
    pending: dict[int, dict] = field(default_factory=dict)


@dataclass
class DeltaRecord:
    """One released delta, as recorded at the subscribing peer."""

    sub_id: str
    kind: str  # "insert" | "update" | "retract"
    items: list[XMLElement]
    publisher: str
    epoch: str
    seq: int
    received_at: float

    @property
    def count(self) -> int:
        """Number of items the delta carries."""
        return len(self.items)


@dataclass
class SubscriberState:
    """Everything the subscribing peer keeps for one of its subscriptions."""

    sub_id: str
    document: str  # the serialized plan, replayed on re-subscription
    targets: list[str] = field(default_factory=list)
    feeds: dict[str, PublisherFeed] = field(default_factory=dict)
    deltas: list[DeltaRecord] = field(default_factory=list)
    conflicts: list[dict] = field(default_factory=list)
    active: bool = True
