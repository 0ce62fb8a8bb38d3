"""The continuous-query protocol: subscriber, authority and publisher sides.

Message kinds handled here:

``subscribe`` / ``unsubscribe``
    A standing query travels to the index servers covering its area, which
    record it and fan it out to overlapping base servers; each base server
    arms a publish-time matcher
    (:class:`~repro.catalog.matcher.SubscriptionMatcher`).  ``unsubscribe``
    retraces the same fan-out, disarming matchers and cancelling pending
    delta retransmissions at every hop.
``delta-chunk`` / ``delta-ack``
    Incremental results for standing queries: a mutation against an armed
    collection leaves the publisher as a ``delta-chunk`` envelope
    (``insert`` / ``update`` / ``retract``) with a per-subscription
    sequence number and epoch token, riding the same wire path — and the
    same reliable-delivery machinery — as a ``result``.  The
    subscriber releases deltas strictly in sequence and acknowledges
    cumulatively so the publisher can trim its replay log: the position
    rides the chunk's ``delivery-ack`` (one acknowledgement per delta), and
    only a chunk sent fire-and-forget is answered with a ``delta-ack``.
    A delta's document is ``<delta>`` around its items, no more: a batch
    of changed items is written once per mutation and shared by every
    subscriber that takes it whole (a projected one is written per
    subscriber), and it is parsed only when the subscriber reads an item:
    the chunk's ``count`` says how many.
``sub-conflict``
    Conflicting-authority detection (the MOAS analogy): a publisher armed
    for a subscription by one authority that receives the same
    subscription from a *different* authority keeps the original arming
    (never double-delivers) and surfaces the overlap to the subscriber.

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

:class:`Subscriptions` plays all three parts for one peer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection, Mapping, Sequence

from ..algebra import QueryPlan
from ..algebra.serialization import parse_plan, serialize_plan
from ..catalog import Catalog, ServerEntry, ServerRole
from ..catalog.matcher import SubscriptionMatcher, SubscriptionShape, subscribable_shape
from ..errors import PeerError, PeerOffline
from ..namespace import InterestArea
from ..network.message import Message
from ..network.node import NetworkNode
from ..xmlmodel import XMLElement, serialize_xml, utf8_len, well_formed
from .gather import ResultItems
from .parts import Cancellations, InOrder, insert_capped
from .transfers import Transfers

__all__ = [
    "ArmedSubscription",
    "PublisherFeed",
    "DeltaRecord",
    "SubscriberState",
    "Subscriptions",
    "epoch_counter",
]

_INDEXING = (ServerRole.INDEX, ServerRole.META_INDEX)


def _delta_document(texts: list[str]) -> str:
    """serialize_xml's compact form of a ``<delta>`` over these item texts
    (never none).  It carries no attribute: ``kind``, ``seq`` and ``sub`` ride
    the envelope, so every subscriber of one batch shares the document."""
    return f"<delta>{''.join(texts)}</delta>"


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
    acknowledged by the subscriber (bounded by
    ``Subscriptions.DELTA_LOG_MEMORY``); ``paused`` is set when delivery to the
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


class PublisherFeed(InOrder[dict]):
    """Subscriber-side in-order release state for one publisher's feed.

    Deltas may arrive out of order (each is its own framed message); they
    are held and released strictly in sequence, by the sequencer the
    chunked-result reassembly uses.  A frame from a *newer* epoch resets
    the feed; frames from older epochs are stale retransmits and are
    dropped.
    """

    __slots__ = ("epoch",)

    def __init__(self, epoch: str) -> None:
        super().__init__()
        self.epoch = epoch


@dataclass(slots=True)
class DeltaRecord:
    """One released delta, as recorded at the subscribing peer.

    It keeps the delta's ``document`` (the text the chunk arrived with) and
    its ``count``, and is one object until an item is read.  ``items`` is
    read-only and counted, not parsed: the first read of it builds a
    :class:`~repro.peers.gather.ResultItems` over the document, which the
    record keeps.  A document holding a different number of items than
    announced raises :class:`~repro.errors.PeerError` when an item is first
    read.
    """

    sub_id: str
    kind: str  # "insert" | "update" | "retract"
    document: str
    count: int
    publisher: str
    epoch: str
    seq: int
    received_at: float
    _items: ResultItems | None = field(default=None, init=False, compare=False, repr=False)

    @property
    def items(self) -> Sequence[XMLElement]:
        """The delta's items (see the class docstring)."""
        if self._items is None:
            self._items = ResultItems.of_document(self.document, self.count)
        return self._items


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


@dataclass(slots=True, eq=False, repr=False)
class Subscriptions:
    """One peer's part in every standing query: subscriber, authority, publisher.

    The peer's catalog, roles, collection areas and suspected-dead set are
    shared by reference — they are the peer's, this component only reads
    them.  ``cancelled`` lends its tell-once table (a straggler feed for a
    dead subscription is told to stop once, not once per frame).
    """

    SUBSCRIPTION_MEMORY = 1024  # subscriptions an authority keeps for re-arming
    DELTA_LOG_MEMORY = 256  # unacknowledged deltas a publisher keeps per subscription
    MAX_SUBSCRIBE_HOPS = 4

    port: NetworkNode
    transfers: Transfers
    cancelled: Cancellations
    catalog: Catalog
    roles: Collection[ServerRole] = ()
    authoritative: bool = False
    collection_areas: Mapping[str, InterestArea] = field(default_factory=dict)
    suspected_dead: Collection[str] = ()
    matcher: SubscriptionMatcher = field(default_factory=SubscriptionMatcher)
    armed: dict[str, ArmedSubscription] = field(default_factory=dict)
    # Authority-side store: sub_id -> {"envelope": wire dict, "shape": parsed}.
    registry: dict[str, dict] = field(default_factory=dict)
    mine: dict[str, SubscriberState] = field(default_factory=dict)
    deltas_published: int = 0
    deltas_delivered: int = 0
    deltas_refused: int = 0  # unreadable delta-chunk frames dropped on arrival
    delta_duplicates: int = 0
    delta_gaps: int = 0
    resubscribes: int = 0
    authority_conflicts: int = 0
    _conflicts_told: set[tuple[str, str]] = field(default_factory=set, init=False)
    # The last delta document found well-formed: the ack of a chunk reads the
    # chunk its handler just read, and need not scan it twice.
    _scanned: str | None = field(default=None, init=False)
    _sub_counter: int = field(default=0, init=False)
    _epoch_counter: int = field(default=0, init=False)

    # ------------------------------------------------------------------ #
    # Subscriber side
    # ------------------------------------------------------------------ #

    def subscribe(self, plan: QueryPlan, sub_id: str | None = None) -> str:
        """Register ``plan`` as a standing query and return its id.

        The plan must be subscribable (select/project over one
        interest-area URN — :func:`~repro.catalog.matcher.subscribable_shape`
        raises otherwise).  The subscribe envelope travels to the
        authoritative index servers covering the area, which fan it out to
        the base servers actually holding overlapping data; deltas then
        flow directly publisher → subscriber.
        """
        if not self.port.connected:
            raise PeerOffline(f"{self.port.address} is offline and cannot subscribe")
        subscribable_shape(plan)  # validate before anything is registered
        if sub_id is None:
            self._sub_counter += 1
            sub_id = f"{self.port.address}#sub{self._sub_counter}"
        state = SubscriberState(sub_id=sub_id, document=serialize_plan(plan))
        self.mine[sub_id] = state
        self._send_subscribe(state)
        return sub_id

    def resubscribe(self, sub_id: str) -> None:
        """Re-send a subscription with resume tokens (after churn).

        A rejoining subscriber calls this (``go_online`` does it
        automatically) so every publisher replays from the last sequence
        number this peer released — no gaps, no duplicates.
        """
        state = self.mine.get(sub_id)
        if state is None:
            raise PeerError(f"{self.port.address}: unknown subscription {sub_id!r}")
        self.resubscribes += 1
        self._send_subscribe(state)

    def unsubscribe(self, sub_id: str) -> None:
        """Tear the subscription down at every hop.  Idempotent.

        Mirrors query cancellation's upstream propagation: the unsubscribe
        notice retraces the subscribe fan-out (authorities drop their
        registry entries and forward; publishers disarm their matchers and
        cancel pending delta retransmissions).
        """
        state = self.mine.pop(sub_id, None)
        if state is None:
            return
        state.active = False
        self.transfers.cancel(sub_id)
        if not self.port.connected:
            return
        for target in sorted(set(state.targets) | set(state.feeds)):
            self.transfers.send(target, "unsubscribe", {"sub": sub_id, "hops": 0}, 64, sub_id)

    def _send_subscribe(self, state: SubscriberState) -> None:
        me = self.port.address
        shape = subscribable_shape(parse_plan(state.document))
        def others(entries: list[ServerEntry]) -> list[str]:
            return [entry.address for entry in entries if entry.address != me]

        targets = others(self.catalog.authoritative_servers(shape.area)) or others(
            self.catalog.servers_overlapping(shape.area, roles=_INDEXING)
        )
        holds_data = self._holds_overlap(shape.area)
        if not targets and not holds_data:
            raise PeerError(f"{me}: no index server known for area {shape.area}")
        resume = {
            publisher: [feed.epoch, feed.next_seq - 1]
            for publisher, feed in state.feeds.items()
        }
        envelope = {
            "document": state.document,
            "sub": state.sub_id,
            "subscriber": me,
            "authority": "",
            "resume": resume,
            "hops": 0,
        }
        state.targets = list(targets)
        for target in targets:
            self.transfers.send(
                target, "subscribe", dict(envelope), utf8_len(state.document), state.sub_id
            )
        if holds_data:
            # Self-subscription: this peer's own collections feed the query.
            self._arm(state.sub_id, me, shape, "", resume)

    def _readable(self, envelope: object) -> bool:
        """Can a ``delta-chunk`` envelope off the network be released?

        Its ``sub`` and ``epoch`` are strings, its ``seq`` an int, its
        ``count`` a non-negative int, and its document well-formed XML —
        scanned, not built: the items stay text until they are read, and
        ``count`` (like a result envelope's ``items``) says how many there
        are.  Anything else is dropped rather than raised in a handler.
        """
        if not isinstance(envelope, dict):
            return False
        seq, count, document = envelope.get("seq"), envelope.get("count"), envelope.get("document")
        if not (
            isinstance(envelope.get("sub"), str)
            and isinstance(envelope.get("epoch"), str)
            and type(seq) is int
            and type(count) is int
            and count >= 0
            and isinstance(document, str)
        ):
            return False
        if document is not self._scanned:
            if not well_formed(document):
                return False
            self._scanned = document
        return True

    def on_delta_chunk(self, message: Message) -> None:
        """Release what the chunk completes.  Its arrival is acknowledged
        once: by :meth:`feed_position` on the chunk's ``delivery-ack``, or —
        a chunk sent fire-and-forget has none — by a ``delta-ack`` here.
        An unreadable chunk is dropped — no ``delta-ack``, and a
        ``delivery-ack`` without a position — and counted in
        ``deltas_refused``."""
        envelope: dict = message.payload
        if not self._readable(envelope):
            self.deltas_refused += 1
            return
        sub_id = envelope["sub"]
        publisher = str(envelope.get("publisher", message.sender))
        state = self.mine.get(sub_id)
        if state is None or not state.active:
            # A straggler feed for a dead subscription: tell the publisher
            # to tear down, once per publisher.
            if self.cancelled.first_notice(sub_id, publisher):
                self.port.send(publisher, "unsubscribe", {"sub": sub_id, "hops": 0}, size_bytes=64)
            return
        epoch: str = envelope["epoch"]
        seq: int = envelope["seq"]
        feed = state.feeds.get(publisher)
        if feed is None or feed.epoch != epoch:
            if feed is not None and epoch_counter(epoch) <= epoch_counter(feed.epoch):
                return  # a stale retransmit from before the publisher re-armed
            feed = state.feeds[publisher] = PublisherFeed(epoch)
        if feed.seen(seq):
            # Already released (or already held): a fault-cloned frame or a
            # replay overlapping the resume point.  Re-acknowledge so the
            # publisher trims its log even if the original ack was lost.
            self.delta_duplicates += 1
        else:
            for held in feed.push(seq, envelope):
                state.deltas.append(
                    DeltaRecord(
                        sub_id=sub_id,
                        kind=str(held.get("kind", "insert")),
                        document=held["document"],
                        count=held["count"],
                        publisher=publisher,
                        epoch=epoch,
                        seq=feed.next_seq - 1,
                        received_at=self.port.now,
                    )
                )
                self.deltas_delivered += 1
        if message.transfer is None:
            self.port.send(
                publisher, "delta-ack", {"sub": sub_id, "seq": feed.next_seq - 1}, size_bytes=32
            )

    def feed_position(self, message: Message) -> tuple:
        """What the ack of a ``delta-chunk`` tells its publisher: ``(sub, last
        sequence released)`` of the feed as it now stands — so the ack of a
        retransmitted copy says it again — and nothing for a dead
        subscription, an epoch the feed is not in, or a chunk that cannot be
        read."""
        envelope: dict = message.payload
        if not self._readable(envelope):
            return ()
        state = self.mine.get(envelope["sub"])
        feeds = state.feeds if state is not None and state.active else {}
        feed = feeds.get(str(envelope.get("publisher", message.sender)))
        if feed is None or feed.epoch != envelope["epoch"]:
            return ()
        return envelope["sub"], feed.next_seq - 1

    def on_conflict(self, message: Message) -> None:
        envelope: dict = message.payload
        state = self.mine.get(envelope["sub"])
        if state is not None:
            state.conflicts.append(dict(envelope))

    # ------------------------------------------------------------------ #
    # Authority side
    # ------------------------------------------------------------------ #

    def on_subscribe(self, message: Message) -> None:
        envelope: dict = message.payload
        sub_id = str(envelope["sub"])
        subscriber = str(envelope["subscriber"])
        hops = int(envelope.get("hops", 0))
        shape = subscribable_shape(parse_plan(envelope["document"]))
        if subscriber != self.port.address and self._holds_overlap(shape.area):
            authority, resume = str(envelope.get("authority", "")), envelope.get("resume")
            self._arm(sub_id, subscriber, shape, authority, dict(resume or {}))
        if any(role in self.roles for role in _INDEXING) and hops < self.MAX_SUBSCRIBE_HOPS:
            stored = dict(envelope)
            stored["hops"] = hops
            record = {"envelope": stored, "shape": shape}
            insert_capped(self.registry, sub_id, record, self.SUBSCRIPTION_MEMORY)
            # Fan the envelope out towards the data it watches.
            for address in self._fanout(shape.area, subscriber):
                self._pass_on(address, stored)

    def _pass_on(self, address: str, envelope: dict) -> None:
        """Send a stored subscribe envelope one hop further.

        An authoritative indexer stamps itself as the subscription's
        authority; base servers receiving the same subscription from two
        *different* authorities raise the MOAS-style conflict instead of
        arming twice.
        """
        forwarded = dict(envelope)
        if self.authoritative or not forwarded.get("authority"):
            forwarded["authority"] = self.port.address
        forwarded["hops"] = int(envelope.get("hops", 0)) + 1
        size = utf8_len(str(envelope["document"]))
        self.transfers.send(address, "subscribe", forwarded, size, str(envelope["sub"]))

    def _fanout(self, area: InterestArea, subscriber: str) -> list[str]:
        """Where a subscribe/unsubscribe travels next from this hop."""
        roles: tuple[ServerRole, ...] = (ServerRole.BASE,)
        if ServerRole.META_INDEX in self.roles:
            # The meta-index also seeds the index layer, so a failed-over
            # authority can re-arm publishers from its own registry.
            roles = (ServerRole.BASE, ServerRole.INDEX)
        return [
            entry.address
            for entry in self.catalog.servers_overlapping(area, roles=roles)
            if entry.address not in (self.port.address, subscriber)
            and entry.address not in self.suspected_dead
        ]

    def rearm(self, entry: ServerEntry) -> None:
        """Re-forward stored subscriptions to a (re)registering server.

        This is how matchers survive churn: a publisher that crashed and
        rejoined registers here, and every overlapping subscription in the
        registry travels back to it — arming a fresh epoch.  A server that
        registers *after* a subscription was made is armed the same way.
        """
        for record in list(self.registry.values()):
            envelope: dict = record["envelope"]
            shape: SubscriptionShape = record["shape"]
            if envelope["subscriber"] != entry.address and shape.area.overlaps(entry.area):
                self._pass_on(entry.address, envelope)

    def on_unsubscribe(self, message: Message) -> None:
        envelope: dict = message.payload
        sub_id = str(envelope["sub"])
        hops = int(envelope.get("hops", 0))
        if self.armed.pop(sub_id, None) is not None:
            self.matcher.disarm(sub_id)
            self.transfers.cancel(sub_id)
        record = self.registry.pop(sub_id, None)
        if record is not None and hops < self.MAX_SUBSCRIBE_HOPS:
            shape: SubscriptionShape = record["shape"]
            subscriber = str(record["envelope"]["subscriber"])
            for address in self._fanout(shape.area, subscriber):
                self.transfers.send(
                    address, "unsubscribe", {"sub": sub_id, "hops": hops + 1}, 64, sub_id
                )

    # ------------------------------------------------------------------ #
    # Publisher side
    # ------------------------------------------------------------------ #

    def _holds_overlap(self, area: InterestArea) -> bool:
        return any(area.overlaps(held) for held in self.collection_areas.values())

    def _next_epoch(self) -> str:
        self._epoch_counter += 1
        return f"{self.port.address}/e{self._epoch_counter}"

    def _arm(
        self, sub_id: str, subscriber: str, shape: SubscriptionShape, authority: str, resume: dict
    ) -> None:
        existing = self.armed.get(sub_id)
        if existing is None:
            existing = self.armed[sub_id] = ArmedSubscription(
                sub_id=sub_id,
                subscriber=subscriber,
                shape=shape,
                authority=authority,
                epoch=self._next_epoch(),
            )
            self.matcher.arm(sub_id, shape)
        elif authority and existing.authority and authority != existing.authority:
            # MOAS-style conflict: a second authority claims this
            # subscription's area.  Keep the original arming — never
            # double-deliver — and surface the overlap to the
            # subscriber (once per conflicting authority).
            self.authority_conflicts += 1
            if self.first_conflict(sub_id, authority):
                self.port.send(
                    subscriber,
                    "sub-conflict",
                    {
                        "sub": sub_id,
                        "publisher": self.port.address,
                        "authorities": sorted((existing.authority, authority)),
                        "at_ms": round(self.port.now, 3),
                    },
                    size_bytes=96,
                )
            return
        else:
            if authority and not existing.authority:
                existing.authority = authority
            existing.paused = False
        self._replay(existing, resume)

    def _replay(self, armed: ArmedSubscription, resume: dict) -> None:
        """Retransmit everything the subscriber has not seen, in order.

        The resume token names the last sequence the subscriber released
        for *this* publisher and epoch; without one (or across an epoch
        change) the whole unacknowledged log replays.  A hole in the log —
        an unacknowledged delta the bounded log already evicted — means
        this epoch cannot be resumed without a silent gap, so the
        subscription re-arms under a fresh epoch instead (the subscriber
        observes the continuity break and can fall back to a snapshot).
        """
        token = resume.get(self.port.address)
        if token is not None and str(token[0]) == armed.epoch:
            start = int(token[1]) + 1
        else:
            start = armed.acked_seq + 1
        if any(seq not in armed.log for seq in range(start, armed.next_seq)):
            self.delta_gaps += 1
            armed.epoch = self._next_epoch()
            armed.next_seq = 0
            armed.acked_seq = -1
            armed.log.clear()
            return
        for seq in range(start, armed.next_seq):
            self._transmit(armed, armed.log[seq])

    def mutated(
        self, path: str, changes: Sequence[tuple[XMLElement | None, XMLElement | None]]
    ) -> None:
        """Match one collection mutation against the armed subscriptions.

        ``changes`` are ``(before, after)`` item pairs: an inserted item has
        no before, a retracted one no after.  Candidate subscriptions come
        from the matcher's trie walk over the collection's area — O(depth +
        matches), never O(armed plans) — and each candidate classifies the
        mutation through its own predicate: an update whose old state
        matched but whose new state does not is that subscriber's
        ``retract``, and vice versa.  Each changed item is written once, each
        batch of them joined into one ``<delta>`` once, and every subscriber
        it passes to whole shares that document.
        """
        if not self.armed or not self.port.connected:
            return
        area = self.collection_areas.get(path)
        if area is None:
            return
        # id() of one of ``changes``' own items -> its text, and the ids of a
        # batch of them -> its delta document.  ``changes`` holds them for the
        # whole call, so no id here is reused meanwhile.
        written: dict[int | tuple[int, ...], str] = {}
        for sub_id, shape in self.matcher.matching(area):
            batches: dict[str, list[XMLElement]] = {"insert": [], "update": [], "retract": []}
            for before, after in changes:
                was_relevant = before is not None and shape.relevant(before)
                if after is not None and shape.relevant(after):
                    batches["update" if was_relevant else "insert"].append(after)
                elif before is not None and was_relevant:
                    batches["retract"].append(before)
            for kind, batch in batches.items():
                if batch:
                    self._publish(self.armed[sub_id], shape, kind, batch, written)

    def _publish(
        self,
        armed: ArmedSubscription,
        shape: SubscriptionShape,
        kind: str,
        items: list[XMLElement],
        written: dict[int | tuple[int, ...], str],
    ) -> None:
        if shape.columns is None:
            batch = tuple(map(id, items))
            document = written.get(batch)
            if document is None:
                texts = []
                for item in items:
                    text = written.get(id(item))
                    if text is None:
                        text = written[id(item)] = serialize_xml(item)
                    texts.append(text)
                document = written[batch] = _delta_document(texts)
        else:
            # Projected for this subscriber alone: temporaries, never keyed
            # by id (a freed one's id may come back for the next).
            document = _delta_document([serialize_xml(item) for item in shape.apply(items)])
        envelope = {
            "document": document,
            "sub": armed.sub_id,
            "publisher": self.port.address,
            "epoch": armed.epoch,
            "seq": armed.next_seq,
            "kind": kind,
            "count": len(items),  # not charged: what lets the subscriber leave it unparsed
        }
        armed.log[armed.next_seq] = envelope
        armed.next_seq += 1
        while len(armed.log) > self.DELTA_LOG_MEMORY:
            del armed.log[next(iter(armed.log))]
        self.deltas_published += 1
        if not armed.paused:
            self._transmit(armed, envelope)

    def _transmit(self, armed: ArmedSubscription, envelope: dict) -> None:
        # Keyed by subscription id the way query traffic is keyed by query
        # id, so the ack/retry machinery — and ``Transfers.cancel`` on
        # teardown — apply unchanged.
        size = utf8_len(envelope["document"])
        self.transfers.send(armed.subscriber, "delta-chunk", dict(envelope), size, armed.sub_id)

    def on_delta_ack(self, message: Message) -> None:
        self.acked(message.payload["sub"], int(message.payload["seq"]))

    def acked(self, sub_id: str, seq: int) -> None:
        """The subscriber has released everything up to ``seq``: trim the log."""
        armed = self.armed.get(sub_id)
        if armed is not None and seq > armed.acked_seq:
            armed.acked_seq = seq
            for logged in [s for s in armed.log if s <= seq]:
                del armed.log[logged]

    def first_conflict(self, sub_id: str, claimant: str) -> bool:
        """True the first time ``claimant`` is seen contesting ``sub_id``: a
        conflict is surfaced once.  Replica reconciliation tells its
        conflicting authorities apart (and tallies them) through this too."""
        first = (sub_id, claimant) not in self._conflicts_told
        self._conflicts_told.add((sub_id, claimant))
        return first

    def pause(self, sub_id: str) -> None:
        """Delivery to the subscriber failed: stop transmitting, keep logging.

        Deltas published while paused accumulate in the replay log; the
        subscriber's re-subscription (its rejoin path) resumes the feed
        from its last released sequence.
        """
        armed = self.armed.get(sub_id)
        if armed is not None:
            armed.paused = True

    def crash(self) -> None:
        """Armed matcher state is in-RAM: a crashed publisher loses it and is
        re-armed from an authority's registry when it registers again on
        rejoin (with a fresh epoch).  The subscriber-side intent (``mine``)
        survives like registration targets do, so a rejoining subscriber can
        replay from its last released sequence."""
        self.armed.clear()
        self.matcher = SubscriptionMatcher()
        self._conflicts_told.clear()
