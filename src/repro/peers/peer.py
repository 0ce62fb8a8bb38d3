"""The query peer: one participant that can play any of the paper's roles.

The paper stresses that in a P2P system roles "are not fixed or
pre-assigned; this query's client may well become the next query's server".
:class:`QueryPeer` therefore implements *all* the machinery — publishing
collections (base server), indexing other servers (index / meta-index
server), issuing queries (client) — and a peer simply enables the roles it
wants.  Thin subclasses in :mod:`repro.peers.roles` give the conventional
names used by examples and benchmarks.

Message kinds understood:

``mqp``
    A serialized mutant query plan to process and route onward — whole,
    or, where a hop holds a union, scattered: one small plan per server
    that can reduce a group of its branches, each carrying its branch
    path and its share of the query's credit.
``result`` / ``partial-result``
    A (possibly partial) result arriving at its target in one frame: the
    answer of one piece, echoing the piece's branch path and credit.  The
    target's :class:`~repro.peers.gather.ResultGather` keeps pieces per
    path and calls the answer final when the credits sum to exactly 1.
``result-chunk`` / ``result-end``
    The chunked result protocol (``flags.streaming_results``): the
    answering peer pumps the result out as a sequence of small framed
    chunks with per-query sequence numbers, closed by a ``result-end``
    carrying the metadata the single ``result`` frame used to carry.
``cancel-query``
    A query was cancelled at its issuer: tear down open result streams,
    drop the plan if it arrives here, and propagate to every next hop a
    piece of it was sent to.
``register``
    A server announcing itself (entry + optional intensional statements).
``register-ack``
    The index server's acknowledgement, carrying its own entry so the
    registering peer learns about the indexer too.
``delivery-ack``
    The reliable-delivery protocol (``flags.reliable_delivery``): the
    receiver of a transfer-stamped message acknowledges the transfer id,
    letting the sender cancel its retransmission timer.  Unacknowledged
    transfers are retransmitted with exponential backoff until the retry
    budget is exhausted, at which point the sender reroutes (plans),
    tears down (streams), or dead-letters (results) — and records the
    failure so issuers can report per-hop delivery provenance.
``subscribe`` / ``unsubscribe``
    The continuous-query protocol: a standing query travels to the index
    servers covering its area, which record it and fan it out to
    overlapping base servers; each base
    server arms a publish-time matcher
    (:class:`~repro.catalog.matcher.SubscriptionMatcher`).  ``unsubscribe``
    retraces the same fan-out, disarming matchers and cancelling pending
    delta retransmissions at every hop.
``delta-chunk`` / ``delta-ack``
    Incremental results for standing queries: a mutation against an armed
    collection leaves the publisher as a ``delta-chunk`` envelope
    (``insert`` / ``update`` / ``retract``) with a per-subscription
    sequence number and epoch token, riding the same wire path — and the
    same reliable-delivery machinery — as ``result-chunk``.  The
    subscriber releases deltas strictly in sequence and acknowledges
    cumulatively with ``delta-ack`` so the publisher can trim its replay
    log.
``sub-conflict``
    Conflicting-authority detection (the MOAS analogy): a publisher armed
    for a subscription by one authority that receives the same
    subscription from a *different* authority keeps the original arming
    (never double-delivers) and surfaces the overlap to the subscriber.
``recon-request`` / ``recon-reply``
    Replica reconciliation (the sharded catalog tier): a replica rejoining
    its group asks the surviving members for the catalog entries covering
    its shard; the reply is merged through
    :func:`repro.catalogtier.reconcile_authoritative`, which adopts what
    the rejoiner missed and surfaces conflicting authority as
    ``AuthorityConflict``-shaped records instead of double-answering.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Iterator, Sequence

from ..algebra import QueryPlan
from ..algebra.expressions import Expression, parse_predicate
from ..algebra.serialization import parse_plan, serialize_plan
from ..catalog import (
    Catalog,
    CollectionRef,
    IntensionalStatement,
    NamedResourceEntry,
    RoutingCache,
    ServerEntry,
    ServerRole,
    SubscriptionMatcher,
    SubscriptionShape,
    subscribable_shape,
)
from ..catalogtier import AnswerCache, ShardMap, reconcile_authoritative
from ..errors import PeerError, PeerOffline
from ..mqp import (
    MQPProcessor,
    MutantQueryPlan,
    ProcessingResult,
    ProvenanceAction,
    QueryPreferences,
    RetryPolicy,
)
from ..mqp.plan import format_branch
from ..namespace import InterestArea, MultiHierarchicNamespace
from ..network import Event, Message, NetworkNode
from ..perf import flags
from ..xmlmodel import XMLElement, parse_xml, serialize_xml, utf8_len
from .gather import QueryResult, ResultGather, ResultItems, ResultPiece
from .gather import insert_capped as _insert_capped
from .subscriptions import (
    ArmedSubscription,
    DeltaRecord,
    PublisherFeed,
    SubscriberState,
    epoch_counter,
)

__all__ = ["RegistrationPayload", "QueryResult", "QueryPeer", "DeltaRecord"]


@dataclass
class RegistrationPayload:
    """What a server sends when registering with an index / meta-index server."""

    entry: ServerEntry
    statements: list[IntensionalStatement] = field(default_factory=list)
    named_resources: list[NamedResourceEntry] = field(default_factory=list)


@dataclass
class _ResultStream:
    """Producer-side state of one chunked result delivery."""

    query_id: str
    target: str
    iterator: Iterator[XMLElement]
    stream: str
    closing: dict  # what the result-end frame says once the chunks are out
    seq: int = 0
    sent_items: int = 0


def _item_key(item: XMLElement, key_path: str) -> str | None:
    """An item's mutation key: the ``key_path`` attribute or child text.

    Data sources differ on where they carry identity — marketplace items
    stamp an ``id`` attribute, document-style sources a child element —
    so the upsert/retract verbs accept either spelling.
    """
    value = item.attributes.get(key_path)
    if value is not None:
        return value
    return item.child_text(key_path)


@dataclass
class _PendingTransfer:
    """Sender-side state of one unacknowledged reliable transfer.

    Lives in ``_pending_transfers`` from first transmission until the
    delivery ack arrives (or the retry budget is exhausted).  ``attempts``
    counts retransmissions already sent — the original send is attempt 0 —
    and ``timer`` is the cancellable retransmission event armed by
    :meth:`QueryPeer._transmit`.
    """

    transfer: str
    recipient: str
    kind: str
    payload: object
    size_bytes: int
    query_id: str
    attempts: int = 0
    timer: Event | None = None
    last_message: Message | None = None


class _DeadLetterBuffer:
    """Capped, insertion-ordered record of undeliverable messages.

    A long-running relay under churn or faults accumulates dead letters
    without bound; the buffer retains only the most recent ``cap`` of them
    (the :func:`_insert_capped` idiom) while ``total`` and the per-kind
    tallies keep exact counts, so the scenario reports stay accurate even
    after eviction.  ``len()`` reports the total, not the retained window —
    existing accounting (and byte-identity of non-evicting runs) depends
    on that.
    """

    def __init__(self, cap: int = 1024) -> None:
        self.cap = cap
        self.total = 0
        self.by_kind: Counter[str] = Counter()
        self._entries: dict[int, Message] = {}

    def append(self, message: Message) -> None:
        self.total += 1
        self.by_kind[message.kind] += 1
        # Keyed by object identity: retained entries hold their references,
        # so ids stay unique for exactly as long as they are keys.
        _insert_capped(self._entries, id(message), message, self.cap)

    def __len__(self) -> int:
        return self.total

    def __bool__(self) -> bool:
        return self.total > 0

    def __iter__(self) -> Iterator[Message]:
        return iter(self._entries.values())

    def __getitem__(self, index: int) -> Message:
        return list(self._entries.values())[index]


@dataclass
class _ChunkAssembly:
    """Receiver-side reassembly of one chunked delivery.

    Chunks are individual messages, so the network may deliver them out of
    order; they are released to the arrival buffer (and the chunk watchers)
    strictly in sequence, and a ``result-end`` that overtakes its chunks is
    stashed until the sequence is complete.  Each assembly owns its own
    released-item list, so two deliveries for the same query — even
    interleaved — reassemble independently.
    """

    stream: str
    next_seq: int = 0
    items: list[XMLElement] = field(default_factory=list)  # released, in order
    pending: dict[int, list[XMLElement]] = field(default_factory=dict)
    end: dict | None = None  # a result-end envelope that arrived early


class QueryPeer(NetworkNode):
    """A peer that can serve data, maintain indexes, and issue queries."""

    def __init__(
        self,
        address: str,
        namespace: MultiHierarchicNamespace,
        roles: Sequence[ServerRole] = (ServerRole.BASE,),
        interest_area: InterestArea | None = None,
        authoritative: bool = False,
    ) -> None:
        super().__init__(address)
        self.namespace = namespace
        self.roles = set(roles)
        self.interest_area = interest_area or namespace.top_area()
        self.authoritative = authoritative
        self.catalog = Catalog(owner=address)
        self.cache = RoutingCache()
        self.collections: dict[str, list[XMLElement]] = {}
        self.collection_areas: dict[str, InterestArea] = {}
        self.processor = MQPProcessor(
            address,
            self.catalog,
            namespace,
            collections=self.collections,
            cache=self.cache,
        )
        if authoritative:
            self.processor.authority = self.interest_area
        # The answer so far per query (cumulative; see QueryResult), fed by
        # the gather, which owns the pieces of queries still coming home.
        self.results: dict[str, QueryResult] = {}
        self.gather = ResultGather()
        self._result_watchers: dict[str, list[Callable[[QueryResult], None]]] = {}
        self._terminal_watchers: dict[str, list[Callable[[QueryResult], None]]] = {}
        self.statements: list[IntensionalStatement] = []
        self.plans_processed = 0
        self.plans_forwarded = 0
        self.plans_stuck = 0
        # -- chunked result delivery + cancellation -------------------------- #
        self.result_chunk_items = 64
        # Insertion-ordered and capped (see _remember_cancelled /
        # _remember_forward): per-query bookkeeping on a long-running relay
        # must not grow without bound.
        self.cancelled_queries: dict[str, None] = {}
        self._cancel_notified: dict[tuple[str, str], None] = {}
        self.cancel_memory = 4096
        self.forward_memory = 4096
        self.assembly_memory = 1024
        self.plans_cancelled = 0
        # Keyed by (query, branch path): a peer may be pumping several
        # pieces of one scattered query at once.
        self._open_streams: dict[tuple[str, str], _ResultStream] = {}
        self._stream_counter = 0
        self._chunk_buffers: dict[str, list[XMLElement]] = {}
        self._chunk_assemblies: dict[tuple[str, str], _ChunkAssembly] = {}
        self._chunk_watchers: dict[str, list[Callable[[list[XMLElement], str], None]]] = {}
        # Every next hop a query's pieces left for (a scatter has many): the
        # fan-out a cancel notice must retrace.  Under reliable delivery the
        # pieces stay here too, in custody (see _resend_pieces).
        self._forwarded_to: dict[str, dict[str, list[str]]] = {}
        # -- churn awareness ------------------------------------------------ #
        self.registration_targets: list[str] = []
        self.suspected_dead: set[str] = set()
        self.plans_rerouted = 0
        self.plans_lost_in_crash = 0
        self.dead_letter_memory = 1024
        self.dead_letters = _DeadLetterBuffer(self.dead_letter_memory)
        # -- reliable delivery (flags.reliable_delivery) --------------------- #
        self.retry_policy = RetryPolicy()
        self.dedupe_memory = 4096
        self.failure_memory = 1024
        self._transfer_counter = 0
        self._pending_transfers: dict[str, _PendingTransfer] = {}
        self._seen_transfers: dict[str, None] = {}
        self.retries_sent = 0
        self.transfers_failed = 0
        self.duplicates_dropped = 0
        self.acks_sent = 0
        self.delivery_failures: dict[str, list[dict]] = {}
        # -- continuous queries --------------------------------------------- #
        self.matcher = SubscriptionMatcher()
        self.armed_subscriptions: dict[str, ArmedSubscription] = {}
        # Authority-side store: sub_id -> {"envelope": wire dict, "shape": parsed}.
        self.subscription_registry: dict[str, dict] = {}
        self.subscription_memory = 1024
        self.delta_log_memory = 256
        self.max_subscribe_hops = 4
        self.my_subscriptions: dict[str, SubscriberState] = {}
        self._delta_watchers: dict[str, list[Callable[[DeltaRecord], None]]] = {}
        self._conflict_notified: set[tuple[str, str]] = set()
        self._sub_counter = 0
        self._epoch_counter = 0
        self.deltas_published = 0
        self.deltas_delivered = 0
        self.delta_duplicates = 0
        self.delta_gaps = 0
        self.authority_conflicts = 0
        self.resubscribes = 0
        # -- sharded catalog tier ------------------------------------------- #
        self.shard_map: ShardMap | None = None
        self.replica_peers: list[str] = []
        self.reconciliations = 0
        self.recon_entries_adopted = 0
        self.recon_conflicts: list[dict] = []
        self.tier_failovers = 0
        # -- batched processing --------------------------------------------- #
        self.batch_window_ms: float | None = None
        self.batches_processed = 0
        self._mqp_buffer: list[str] = []
        self._flush_scheduled = False

    # ------------------------------------------------------------------ #
    # Base-server behaviour: publishing data
    # ------------------------------------------------------------------ #

    def publish_collection(
        self,
        name: str,
        items: Sequence[XMLElement],
        area: InterestArea | None = None,
    ) -> CollectionRef:
        """Store a named collection locally and describe it in the catalog."""
        path = name if name.startswith("/") else f"/{name}"
        self.collections[path] = list(items)
        self.collection_areas[path] = area or self.interest_area
        reference = CollectionRef(url=self.address, path=path, name=name, cardinality=len(items))
        self.catalog.register_server(self.server_entry())
        return reference

    def collection_items(self, name: str) -> list[XMLElement]:
        """Return the items of a local collection."""
        path = name if name.startswith("/") else f"/{name}"
        try:
            return self.collections[path]
        except KeyError:
            raise PeerError(f"{self.address}: no local collection {name!r}") from None

    def update_collection(
        self,
        name: str,
        items: Sequence[XMLElement],
        key_path: str = "id",
    ) -> tuple[int, int]:
        """Upsert ``items`` into a local collection, keyed by ``key_path``.

        The key is the item's ``key_path`` attribute, or — when the
        attribute is absent — the text of its ``key_path`` child element.
        An incoming item whose key matches an existing item replaces it;
        items with no match (or no key) are appended.  Returns the
        ``(inserted, updated)`` counts.  Matching armed subscriptions
        receive ``insert`` / ``update`` deltas — and an update that moves
        an item across a subscription's predicate boundary is delivered as
        the ``insert`` or ``retract`` the subscriber actually observes.
        """
        path = name if name.startswith("/") else f"/{name}"
        existing = self.collections.get(path)
        if existing is None:
            raise PeerError(f"{self.address}: no local collection {name!r}")
        positions: dict[str, int] = {}
        for index, item in enumerate(existing):
            key = _item_key(item, key_path)
            if key is not None and key not in positions:
                positions[key] = index
        inserts: list[XMLElement] = []
        updates: list[tuple[XMLElement, XMLElement]] = []
        for item in items:
            key = _item_key(item, key_path)
            position = positions.get(key) if key is not None else None
            if position is None:
                existing.append(item)
                inserts.append(item)
                if key is not None:
                    positions[key] = len(existing) - 1
            else:
                updates.append((existing[position], item))
                existing[position] = item
        self.catalog.register_server(self.server_entry())
        self._emit_mutation(path, inserts=inserts, updates=updates)
        return len(inserts), len(updates)

    def retract_from_collection(
        self,
        name: str,
        predicate: Expression | str | None = None,
        keys: Sequence[str] | None = None,
        key_path: str = "id",
    ) -> list[XMLElement]:
        """Remove items from a local collection and return them.

        Selects victims by ``keys`` (values reached through ``key_path``)
        or by a predicate (an :class:`Expression` or its text form).
        Matching armed subscriptions receive ``retract`` deltas carrying
        the removed items.
        """
        path = name if name.startswith("/") else f"/{name}"
        items = self.collections.get(path)
        if items is None:
            raise PeerError(f"{self.address}: no local collection {name!r}")
        if keys is not None:
            wanted = set(keys)
            removed = [item for item in items if _item_key(item, key_path) in wanted]
        elif predicate is not None:
            expression = (
                parse_predicate(predicate) if isinstance(predicate, str) else predicate
            )
            removed = [item for item in items if expression.matches(item)]
        else:
            raise PeerError("retract_from_collection needs a predicate or keys")
        if not removed:
            return []
        victims = {id(item) for item in removed}
        self.collections[path] = [item for item in items if id(item) not in victims]
        self.catalog.register_server(self.server_entry())
        self._emit_mutation(path, retracts=removed)
        return removed

    def publish_named_resource(self, urn_name: str, collection_name: str) -> None:
        """Expose a local collection under an application URN name."""
        path = collection_name if collection_name.startswith("/") else f"/{collection_name}"
        if path not in self.collections:
            raise PeerError(f"{self.address}: no local collection {collection_name!r}")
        entry = NamedResourceEntry(
            name=urn_name,
            collections=[CollectionRef(self.address, path, collection_name)],
            area=self.collection_areas.get(path),
        )
        self.catalog.register_named_resource(entry)

    def announce_statement(self, statement: IntensionalStatement) -> None:
        """Adopt an intensional statement this peer will announce on registration.

        Deduplicated by the statement's structural identity (its holdings
        carry server and collection): registration replay through two
        replicas of one group delivers the same announcement twice, and a
        double-counted statement would double-bind its alternatives.
        """
        if statement not in self.statements:
            self.statements.append(statement)
        self.catalog.register_statement(statement)

    def server_entry(self) -> ServerEntry:
        """The catalog entry describing this peer."""
        role = self._primary_role()
        collections = [
            CollectionRef(self.address, path, path.lstrip("/"), len(items))
            for path, items in sorted(self.collections.items())
        ]
        return ServerEntry(
            address=self.address,
            role=role,
            area=self.interest_area,
            authoritative=self.authoritative,
            collections=collections if role is ServerRole.BASE else [],
        )

    def _primary_role(self) -> ServerRole:
        for role in (ServerRole.META_INDEX, ServerRole.INDEX, ServerRole.BASE, ServerRole.CLIENT):
            if role in self.roles:
                return role
        return ServerRole.CLIENT

    # ------------------------------------------------------------------ #
    # Registration (§3.3): joining the distributed catalog
    # ------------------------------------------------------------------ #

    def register_with(self, server_address: str) -> None:
        """Push this peer's existence to an index / meta-index server."""
        payload = RegistrationPayload(
            entry=self.server_entry(),
            statements=list(self.statements),
            named_resources=list(self.catalog.named_resources.values()),
        )
        if server_address not in self.registration_targets:
            self.registration_targets.append(server_address)
        self.send(server_address, "register", payload, size_bytes=512)

    def learn_about(self, entry: ServerEntry) -> None:
        """Record another server in the local catalog (out-of-band discovery)."""
        self.catalog.register_server(entry)
        if entry.role in (ServerRole.INDEX, ServerRole.META_INDEX):
            self.cache.remember(entry.area, entry.address, entry.role.value)

    # ------------------------------------------------------------------ #
    # Sharded catalog tier
    # ------------------------------------------------------------------ #

    def join_catalog_tier(self, shard_map: ShardMap) -> None:
        """Adopt the cluster's shard map (and this peer's replica group).

        Every peer gets the map — it is what makes registrations and plan
        routing shard-aware — while replicas (members of some group)
        additionally learn their siblings for rejoin reconciliation and
        attach the hot-area answer cache to their catalog.
        """
        self.shard_map = shard_map
        self.processor.shard_map = shard_map
        group = shard_map.group_of(self.address)
        if group is not None:
            self.replica_peers = group.siblings_of(self.address)
            if self.catalog.answer_cache is None:
                self.catalog.attach_answer_cache(AnswerCache())

    def _same_replica_group(self, first: str, second: str) -> bool:
        if self.shard_map is None:
            return False
        group = self.shard_map.group_of(first)
        other = self.shard_map.group_of(second)
        return group is not None and other is not None and group.shard_id == other.shard_id

    def _note_tier_failover(self, dead: str) -> None:
        """Count a detected replica death: routing falls to a group sibling."""
        if self.shard_map is not None and self.shard_map.group_of(dead) is not None:
            self.tier_failovers += 1

    def _request_reconciliation(self) -> None:
        """Ask surviving group members for the shard's authoritative view."""
        for sibling in self.replica_peers:
            if sibling in self.suspected_dead:
                continue
            self.send(
                sibling,
                "recon-request",
                {"requester": self.address, "area": self.interest_area},
                size_bytes=128,
            )

    def _handle_recon_request(self, message: Message) -> None:
        area: InterestArea = message.payload["area"]
        entries = self.catalog.servers_overlapping(area)
        statements = [
            statement
            for statement in self.catalog.statements
            if statement.lhs.area.overlaps(area)
        ]
        self.send(
            message.sender,
            "recon-reply",
            {"source": self.address, "entries": entries, "statements": statements},
            size_bytes=64 + 96 * len(entries),
        )

    def _handle_recon_reply(self, message: Message) -> None:
        payload: dict = message.payload
        result = reconcile_authoritative(
            self.catalog,
            payload["entries"],
            rejoiner=self.address,
            source=str(payload["source"]),
            same_group=self._same_replica_group,
            now=self.now,
        )
        self.reconciliations += 1
        self.recon_entries_adopted += result.adopted
        for conflict in result.conflicts:
            # The sub-conflict machinery, reused: one surfaced record per
            # contested address, counted on the same authority_conflicts
            # tally the subscription layer reports.
            key = (str(conflict["sub"]), str(conflict["publisher"]))
            if key in self._conflict_notified:
                continue
            self._conflict_notified.add(key)
            self.authority_conflicts += 1
            self.recon_conflicts.append(conflict)
        for statement in payload.get("statements", ()):
            # register_statement dedupes structurally, so replies from two
            # survivors can never double-count a statement.
            self.catalog.register_statement(statement)

    # ------------------------------------------------------------------ #
    # Churn: leaving, crashing, and rejoining
    # ------------------------------------------------------------------ #

    def leave(self) -> None:
        """Depart gracefully: drain pending work, unregister, go offline.

        Plans buffered for the batch window are flushed first — a graceful
        leaver finishes the work it already accepted (only a *crash* loses
        buffered plans).  The unregister messages are queued before the
        peer goes offline, so indexers drop this peer's entries promptly
        instead of discovering the departure through failed forwards.
        """
        if self.network is not None:
            self._flush_mqp_batch()
            for target in self.registration_targets:
                self.send(target, "unregister", self.address, size_bytes=64)
        self.go_offline(graceful=True)

    def go_offline(self, graceful: bool = False) -> None:
        """Crash: in-RAM state dies with the process.

        Plans accepted into the batch buffer but not yet processed are
        lost here (and counted, so recall degradation under crash churn
        stays attributable).  Graceful departures call :meth:`leave`,
        which drains the buffer first and lets real transports flush the
        goodbye traffic before recycling the peer's connections.
        """
        self.plans_lost_in_crash += len(self._mqp_buffer)
        self._mqp_buffer.clear()
        for key in list(self._open_streams):
            self._teardown_stream(key)
        # Armed matcher state is in-RAM: a crashed publisher loses it and is
        # re-armed from an authority's registry when it registers again on
        # rejoin (with a fresh epoch).  The subscriber-side intent
        # (my_subscriptions) survives like registration_targets, so a
        # rejoining subscriber can replay from its last released sequence.
        self.armed_subscriptions.clear()
        self.matcher = SubscriptionMatcher()
        self._conflict_notified.clear()
        super().go_offline(graceful=graceful)

    def go_online(self) -> None:
        """Rejoin after an outage and re-propagate the registration (§3.3).

        The peer's collections and statements survived the outage, but the
        indexers may have pruned its entries after failed forwards — so
        every registration is pushed again over the network.
        """
        super().go_online()
        if self.network is not None:
            for target in list(self.registration_targets):
                self.register_with(target)
            for sub_id in list(self.my_subscriptions):
                self.resubscribe(sub_id)
            if self.replica_peers:
                # The group kept registering and pruning while this replica
                # was down: reconcile the authoritative set before serving.
                self._request_reconciliation()

    # ------------------------------------------------------------------ #
    # Client behaviour: issuing queries and receiving results
    # ------------------------------------------------------------------ #

    def submit_plan(
        self,
        plan: QueryPlan,
        preferences: QueryPreferences | None = None,
        expected_answers: int | None = None,
        query_id: str | None = None,
    ) -> MutantQueryPlan:
        """Create an MQP for ``plan`` and start processing it at this peer.

        This is the supported issue path (:class:`repro.api.Session` wraps
        it).  An offline peer cannot originate queries — it could neither
        forward the plan nor receive the answer — so issuing from one fails
        loudly instead of silently producing no result.
        """
        self._require_network()
        if not self.online:
            raise PeerOffline(
                f"{self.address} is offline and cannot issue queries"
            )
        mqp = MutantQueryPlan(
            plan=plan.copy(),
            preferences=preferences or QueryPreferences(),
            issued_at=self.now,
        )
        if query_id is not None:
            mqp.query_id = query_id
        trace = self.network.metrics.trace(mqp.query_id)  # type: ignore[union-attr]
        trace.issued_at = self.now
        trace.expected_answers = expected_answers
        self._process_and_act(mqp)
        return mqp

    # -- result watching (how repro.api.QueryHandle completes) ---------------- #

    def watch_results(self, query_id: str, callback: Callable[[QueryResult], None]) -> None:
        """Invoke ``callback`` for every result recorded under ``query_id``.

        If a result is already recorded (delivery beat the watcher), the
        callback fires immediately — registration can never miss the
        completion it is waiting for.  Watchers of an already-final query
        are not retained (a final result is terminal), and a query's
        watcher list is dropped the moment its final result is recorded.
        Watchers of a query that never records a final result (the plan
        died en route, or only partials arrived) stay registered until
        :meth:`unwatch_results` — :class:`repro.api.QueryHandle` calls it
        from its terminal paths (``close()``), so long-running peers do
        not accumulate entries for dead queries.
        """
        existing = self.results.get(query_id)
        if existing is not None and not existing.partial:
            callback(existing)  # terminal: replay without registering
            return
        self._result_watchers.setdefault(query_id, []).append(callback)
        if existing is not None:
            callback(existing)

    def unwatch_results(
        self, query_id: str, callback: Callable[[QueryResult], None] | None = None
    ) -> None:
        """Drop watchers for ``query_id`` — all of them, or one callback.

        Safe to call from inside a watcher callback: dispatch walks a
        snapshot but honours removals, so a watcher unregistered mid-flight
        (itself or a sibling) does not fire afterwards, and the remaining
        siblings are never skipped.  ``_terminal_watchers`` keeps the list
        of a final result addressable while its dispatch is running, so
        unwatching during the terminal notification works too.
        """
        if callback is None:
            self._result_watchers.pop(query_id, None)
            terminal = self._terminal_watchers.get(query_id)
            if terminal is not None:
                terminal.clear()
            return
        for registry in (self._result_watchers, self._terminal_watchers):
            watchers = registry.get(query_id)
            if watchers is None:
                continue
            try:
                watchers.remove(callback)
            except ValueError:
                continue
            if not watchers and registry is self._result_watchers:
                registry.pop(query_id, None)

    def _dispatch_result(self, query_id: str, result: QueryResult) -> None:
        """Notify the query's watchers, tolerating reentrant registry edits.

        A watcher may unwatch itself, unwatch a sibling, register new
        watchers, or issue a brand-new query (whose own delivery may recurse
        into this method for a different query id) — none of which may
        corrupt the registry or skip a still-registered sibling.
        """
        if result.partial:
            live = self._result_watchers.get(query_id)
            if not live:
                # Nothing registered for this partial.  Leave any terminal
                # holder alone: a reentrant partial dispatch (from inside a
                # watcher running under the final dispatch below) must not
                # release the list the outer loop is still walking.
                return
        else:
            # A final result is terminal: release the registry entry first,
            # but keep the list reachable for unwatch calls mid-dispatch.
            live = self._result_watchers.pop(query_id, None)
            if live is not None:
                self._terminal_watchers[query_id] = live
            if not live:
                self._terminal_watchers.pop(query_id, None)
                return
        try:
            for watcher in list(live):
                holder = (
                    self._result_watchers.get(query_id)
                    if result.partial
                    else self._terminal_watchers.get(query_id)
                )
                if holder is None or watcher not in holder:
                    continue  # unregistered while dispatch was running
                watcher(result)
        finally:
            self._terminal_watchers.pop(query_id, None)

    # -- chunk watching (how QueryHandle.items() streams) --------------------- #

    def watch_chunks(
        self, query_id: str, callback: Callable[[list[XMLElement], str], None]
    ) -> None:
        """Invoke ``callback(items, stream)`` per batch of arrived chunk items.

        The stream token identifies the delivery the batch belongs to; a
        token change means a new delivery superseded the previous one.
        """
        self._chunk_watchers.setdefault(query_id, []).append(callback)

    def unwatch_chunks(
        self, query_id: str, callback: Callable[[list[XMLElement], str], None] | None = None
    ) -> None:
        """Drop chunk watchers for ``query_id`` — all of them, or one."""
        if callback is None:
            self._chunk_watchers.pop(query_id, None)
            return
        watchers = self._chunk_watchers.get(query_id)
        if watchers is None:
            return
        try:
            watchers.remove(callback)
        except ValueError:
            pass
        if not watchers:
            self._chunk_watchers.pop(query_id, None)

    def chunk_items(self, query_id: str) -> list[XMLElement]:
        """Every chunk item received so far for ``query_id`` (arrival order)."""
        return list(self._chunk_buffers.get(query_id, ()))

    # ------------------------------------------------------------------ #
    # Continuous queries
    # ------------------------------------------------------------------ #

    def subscribe_plan(self, plan: QueryPlan, sub_id: str | None = None) -> str:
        """Register ``plan`` as a standing query and return its id.

        The plan must be subscribable (select/project over one
        interest-area URN — :func:`~repro.catalog.matcher.subscribable_shape`
        raises otherwise).  The subscribe envelope travels to the
        authoritative index servers covering the area, which fan it out to
        the base servers actually holding overlapping data; deltas then
        flow directly publisher → subscriber.
        """
        self._require_network()
        if not self.online:
            raise PeerOffline(f"{self.address} is offline and cannot subscribe")
        subscribable_shape(plan)  # validate before anything is registered
        if sub_id is None:
            self._sub_counter += 1
            sub_id = f"{self.address}#sub{self._sub_counter}"
        state = SubscriberState(sub_id=sub_id, document=serialize_plan(plan))
        self.my_subscriptions[sub_id] = state
        self._send_subscribe(state)
        return sub_id

    def resubscribe(self, sub_id: str) -> None:
        """Re-send a subscription with resume tokens (after churn).

        A rejoining subscriber calls this (``go_online`` does it
        automatically) so every publisher replays from the last sequence
        number this peer released — no gaps, no duplicates.
        """
        state = self.my_subscriptions.get(sub_id)
        if state is None:
            raise PeerError(f"{self.address}: unknown subscription {sub_id!r}")
        self.resubscribes += 1
        self._send_subscribe(state)

    def unsubscribe(self, sub_id: str) -> None:
        """Tear the subscription down at every hop.  Idempotent.

        Mirrors :meth:`cancel_query`'s upstream propagation: the
        unsubscribe notice retraces the subscribe fan-out (authorities
        drop their registry entries and forward; publishers disarm their
        matchers and cancel pending delta retransmissions).
        """
        state = self.my_subscriptions.pop(sub_id, None)
        if state is None:
            return
        state.active = False
        self._delta_watchers.pop(sub_id, None)
        self._cancel_sub_transfers(sub_id)
        if self.network is None or not self.online:
            return
        for target in sorted(set(state.targets) | set(state.feeds)):
            self._send_query_traffic(
                target, "unsubscribe", {"sub": sub_id, "hops": 0}, 64, query_id=sub_id
            )

    def subscription_state(self, sub_id: str) -> SubscriberState | None:
        """The subscriber-side state for ``sub_id`` (``None`` when unknown)."""
        return self.my_subscriptions.get(sub_id)

    # -- delta watching (how repro.api.Subscription streams) ------------------- #

    def watch_deltas(self, sub_id: str, callback: Callable[[DeltaRecord], None]) -> None:
        """Invoke ``callback`` for every delta released under ``sub_id``."""
        self._delta_watchers.setdefault(sub_id, []).append(callback)

    def unwatch_deltas(
        self, sub_id: str, callback: Callable[[DeltaRecord], None] | None = None
    ) -> None:
        """Drop delta watchers for ``sub_id`` — all of them, or one."""
        if callback is None:
            self._delta_watchers.pop(sub_id, None)
            return
        watchers = self._delta_watchers.get(sub_id)
        if watchers is None:
            return
        try:
            watchers.remove(callback)
        except ValueError:
            pass
        if not watchers:
            self._delta_watchers.pop(sub_id, None)

    # -- subscriber side ------------------------------------------------------- #

    def _send_subscribe(self, state: SubscriberState) -> None:
        shape = subscribable_shape(parse_plan(state.document))
        targets = [
            entry.address
            for entry in self.catalog.authoritative_servers(shape.area)
            if entry.address != self.address
        ]
        if not targets:
            targets = [
                entry.address
                for entry in self.catalog.servers_overlapping(
                    shape.area, roles=(ServerRole.INDEX, ServerRole.META_INDEX)
                )
                if entry.address != self.address
            ]
        holds_data = self._holds_overlap(shape.area)
        if not targets and not holds_data:
            raise PeerError(
                f"{self.address}: no index server known for area {shape.area}"
            )
        resume = {
            publisher: [feed.epoch, feed.next_seq - 1]
            for publisher, feed in state.feeds.items()
        }
        envelope = {
            "document": state.document,
            "sub": state.sub_id,
            "subscriber": self.address,
            "authority": "",
            "resume": resume,
            "hops": 0,
        }
        state.targets = list(targets)
        for target in targets:
            self._send_query_traffic(
                target,
                "subscribe",
                dict(envelope),
                utf8_len(state.document),
                query_id=state.sub_id,
            )
        if holds_data:
            # Self-subscription: this peer's own collections feed the query.
            self._arm_subscription(state.sub_id, self.address, shape, "", resume)

    def _handle_delta_chunk(self, message: Message) -> None:
        envelope: dict = message.payload
        sub_id = envelope["sub"]
        publisher = str(envelope.get("publisher", message.sender))
        state = self.my_subscriptions.get(sub_id)
        if state is None or not state.active:
            # A straggler feed for a dead subscription: tell the publisher
            # to tear down — once, not once per frame already in flight
            # (the same notify-once idiom as cancelled-query chunks).
            if (sub_id, publisher) not in self._cancel_notified:
                _insert_capped(
                    self._cancel_notified, (sub_id, publisher), None, self.cancel_memory
                )
                self.send(publisher, "unsubscribe", {"sub": sub_id, "hops": 0}, size_bytes=64)
            return
        epoch = str(envelope["epoch"])
        seq = int(envelope["seq"])
        feed = state.feeds.get(publisher)
        if feed is None or feed.epoch != epoch:
            if feed is not None and epoch_counter(epoch) <= epoch_counter(feed.epoch):
                return  # a stale retransmit from before the publisher re-armed
            feed = PublisherFeed(epoch=epoch)
            state.feeds[publisher] = feed
        if seq < feed.next_seq or seq in feed.pending:
            # Already released (or already held): a fault-cloned frame or a
            # replay overlapping the resume point.  Re-acknowledge so the
            # publisher trims its log even if the original ack was lost.
            self.delta_duplicates += 1
            self.send(
                publisher,
                "delta-ack",
                {"sub": sub_id, "seq": feed.next_seq - 1},
                size_bytes=32,
            )
            return
        feed.pending[seq] = envelope
        while feed.next_seq in feed.pending:
            held = feed.pending.pop(feed.next_seq)
            record = DeltaRecord(
                sub_id=sub_id,
                kind=str(held.get("kind", "insert")),
                items=list(parse_xml(held["document"]).children),
                publisher=publisher,
                epoch=epoch,
                seq=feed.next_seq,
                received_at=self.now,
            )
            feed.next_seq += 1
            state.deltas.append(record)
            self.deltas_delivered += 1
            watchers = self._delta_watchers.get(sub_id)
            if watchers:
                for watcher in list(watchers):
                    if watcher in (self._delta_watchers.get(sub_id) or ()):
                        watcher(record)
        self.send(
            publisher,
            "delta-ack",
            {"sub": sub_id, "seq": feed.next_seq - 1},
            size_bytes=32,
        )

    def _handle_sub_conflict(self, message: Message) -> None:
        envelope: dict = message.payload
        state = self.my_subscriptions.get(envelope["sub"])
        if state is not None:
            state.conflicts.append(dict(envelope))

    # -- authority side -------------------------------------------------------- #

    def _handle_subscribe(self, message: Message) -> None:
        envelope: dict = message.payload
        sub_id = str(envelope["sub"])
        subscriber = str(envelope["subscriber"])
        hops = int(envelope.get("hops", 0))
        shape = subscribable_shape(parse_plan(envelope["document"]))
        if subscriber != self.address and self._holds_overlap(shape.area):
            self._arm_subscription(
                sub_id,
                subscriber,
                shape,
                str(envelope.get("authority", "")),
                dict(envelope.get("resume") or {}),
            )
        if ({ServerRole.INDEX, ServerRole.META_INDEX} & self.roles
                and hops < self.max_subscribe_hops):
            stored = dict(envelope)
            stored["hops"] = hops
            _insert_capped(
                self.subscription_registry,
                sub_id,
                {"envelope": stored, "shape": shape},
                self.subscription_memory,
            )
            self._forward_subscription(stored, shape)

    def _forward_subscription(self, envelope: dict, shape: SubscriptionShape) -> None:
        """Fan a subscribe envelope out towards the data it watches.

        An authoritative indexer stamps itself as the subscription's
        authority; base servers receiving the same subscription from two
        *different* authorities raise the MOAS-style conflict instead of
        arming twice.
        """
        forwarded = dict(envelope)
        if self.authoritative or not forwarded.get("authority"):
            forwarded["authority"] = self.address
        forwarded["hops"] = int(envelope.get("hops", 0)) + 1
        subscriber = str(envelope["subscriber"])
        for address in self._subscription_fanout(shape.area, subscriber):
            self._send_query_traffic(
                address,
                "subscribe",
                dict(forwarded),
                utf8_len(str(envelope["document"])),
                query_id=str(envelope["sub"]),
            )

    def _subscription_fanout(self, area: InterestArea, subscriber: str) -> list[str]:
        """Where a subscribe/unsubscribe travels next from this hop."""
        roles: tuple[ServerRole, ...] = (ServerRole.BASE,)
        if ServerRole.META_INDEX in self.roles:
            # The meta-index also seeds the index layer, so a failed-over
            # authority can re-arm publishers from its own registry.
            roles = (ServerRole.BASE, ServerRole.INDEX)
        return [
            entry.address
            for entry in self.catalog.servers_overlapping(area, roles=roles)
            if entry.address not in (self.address, subscriber)
            and entry.address not in self.suspected_dead
        ]

    def _rearm_registrant(self, entry: ServerEntry) -> None:
        """Re-forward stored subscriptions to a (re)registering server.

        This is how matchers survive churn: a publisher that crashed and
        rejoined registers here, and every overlapping subscription in the
        registry travels back to it — arming a fresh epoch.  A server that
        registers *after* a subscription was made is armed the same way.
        """
        for sub_id, record in list(self.subscription_registry.items()):
            envelope: dict = record["envelope"]
            shape: SubscriptionShape = record["shape"]
            if envelope["subscriber"] == entry.address:
                continue
            if not shape.area.overlaps(entry.area):
                continue
            forwarded = dict(envelope)
            if self.authoritative or not forwarded.get("authority"):
                forwarded["authority"] = self.address
            forwarded["hops"] = int(envelope.get("hops", 0)) + 1
            self._send_query_traffic(
                entry.address,
                "subscribe",
                forwarded,
                utf8_len(str(envelope["document"])),
                query_id=sub_id,
            )

    def _handle_unsubscribe(self, message: Message) -> None:
        envelope: dict = message.payload
        sub_id = str(envelope["sub"])
        hops = int(envelope.get("hops", 0))
        armed = self.armed_subscriptions.pop(sub_id, None)
        if armed is not None:
            self.matcher.disarm(sub_id)
            self._cancel_sub_transfers(sub_id)
        record = self.subscription_registry.pop(sub_id, None)
        if record is not None and hops < self.max_subscribe_hops:
            shape: SubscriptionShape = record["shape"]
            subscriber = str(record["envelope"]["subscriber"])
            for address in self._subscription_fanout(shape.area, subscriber):
                self._send_query_traffic(
                    address,
                    "unsubscribe",
                    {"sub": sub_id, "hops": hops + 1},
                    64,
                    query_id=sub_id,
                )

    def _cancel_sub_transfers(self, sub_id: str) -> None:
        """Kill pending delta retransmissions for one subscription.

        Delta transfers are keyed by subscription id exactly like query
        transfers are keyed by query id, so teardown mirrors
        :meth:`cancel_query`'s timer sweep.
        """
        for transfer, state in list(self._pending_transfers.items()):
            if state.query_id == sub_id:
                del self._pending_transfers[transfer]
                if state.timer is not None:
                    state.timer.cancel()

    # -- publisher side -------------------------------------------------------- #

    def _holds_overlap(self, area: InterestArea) -> bool:
        return any(
            area.overlaps(collection_area)
            for collection_area in self.collection_areas.values()
        )

    def _arm_subscription(
        self,
        sub_id: str,
        subscriber: str,
        shape: SubscriptionShape,
        authority: str,
        resume: dict,
    ) -> None:
        existing = self.armed_subscriptions.get(sub_id)
        if existing is not None:
            if authority and existing.authority and authority != existing.authority:
                # MOAS-style conflict: a second authority claims this
                # subscription's area.  Keep the original arming — never
                # double-deliver — and surface the overlap to the
                # subscriber (once per conflicting authority).
                self.authority_conflicts += 1
                if (sub_id, authority) not in self._conflict_notified:
                    self._conflict_notified.add((sub_id, authority))
                    self.send(
                        subscriber,
                        "sub-conflict",
                        {
                            "sub": sub_id,
                            "publisher": self.address,
                            "authorities": sorted((existing.authority, authority)),
                            "at_ms": round(self.now, 3),
                        },
                        size_bytes=96,
                    )
                return
            if authority and not existing.authority:
                existing.authority = authority
            existing.paused = False
            self._replay_deltas(existing, resume)
            return
        self._epoch_counter += 1
        armed = ArmedSubscription(
            sub_id=sub_id,
            subscriber=subscriber,
            shape=shape,
            authority=authority,
            epoch=f"{self.address}/e{self._epoch_counter}",
        )
        self.armed_subscriptions[sub_id] = armed
        self.matcher.arm(sub_id, shape)
        self._replay_deltas(armed, resume)

    def _replay_deltas(self, armed: ArmedSubscription, resume: dict) -> None:
        """Retransmit everything the subscriber has not seen, in order.

        The resume token names the last sequence the subscriber released
        for *this* publisher and epoch; without one (or across an epoch
        change) the whole unacknowledged log replays.  A hole in the log —
        an unacknowledged delta the bounded log already evicted — means
        this epoch cannot be resumed without a silent gap, so the
        subscription re-arms under a fresh epoch instead (the subscriber
        observes the continuity break and can fall back to a snapshot).
        """
        token = resume.get(self.address)
        if token is not None and str(token[0]) == armed.epoch:
            start = int(token[1]) + 1
        else:
            start = armed.acked_seq + 1
        if any(seq not in armed.log for seq in range(start, armed.next_seq)):
            self.delta_gaps += 1
            self._epoch_counter += 1
            armed.epoch = f"{self.address}/e{self._epoch_counter}"
            armed.next_seq = 0
            armed.acked_seq = -1
            armed.log.clear()
            return
        for seq in range(start, armed.next_seq):
            self._transmit_delta(armed, armed.log[seq])

    def _emit_mutation(
        self,
        path: str,
        inserts: Sequence[XMLElement] = (),
        updates: Sequence[tuple[XMLElement, XMLElement]] = (),
        retracts: Sequence[XMLElement] = (),
    ) -> None:
        """Match one collection mutation against the armed subscriptions.

        Candidate subscriptions come from the matcher's trie walk over the
        collection's area — O(depth + matches), never O(armed plans) — and
        each candidate classifies the mutation through its own predicate:
        an update whose old state matched but whose new state does not is
        that subscriber's ``retract``, and vice versa.
        """
        if not self.armed_subscriptions:
            return
        if self.network is None or not self.online:
            return
        area = self.collection_areas.get(path)
        if area is None:
            return
        for sub_id, shape in self.matcher.matching(area):
            armed = self.armed_subscriptions[sub_id]
            inserted = [item for item in inserts if shape.relevant(item)]
            updated: list[XMLElement] = []
            retracted = [item for item in retracts if shape.relevant(item)]
            for old, new in updates:
                was_relevant = shape.relevant(old)
                is_relevant = shape.relevant(new)
                if was_relevant and is_relevant:
                    updated.append(new)
                elif is_relevant:
                    inserted.append(new)
                elif was_relevant:
                    retracted.append(old)
            for kind, batch in (
                ("insert", inserted),
                ("update", updated),
                ("retract", retracted),
            ):
                if batch:
                    self._publish_delta(armed, shape, kind, batch)

    def _publish_delta(
        self,
        armed: ArmedSubscription,
        shape: SubscriptionShape,
        kind: str,
        items: list[XMLElement],
    ) -> None:
        out = shape.apply(items)
        document = serialize_xml(
            XMLElement(
                "delta",
                {"sub": armed.sub_id, "kind": kind, "seq": str(armed.next_seq)},
                out,
            )
        )
        envelope = {
            "document": document,
            "sub": armed.sub_id,
            "publisher": self.address,
            "epoch": armed.epoch,
            "seq": armed.next_seq,
            "kind": kind,
        }
        armed.log[armed.next_seq] = envelope
        armed.next_seq += 1
        while len(armed.log) > self.delta_log_memory:
            del armed.log[next(iter(armed.log))]
        self.deltas_published += 1
        if not armed.paused:
            self._transmit_delta(armed, envelope)

    def _transmit_delta(self, armed: ArmedSubscription, envelope: dict) -> None:
        # Keyed by subscription id the way query traffic is keyed by query
        # id, so the reliable-delivery ack/retry machinery — and the
        # teardown sweep in _cancel_sub_transfers — apply unchanged.
        self._send_query_traffic(
            armed.subscriber,
            "delta-chunk",
            dict(envelope),
            utf8_len(envelope["document"]),
            armed.sub_id,
        )

    def _handle_delta_ack(self, message: Message) -> None:
        envelope: dict = message.payload
        armed = self.armed_subscriptions.get(envelope["sub"])
        if armed is None:
            return
        seq = int(envelope["seq"])
        if seq > armed.acked_seq:
            armed.acked_seq = seq
            for logged in [s for s in armed.log if s <= seq]:
                del armed.log[logged]

    def _pause_subscription(self, sub_id: str) -> None:
        """Delivery to the subscriber failed: stop transmitting, keep logging.

        Deltas published while paused accumulate in the replay log; the
        subscriber's re-subscription (its rejoin path) resumes the feed
        from its last released sequence.
        """
        armed = self.armed_subscriptions.get(sub_id)
        if armed is not None:
            armed.paused = True

    # ------------------------------------------------------------------ #
    # Message handling
    # ------------------------------------------------------------------ #

    def handle_message(self, message: Message) -> None:
        if message.kind != "peer-unreachable":
            # Any delivered message proves its sender is alive again.
            self.suspected_dead.discard(message.sender)
        if message.kind == "delivery-ack":
            self._handle_delivery_ack(message)
            return
        if message.transfer is not None:
            # At-least-once delivery: acknowledge *every* attempt (the ack
            # for an earlier attempt may itself have been lost), but process
            # only the first copy — a retransmitted plan must not be
            # evaluated twice, a retransmitted chunk not counted twice.
            self.acks_sent += 1
            self.send(message.sender, "delivery-ack", message.transfer, size_bytes=32)
            duplicate = message.transfer in self._seen_transfers
            _insert_capped(self._seen_transfers, message.transfer, None, self.dedupe_memory)
            if duplicate:
                self.duplicates_dropped += 1
                return
        if message.kind == "mqp":
            self._handle_mqp(message)
        elif message.kind in ("result", "partial-result"):
            self._handle_result(message)
        elif message.kind == "result-chunk":
            self._handle_result_chunk(message)
        elif message.kind == "result-end":
            self._handle_result_end(message)
        elif message.kind == "cancel-query":
            self.cancel_query(message.payload)
        elif message.kind == "subscribe":
            self._handle_subscribe(message)
        elif message.kind == "unsubscribe":
            self._handle_unsubscribe(message)
        elif message.kind == "delta-chunk":
            self._handle_delta_chunk(message)
        elif message.kind == "delta-ack":
            self._handle_delta_ack(message)
        elif message.kind == "sub-conflict":
            self._handle_sub_conflict(message)
        elif message.kind == "recon-request":
            self._handle_recon_request(message)
        elif message.kind == "recon-reply":
            self._handle_recon_reply(message)
        elif message.kind == "register":
            self._handle_register(message)
        elif message.kind == "register-ack":
            self._handle_register_ack(message)
        elif message.kind == "unregister":
            self._handle_unregister(message)
        elif message.kind == "peer-unreachable":
            self._handle_unreachable(message)
        else:
            raise PeerError(f"{self.address}: unknown message kind {message.kind!r}")

    # -- MQP handling --------------------------------------------------------- #

    def enable_batching(self, window_ms: float = 0.0) -> None:
        """Buffer incoming plans and process them through the batched pipeline.

        Plans arriving within ``window_ms`` of the first buffered plan (0
        means the same simulated instant) are parsed, bound, optimized and
        evaluated together, sharing catalog lookups and evaluation results
        across the batch (the scale-out fast path).
        """
        self.batch_window_ms = window_ms

    def _handle_mqp(self, message: Message) -> None:
        if self.batch_window_ms is None:
            mqp = MutantQueryPlan.deserialize(message.payload)
            self._process_and_act(mqp)
            return
        self._mqp_buffer.append(message.payload)
        if not self._flush_scheduled:
            self._flush_scheduled = True
            self.schedule(self.batch_window_ms, self._flush_mqp_batch)

    def _flush_mqp_batch(self) -> None:
        self._flush_scheduled = False
        documents, self._mqp_buffer = self._mqp_buffer, []
        if not documents:
            return
        mqps = [MutantQueryPlan.deserialize(document) for document in documents]
        if self.cancelled_queries:
            kept = [mqp for mqp in mqps if mqp.query_id not in self.cancelled_queries]
            self.plans_cancelled += len(mqps) - len(kept)
            mqps = kept
            if not mqps:
                return
        self.batches_processed += 1
        self.plans_processed += len(mqps)
        for mqp in mqps:
            trace = self.network.metrics.trace(mqp.query_id)  # type: ignore[union-attr]
            trace.visited.append(self.address)
        results = self.processor.process_batch(mqps, now=self.now, avoid=self.suspected_dead)
        for result in results:
            self.processor.learn_from(result.mqp)
            self._act_on(result)

    def _process_and_act(self, mqp: MutantQueryPlan, rerouted: bool = False) -> None:
        if mqp.query_id in self.cancelled_queries:
            self.plans_cancelled += 1
            return
        if rerouted:
            self.plans_rerouted += 1
        else:
            self.plans_processed += 1
        trace = self.network.metrics.trace(mqp.query_id)  # type: ignore[union-attr]
        trace.visited.append(self.address)
        result = self.processor.process(mqp, now=self.now, avoid=self.suspected_dead)
        self.processor.learn_from(mqp)
        self._act_on(result)

    def _act_on(self, result: ProcessingResult) -> None:
        """Send every outgoing piece on its way: forwarding is a scatter of one."""
        trace = self.network.metrics.trace(result.mqp.query_id)  # type: ignore[union-attr]
        for piece in result.pieces:
            mqp = piece.mqp
            if piece.next_hop is None:
                if piece.reason in ("stuck", "unreachable"):
                    # Deliver whatever partial answer exists rather than dropping.
                    self.plans_stuck += 1
                self._deliver(mqp, piece.reason)
                continue
            self.plans_forwarded += 1
            payload = mqp.serialize()
            self._remember_forward(mqp.query_id, piece.next_hop, payload)
            sent = self._send_query_traffic(
                piece.next_hop, "mqp", payload, utf8_len(payload), mqp.query_id
            )
            trace.messages += 1
            trace.bytes += sent.size_bytes

    def _deliver(self, mqp: MutantQueryPlan, reason: str | None = None) -> None:
        """Ship what ``mqp`` holds to its target; ``reason`` marks it partial."""
        partial = reason is not None
        target = mqp.target or self.address
        mqp.provenance.add(self.address, ProvenanceAction.DELIVERED, self.now, detail=target)
        items = self._extract_result_items(mqp, partial)
        envelope = {
            "query_id": mqp.query_id,
            "partial": partial,
            "hops": mqp.provenance.hop_count(),
            "staleness": mqp.provenance.max_staleness(),
            # Which piece of the query this is and the credit it returns:
            # what lets the target know when every piece is home.
            "branch": format_branch(mqp.branch),
            "credit": str(mqp.credit),
        }
        if partial:
            envelope["reason"] = reason
        if target == self.address:
            # Same guards as _handle_result: a duplicate plan copy that goes
            # stuck here must not overwrite a recorded complete answer (and
            # a cancelled query records nothing).
            if mqp.query_id not in self.cancelled_queries:
                self._attach_failures(envelope)
                self._record_piece(envelope, items)
            return
        if flags.streaming_results:
            self._stream_result(envelope, items, target)
            return
        # The wrapper shares the items: it exists only to be serialized on
        # the next line, and serialization never mutates.
        payload = serialize_xml(XMLElement("result", {"query-id": mqp.query_id}, items))
        envelope["document"] = payload
        envelope["items"] = len(items)  # lets the target count the answer without parsing it
        self._attach_failures(envelope)
        trace = self.network.metrics.trace(mqp.query_id)  # type: ignore[union-attr]
        sent = self._send_query_traffic(
            target,
            "partial-result" if partial else "result",
            envelope,
            utf8_len(payload),
            mqp.query_id,
        )
        trace.messages += 1
        trace.bytes += sent.size_bytes

    def _attach_failures(self, envelope: dict) -> None:
        """Per-hop failure provenance travels with the answer, so the issuer
        can annotate a degraded result with *where* delivery gave up — not
        just that something is missing."""
        failures = self.delivery_failures.get(envelope["query_id"])
        if failures:
            envelope["failures"] = [dict(record) for record in failures]

    # -- chunked result delivery (flags.streaming_results) --------------------- #

    def _stream_result(self, closing: dict, items: Sequence[XMLElement], target: str) -> None:
        """Open a chunked delivery: the result leaves as framed chunks.

        ``closing`` is the metadata the ``result-end`` frame will carry.
        The stream token distinguishes deliveries when one piece of a query
        is answered more than once (a partial from a stuck copy, then the
        complete answer): the receiver reassembles per stream, never mixing
        two deliveries' items.
        """
        key = (closing["query_id"], closing["branch"])
        # A newer delivery supersedes any stream still pumping for this
        # piece: close its iterator instead of silently truncating it.
        self._teardown_stream(key)
        self._stream_counter += 1
        state = _ResultStream(
            query_id=closing["query_id"],
            target=target,
            iterator=iter(items),
            stream=f"{self.address}/{self._stream_counter}",
            closing=closing,
        )
        self._open_streams[key] = state
        self._pump_stream(key, state.stream)

    def _pump_stream(self, key: tuple[str, str], stream: str) -> None:
        """Send the next chunk of an open stream, or close it with result-end.

        Each chunk is its own framed message on the wire, and the next pump
        is a fresh event on the logical clock — so a bounded receiving
        inbox (the aio backend) exerts backpressure between chunks, and a
        cancel notice arriving mid-stream tears the iterator down before
        the remaining chunks are produced.
        """
        state = self._open_streams.get(key)
        if state is None or state.stream != stream:
            # A stale pump event: its stream was torn down (or superseded
            # by a newer delivery, which drives its own pump chain — one
            # chunk per logical event, never two).
            return
        query_id = state.query_id
        if not self.online or query_id in self.cancelled_queries:
            self._teardown_stream(key)
            return
        chunk = list(islice(state.iterator, self.result_chunk_items))
        trace = self.network.metrics.trace(query_id)  # type: ignore[union-attr]
        if chunk:
            collection = XMLElement(
                "result-chunk", {"query-id": query_id, "seq": str(state.seq)}, chunk
            )
            payload = serialize_xml(collection)
            envelope = {
                "document": payload,
                "query_id": query_id,
                "stream": state.stream,
                "seq": state.seq,
            }
            sent = self._send_query_traffic(
                state.target, "result-chunk", envelope, utf8_len(payload), query_id
            )
            trace.messages += 1
            trace.bytes += sent.size_bytes
            state.seq += 1
            state.sent_items += len(chunk)
            self.schedule(0.0, lambda: self._pump_stream(key, stream))
            return
        envelope = {
            **state.closing,
            "stream": state.stream,
            "seq": state.seq,
            "items_total": state.sent_items,
        }
        self._attach_failures(envelope)
        sent = self._send_query_traffic(state.target, "result-end", envelope, 128, query_id)
        trace.messages += 1
        trace.bytes += sent.size_bytes
        self._open_streams.pop(key, None)

    def _teardown_stream(self, key: tuple[str, str]) -> None:
        state = self._open_streams.pop(key, None)
        if state is not None:
            close = getattr(state.iterator, "close", None)
            if close is not None:
                close()

    def _teardown_streams_of(self, query_id: str, stream: str | None = None) -> None:
        """Close the query's open streams — all, or the one with this token."""
        for key, state in list(self._open_streams.items()):
            if key[0] == query_id and stream in (None, state.stream):
                self._teardown_stream(key)

    @staticmethod
    def _extract_result_items(mqp: MutantQueryPlan, partial: bool) -> list[XMLElement]:
        if mqp.is_fully_evaluated():
            return list(mqp.plan.result().children)
        if not partial:
            return []
        items: list[XMLElement] = []
        for leaf in mqp.plan.verbatim_leaves():
            items.extend(leaf.items)
        return items

    def _handle_result(self, message: Message) -> None:
        envelope: dict = message.payload
        query_id = envelope["query_id"]
        if query_id in self.cancelled_queries:
            return  # the issuer no longer wants this answer
        # Counted now, parsed when (and if) somebody reads the answer.
        items = ResultItems.of_document(envelope["document"], envelope.get("items"))
        self._record_piece(envelope, items)

    def _record_piece(self, envelope: dict, items: Sequence[XMLElement]) -> None:
        """Hand one arrived result envelope to the gather and record its verdict."""
        query_id = envelope["query_id"]
        if self._is_answered(query_id):
            # A complete result is terminal: a straggling partial from a
            # slower relay path (or a duplicate) must not overwrite it.
            return
        self._absorb_failures(envelope)
        outcome = self.gather.offer(
            query_id, ResultPiece.from_envelope(envelope, items), now=self.now
        )
        if outcome is None:
            return  # malformed, a duplicate, or a branch already accounted for
        arrival, recorded = outcome
        self.results[query_id] = recorded
        if not recorded.partial:
            # The query is answered: any delivery still reassembling (a
            # superseded stream the producer tore down) is stale.
            self._chunk_buffers.pop(query_id, None)
            self._drop_assemblies(query_id)
        trace = self.network.metrics.trace(query_id)  # type: ignore[union-attr]
        trace.completed_at = self.now
        trace.answers = recorded.count
        self._dispatch_result(query_id, arrival)  # handle completion

    # -- chunked result reassembly ------------------------------------------- #

    def _assembly_for(self, query_id: str, stream: str) -> _ChunkAssembly:
        # Keyed by (query, stream): concurrent deliveries for one query
        # (a partial from a stuck branch interleaved with the complete
        # answer) reassemble independently instead of clobbering each other.
        key = (query_id, stream)
        assembly = self._chunk_assemblies.get(key)
        if assembly is None:
            assembly = _ChunkAssembly(stream=stream)
        # Each chunk arrival refreshes recency, so under the cap the
        # eviction victim is always a stream whose producer went quiet
        # mid-delivery.  Past the cap (more than assembly_memory deliveries
        # reassembling at once) the least-recently-fed live stream is
        # abandoned too: bounded memory wins over completeness, and the
        # waiting handle degrades exactly as if the producer had died
        # (idle → partial answer or QueryTimeout).
        _insert_capped(
            self._chunk_assemblies,
            key,
            assembly,
            self.assembly_memory,
            self._assembly_evicted,
        )
        return assembly

    def _assembly_evicted(self, key: object) -> None:
        query_id = key[0]  # type: ignore[index]
        if not any(k[0] == query_id for k in self._chunk_assemblies):
            self._chunk_buffers.pop(query_id, None)

    def _drop_assemblies(self, query_id: str) -> None:
        for key in [key for key in self._chunk_assemblies if key[0] == query_id]:
            del self._chunk_assemblies[key]

    def _is_answered(self, query_id: str) -> bool:
        """True once nothing more may be recorded for the query.

        That is: a complete (non-partial) result is recorded — or a partial
        one whose gather table is gone (evicted mid-gather: the pieces that
        were counted are forgotten, so later ones could only double-count).
        A superseded stream's in-flight chunks can straggle in after the
        superseding delivery already closed; replaying them would repopulate
        the arrival buffer with stale items (or strand an orphan assembly),
        so chunk and end frames for an answered query are dropped.
        """
        recorded = self.results.get(query_id)
        return recorded is not None and (
            not recorded.partial or query_id not in self.gather
        )

    def _handle_result_chunk(self, message: Message) -> None:
        envelope: dict = message.payload
        query_id = envelope["query_id"]
        if query_id in self.cancelled_queries:
            # Upstream teardown, driven by arriving traffic: tell the
            # producer to close its stream instead of pumping the rest —
            # once, not once per straggler frame already on the link.
            if (query_id, message.sender) not in self._cancel_notified:
                _insert_capped(
                    self._cancel_notified,
                    (query_id, message.sender),
                    None,
                    self.cancel_memory,
                )
                self.send(message.sender, "cancel-query", query_id, size_bytes=64)
            return
        if self._is_answered(query_id):
            return
        stream = str(envelope.get("stream", message.sender))
        seq = int(envelope.get("seq", 0))
        assembly = self._assembly_for(query_id, stream)
        items = list(parse_xml(envelope["document"]).children)
        if seq in assembly.pending or seq < assembly.next_seq:
            if self.network is not None and self.network.faults.active:
                # An injected duplicate (reliable transfers are deduped
                # before dispatch, so only fault-cloned frames land here):
                # drop it rather than double-count the items.
                self.duplicates_dropped += 1
                return
            raise PeerError(
                f"{self.address}: duplicate result-chunk {seq} for query {query_id!r}"
            )
        assembly.pending[seq] = items
        self._release_in_order(query_id, assembly)

    def _release_in_order(self, query_id: str, assembly: _ChunkAssembly) -> None:
        """Move consecutively sequenced chunks into the arrival buffer."""
        while assembly.next_seq in assembly.pending:
            items = assembly.pending.pop(assembly.next_seq)
            assembly.next_seq += 1
            assembly.items.extend(items)
            if self._chunk_buffers.get(query_id) is not assembly.items:
                # The arrival buffer mirrors whichever delivery released
                # most recently — always one delivery's in-order items,
                # never a mix of interleaved streams.  Buffers of degraded
                # (partial) answers a long-running issuer accumulates are
                # bounded exactly like the reassembly state.
                _insert_capped(
                    self._chunk_buffers, query_id, assembly.items, self.assembly_memory
                )
            watchers = self._chunk_watchers.get(query_id)
            if watchers:
                for watcher in list(watchers):
                    if watcher in (self._chunk_watchers.get(query_id) or ()):
                        watcher(items, assembly.stream)
        end = assembly.end
        if end is not None and assembly.next_seq >= int(end.get("seq", 0)):
            self._close_assembly(query_id, assembly)

    def _handle_result_end(self, message: Message) -> None:
        envelope: dict = message.payload
        query_id = envelope["query_id"]
        if query_id in self.cancelled_queries:
            self._chunk_buffers.pop(query_id, None)
            self._drop_assemblies(query_id)
            return
        if self._is_answered(query_id):
            return
        stream = str(envelope.get("stream", message.sender))
        assembly = self._assembly_for(query_id, stream)
        assembly.end = envelope
        if assembly.next_seq >= int(envelope.get("seq", 0)):
            self._close_assembly(query_id, assembly)
        # Otherwise the end overtook its chunks; it closes the stream the
        # moment the missing sequence numbers arrive.

    def _close_assembly(self, query_id: str, assembly: _ChunkAssembly) -> None:
        envelope = assembly.end
        assert envelope is not None
        self._chunk_assemblies.pop((query_id, assembly.stream), None)
        items = assembly.items
        expected_items = int(envelope.get("items_total", len(items)))
        if len(items) != expected_items:
            raise PeerError(
                f"{self.address}: result-end for query {query_id!r} closes stream "
                f"{assembly.stream!r} with {expected_items} item(s), "
                f"but {len(items)} arrived"
            )
        self._record_piece(envelope, items)

    # -- cancellation --------------------------------------------------------- #

    def _remember_forward(self, query_id: str, next_hop: str, piece: str) -> None:
        hops = self._forwarded_to.get(query_id, {})
        custody = hops.setdefault(next_hop, [])
        if flags.reliable_delivery:
            custody.append(piece)
        _insert_capped(self._forwarded_to, query_id, hops, self.forward_memory)

    def _resend_pieces(self, holder: str) -> None:
        """Send ``holder`` again every piece it was sent for a remembered query.

        A server registers again when it returns from an outage, and a crash
        takes what it had accepted with it: its ack released the sender, so a
        piece whose result frame was then lost would be gone for good.  What
        did come home the first time the target's gather drops (same path,
        same credit), so the worst case is wasted traffic, never a double
        count; a cancelled query is no longer remembered here.
        """
        for query_id, hops in list(self._forwarded_to.items()):
            for piece in hops.get(holder, ()):
                self._send_query_traffic(holder, "mqp", piece, utf8_len(piece), query_id)

    def _remember_cancelled(self, query_id: str) -> None:
        _insert_capped(self.cancelled_queries, query_id, None, self.cancel_memory)

    def cancel_query(self, query_id: str) -> None:
        """Cancel a query here and propagate along the forwarding fan-out.

        Idempotent.  Open result streams for the query are torn down (their
        iterators closed), buffered chunks and gathered pieces dropped,
        watchers released, and the plan's pieces — should they arrive or
        still be in flight downstream — are discarded by every peer the
        cancel notice reaches: each hop passes it on to every next hop it
        sent a piece to.
        """
        if query_id in self.cancelled_queries:
            return
        self._remember_cancelled(query_id)
        self._teardown_streams_of(query_id)
        self.gather.discard(query_id)
        self._chunk_buffers.pop(query_id, None)
        self._drop_assemblies(query_id)
        self.unwatch_results(query_id)
        self.unwatch_chunks(query_id)
        for transfer, state in list(self._pending_transfers.items()):
            if state.query_id == query_id:
                # The issuer no longer wants the answer: stop retransmitting
                # its traffic instead of burning the retry budget on it.
                del self._pending_transfers[transfer]
                if state.timer is not None:
                    state.timer.cancel()
        next_hops = self._forwarded_to.pop(query_id, ())
        if self.network is not None and self.online:
            for next_hop in next_hops:
                self.send(next_hop, "cancel-query", query_id, size_bytes=64)

    # -- reliable delivery (flags.reliable_delivery) --------------------------- #

    def _send_query_traffic(
        self, recipient: str, kind: str, payload: object, size_bytes: int, query_id: str
    ) -> Message:
        """Send query traffic, reliably when ``flags.reliable_delivery`` is on.

        The reliable path stamps the message with a transfer id, remembers
        it in the retransmit queue, and arms a backoff timer on the logical
        clock; fire-and-forget behaviour (and wire bytes) are unchanged
        when the flag is off.  Query traffic — plans, results, chunks — and
        subscription control (subscribe/unsubscribe, keyed by subscription
        id like deltas are) ride the protocol; exactly-once delta delivery
        is only as strong as the arming envelope's delivery.  Registration
        stays fire-and-forget, matching the paper's best-effort catalog.
        """
        if not flags.reliable_delivery:
            return self.send(recipient, kind, payload, size_bytes=size_bytes)
        self._transfer_counter += 1
        state = _PendingTransfer(
            transfer=f"{self.address}#{self._transfer_counter}",
            recipient=recipient,
            kind=kind,
            payload=payload,
            size_bytes=size_bytes,
            query_id=query_id,
        )
        self._pending_transfers[state.transfer] = state
        return self._transmit(state)

    def _transmit(self, state: _PendingTransfer) -> Message:
        """(Re)send one pending transfer and arm its retransmission timer."""
        message = self.send(
            state.recipient,
            state.kind,
            state.payload,
            size_bytes=state.size_bytes,
            transfer=state.transfer,
            attempt=state.attempts,
        )
        state.last_message = message
        state.timer = self.schedule(
            self.retry_policy.delay_for(state.transfer, state.attempts),
            lambda: self._retry_transfer(state.transfer),
        )
        return message

    def _handle_delivery_ack(self, message: Message) -> None:
        state = self._pending_transfers.pop(message.payload, None)
        if state is not None and state.timer is not None:
            # A late ack (after failure or cancellation) finds no state and
            # is simply ignored — the protocol is idempotent on both ends.
            state.timer.cancel()

    def _retry_transfer(self, transfer: str) -> None:
        state = self._pending_transfers.get(transfer)
        if state is None:
            return  # acknowledged (or torn down) before the timer fired
        if not self.online or self.network is None or state.query_id in self.cancelled_queries:
            self._pending_transfers.pop(transfer, None)
            return
        if self.retry_policy.exhausted(state.attempts):
            self._pending_transfers.pop(transfer, None)
            self._transfer_failed(state)
            return
        state.attempts += 1
        self.retries_sent += 1
        self._transmit(state)

    def _transfer_failed(self, state: _PendingTransfer) -> None:
        """The retry budget is spent: degrade instead of waiting forever.

        The unresponsive peer is treated exactly like a detected crash —
        purged from the routing state — and the payload gets the same
        last-resort handling as an unreachable bounce: plans reroute,
        streams tear down, results are dead-lettered.  The failure record
        travels with the (partial) answer so the issuer can report per-hop
        delivery provenance.
        """
        self.transfers_failed += 1
        self._record_delivery_failure(
            state.query_id,
            {
                "hop": self.address,
                "peer": state.recipient,
                "kind": state.kind,
                "attempts": state.attempts + 1,
                "at_ms": round(self.now, 3),
            },
        )
        self.suspected_dead.add(state.recipient)
        self.cache.forget_server(state.recipient)
        self.catalog.prune_server(state.recipient)
        self._note_tier_failover(state.recipient)
        if state.kind == "mqp":
            mqp = MutantQueryPlan.deserialize(state.payload)
            self._process_and_act(mqp, rerouted=True)
            return
        if state.kind in ("result-chunk", "result-end"):
            envelope: dict = state.payload  # type: ignore[assignment]
            self._teardown_streams_of(state.query_id, envelope["stream"])
        if state.kind == "delta-chunk":
            # The subscriber is unreachable: pause the feed (the replay log
            # keeps accumulating) instead of burning retries per delta.
            self._pause_subscription(state.query_id)
        if state.last_message is not None:
            self._dead_letter(state.last_message)

    def _record_delivery_failure(self, query_id: str, record: dict) -> None:
        failures = self.delivery_failures.get(query_id)
        if failures is None:
            failures = []
        _insert_capped(self.delivery_failures, query_id, failures, self.failure_memory)
        if record not in failures and len(failures) < 32:
            failures.append(record)

    def _absorb_failures(self, envelope: dict) -> None:
        """Adopt the per-hop failure records a result envelope carries."""
        for record in envelope.get("failures", ()):
            self._record_delivery_failure(envelope["query_id"], dict(record))

    def _dead_letter(self, message: Message) -> None:
        self.dead_letters.append(message)
        if self.network is not None:
            self.network.metrics.record_dead_letter(message)

    # -- registration handling --------------------------------------------------- #

    def _handle_register(self, message: Message) -> None:
        payload: RegistrationPayload = message.payload
        entry = payload.entry
        if not self._accepts_registration(entry):
            return
        self.catalog.register_server(entry)
        for statement in payload.statements:
            self.catalog.register_statement(statement)
        for named in payload.named_resources:
            self.catalog.register_named_resource(named)
        acknowledgement = self.send(
            message.sender, "register-ack", self.server_entry(), size_bytes=256
        )
        del acknowledgement  # traffic is accounted for by the network metrics
        self._resend_pieces(entry.address)
        if self.subscription_registry:
            # A (re)registering server may hold data an armed subscription
            # watches: push the stored subscriptions back to it so its
            # matchers re-arm after churn (or arm for the first time).
            self._rearm_registrant(entry)

    def _accepts_registration(self, entry: ServerEntry) -> bool:
        if not ({ServerRole.INDEX, ServerRole.META_INDEX} & self.roles):
            return False
        return self.interest_area.overlaps(entry.area)

    def _handle_register_ack(self, message: Message) -> None:
        entry: ServerEntry = message.payload
        self.learn_about(entry)

    def _handle_unregister(self, message: Message) -> None:
        """A peer announced a graceful departure: drop its routing state."""
        departing: str = message.payload
        self.catalog.prune_server(departing)
        self.cache.forget_server(departing)

    # -- failure detection (churn) ------------------------------------------------ #

    def _handle_unreachable(self, message: Message) -> None:
        """A message this peer sent could not be delivered.

        The network's failure detection hands back the original message.
        The dead peer is purged from the routing cache and catalog, and an
        undeliverable *plan* is reprocessed here so it reroutes around the
        failure (or degrades to a partial answer) — plans are never silently
        dropped.  Undeliverable results are dead-lettered for inspection.
        """
        dead = message.sender
        original: Message = message.payload
        self.suspected_dead.add(dead)
        self.cache.forget_server(dead)
        self.catalog.prune_server(dead)
        self._note_tier_failover(dead)
        transfer = getattr(original, "transfer", None)
        if transfer is not None:
            # The bounce already tells us delivery failed: stand the retry
            # machinery down so the reroute below is not repeated when the
            # budget runs out later.
            pending = self._pending_transfers.pop(transfer, None)
            if pending is not None and pending.timer is not None:
                pending.timer.cancel()
        if original.kind == "mqp":
            mqp = MutantQueryPlan.deserialize(original.payload)
            self._process_and_act(mqp, rerouted=True)
            return
        if original.kind in ("result-chunk", "result-end"):
            # The consumer is gone: close the open stream instead of
            # pumping every remaining chunk into the dead-letter queue
            # one unreachable bounce at a time.  Matched by stream token —
            # a stale bounce from an already-superseded delivery must not
            # kill the live successor (same hazard _pump_stream guards).
            self._teardown_streams_of(original.payload["query_id"], original.payload["stream"])
        if original.kind == "delta-chunk":
            # The subscriber crashed: pause its feed until it resubscribes.
            self._pause_subscription(original.payload["sub"])
        # Every other undeliverable kind is dead-lettered — results,
        # registrations, acks, unregisters alike.  The previous
        # allowlist silently discarded kinds it did not anticipate,
        # which made failure accounting undercount under churn.
        self._dead_letter(original)

    # ------------------------------------------------------------------ #

    def __repr__(self) -> str:
        roles = ",".join(sorted(role.value for role in self.roles))
        return f"QueryPeer({self.address!r}, roles=[{roles}], area={self.interest_area})"
