"""The query peer: one participant that can play any of the paper's roles.

The paper stresses that in a P2P system roles "are not fixed or
pre-assigned; this query's client may well become the next query's server".
:class:`QueryPeer` therefore *can do* everything — publish collections
(base server), index other servers (index / meta-index server), issue
queries (client) — and a peer simply enables the roles it wants.  Thin
subclasses in :mod:`repro.peers.roles` give the conventional names used by
examples and benchmarks.

The class itself is a thin node: identity, roles, local collections,
registration, lifecycle, failure detection, and a :meth:`handle_message`
that hands each message to the component that owns its kind — one
component per wire protocol (``docs/architecture.md`` has the map), each
handed this node as its port (:mod:`repro.peers.parts`).

The message kinds a peer understands are the keys of
:attr:`QueryPeer._HANDLERS` — one line per kind, naming the component that
owns it; each kind is documented in the module that handles it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, ClassVar, Sequence

from ..algebra import QueryPlan
from ..algebra.expressions import Expression, parse_predicate
from ..catalog import (
    Catalog,
    CollectionRef,
    IntensionalStatement,
    NamedResourceEntry,
    RoutingCache,
    ServerEntry,
    ServerRole,
)
from ..catalogtier import ReplicaMembership, ShardMap
from ..errors import PeerError, PeerOffline
from ..mqp import MQPProcessor, MutantQueryPlan, QueryPreferences
from ..namespace import InterestArea, MultiHierarchicNamespace
from ..network import Message, NetworkNode
from ..xmlmodel import XMLElement
from .forwarding import PlanForwarding
from .gather import QueryResult, ResultGather
from .parts import Cancellations, slashed
from .inbox import ResultInbox
from .subscriptions import DeltaRecord, Subscriptions
from .transfers import Transfers

__all__ = ["RegistrationPayload", "QueryResult", "QueryPeer", "DeltaRecord"]

@dataclass
class RegistrationPayload:
    """What a server sends when registering with an index / meta-index server."""

    entry: ServerEntry
    statements: list[IntensionalStatement] = field(default_factory=list)
    named_resources: list[NamedResourceEntry] = field(default_factory=list)


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


def _part(path: str) -> property:
    """A public ``QueryPeer`` name that lives on one of the peer's components."""
    return property(attrgetter(path))


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
        self.statements: list[IntensionalStatement] = []
        self.registration_targets: list[str] = []
        self.suspected_dead: set[str] = set()
        # One component per wire protocol; the tables above are shared with
        # them by reference, never rebound.
        self.cancelled_queries = Cancellations()
        self.transfers = Transfers(self, self.cancelled_queries, self._peer_failed)
        self.gather = ResultGather()
        self.inbox = ResultInbox(self, self.transfers, self.gather, self.cancelled_queries)
        self.forwarding = PlanForwarding(
            self, self.processor, self.transfers, self.inbox,
            self.cancelled_queries, self.suspected_dead,
        )
        self.subscriptions = Subscriptions(
            self, self.transfers, self.cancelled_queries, self.catalog, self.roles,
            authoritative, self.collection_areas, self.suspected_dead,
        )
        self.replicas = ReplicaMembership(
            self, self.catalog, self.interest_area, self.subscriptions, self.suspected_dead
        )

    # Names that predate the components and have readers outside this package
    # (repro.api, the benchmark tracer): read-only views of the component's own.
    results = _part("gather.results")
    watch_results = _part("gather.watch")
    unwatch_results = _part("gather.watchers.remove")
    retries_sent = _part("transfers.retries_sent")
    duplicates_dropped = _part("transfers.duplicates_dropped")
    acks_sent = _part("transfers.acks_sent")
    dead_letters = _part("transfers.dead_letters")
    delivery_failures = _part("transfers.delivery_failures")
    my_subscriptions = _part("subscriptions.mine")
    deltas_published = _part("subscriptions.deltas_published")
    unsubscribe = _part("subscriptions.unsubscribe")
    subscription_state = _part("subscriptions.mine.get")  # ``None`` when unknown
    reconciliations = _part("replicas.reconciliations")
    tier_failovers = _part("replicas.tier_failovers")

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
        path = slashed(name)
        self.collections[path] = list(items)
        self.collection_areas[path] = area or self.interest_area
        self._collections_changed()
        return CollectionRef(url=self.address, path=path, name=name, cardinality=len(items))

    def _collections_changed(self) -> None:
        """After every local write: no cached evaluation outlives it, and the
        catalog entry describes the collections as they now are."""
        self.processor.evaluations.clear()
        self.catalog.register_server(self.server_entry())

    def collection_items(self, name: str) -> list[XMLElement]:
        """Return the items of a local collection."""
        try:
            return self.collections[slashed(name)]
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
        path, existing = slashed(name), self.collection_items(name)
        positions: dict[str, int] = {}
        for index, item in enumerate(existing):
            key = _item_key(item, key_path)
            if key is not None and key not in positions:
                positions[key] = index
        inserts: list[XMLElement] = []
        updates: list[tuple[XMLElement | None, XMLElement | None]] = []
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
        self._collections_changed()
        self.subscriptions.mutated(path, [(None, item) for item in inserts] + updates)
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
        path, items = slashed(name), self.collection_items(name)
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
        self._collections_changed()
        self.subscriptions.mutated(path, [(item, None) for item in removed])
        return removed

    def publish_named_resource(self, urn_name: str, collection_name: str) -> None:
        """Expose a local collection under an application URN name."""
        path = slashed(collection_name)
        self.collection_items(collection_name)  # raises unless it is published here
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
        """Push this peer's existence to an index / meta-index server.

        Reliably on a ``Cluster(reliable=True)``: registration fan-out is
        all the replication a replica group has, so a member that misses one
        ``register`` would answer for its area without this server.
        """
        if server_address not in self.registration_targets:
            self.registration_targets.append(server_address)
        self.transfers.send(server_address, "register", self.registration(), 512, self.address)

    def registration(self) -> RegistrationPayload:
        """What this peer tells an indexer about itself."""
        return RegistrationPayload(
            entry=self.server_entry(),
            statements=list(self.statements),
            named_resources=list(self.catalog.named_resources.values()),
        )

    def adopt_registration(self, payload: RegistrationPayload) -> None:
        """Record a registering server's entry, statements and named resources."""
        self.catalog.register_server(payload.entry)
        for statement in payload.statements:
            self.catalog.register_statement(statement)
        for named in payload.named_resources:
            self.catalog.register_named_resource(named)

    def learn_about(self, entry: ServerEntry) -> None:
        """Record another server in the local catalog (out-of-band discovery)."""
        self.catalog.register_server(entry)
        if entry.role in (ServerRole.INDEX, ServerRole.META_INDEX):
            self.cache.remember(entry.area, entry.address, entry.role.value)

    # ------------------------------------------------------------------ #
    # Sharded catalog tier
    # ------------------------------------------------------------------ #

    def join_catalog_tier(self, shard_map: ShardMap) -> None:
        """Adopt the cluster's shard map (see :meth:`ReplicaMembership.join`)."""
        self.processor.shard_map = shard_map
        self.replicas.join(shard_map)

    # ------------------------------------------------------------------ #
    # Churn: leaving, crashing, and rejoining
    # ------------------------------------------------------------------ #

    def leave(self) -> None:
        """Depart gracefully: unregister, go offline.

        The unregister messages are queued before the peer goes offline, so
        indexers drop this peer's entries promptly instead of discovering
        the departure through failed forwards.  They stay best-effort even
        under reliable delivery — an offline peer's retransmissions are
        dropped, not sent — and a lost ``unregister`` is made good by
        exactly that discovery.
        """
        if self.network is not None:
            for target in self.registration_targets:
                self.send(target, "unregister", self.address, size_bytes=64)
        self.go_offline(graceful=True)

    def go_offline(self, graceful: bool = False) -> None:
        """Crash: *some* in-RAM state dies with the process — not all of it.

        Dropped: the evaluation cache (free to drop: a replay is
        byte-identical to a re-evaluation) and the armed matchers with their
        conflict memo.

        **Not** dropped, though a real crash would lose them: the routing
        cache and the catalog entries learned from others, the gather
        table and delivered results (``gather``), the scatter custody
        table and the pending transfers with their live retry timers
        (``forwarding.custody``, ``transfers.pending`` — an offline peer's
        retransmissions are dropped on send, the entries stay), the
        round-trip estimates (``transfers.round_trips``), the dedupe
        window (``transfers.seen``) and ``suspected_dead``.  Clearing them
        moves the ``churn-storm`` and ``sharded-catalog`` reports, so it is
        its own change (ROADMAP, the harness item, "filed separately").

        Kept on purpose — :meth:`go_online` rebuilds from them:
        collections, statements, ``registration_targets`` and the
        subscriber's own ``subscriptions.mine``.

        Graceful departures call :meth:`leave`, which lets real transports
        flush the goodbye traffic before recycling the peer's connections.
        """
        self.processor.evaluations.clear()
        self.subscriptions.crash()
        super().go_offline(graceful=graceful)

    def go_online(self) -> None:
        """Rejoin after an outage and re-propagate the registration (§3.3).

        The peer's collections and statements survived the outage, but the
        indexers may have pruned its entries after failed forwards — so
        every registration is pushed again over the network; standing
        queries are re-sent with their resume tokens, and a replica
        reconciles with its group before serving.
        """
        super().go_online()
        if self.network is not None:
            for target in list(self.registration_targets):
                self.register_with(target)
            for sub_id in list(self.subscriptions.mine):
                self.subscriptions.resubscribe(sub_id)
            self.replicas.rejoin()

    # ------------------------------------------------------------------ #
    # Client behaviour: issuing queries, watching results, standing queries
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
        trace = self.metrics.trace(mqp.query_id)
        trace.issued_at = self.now
        trace.expected_answers = expected_answers
        self.forwarding.process(mqp)
        return mqp

    def cancel_query(self, query_id: str) -> None:
        """Cancel a query here and propagate along the forwarding fan-out.

        Idempotent.  Gathered pieces are dropped, watchers released,
        retransmissions stopped, and the plan's pieces — should they arrive
        or still be in flight downstream — are discarded by every peer the
        cancel notice reaches: each hop passes it on to every next hop it
        sent a piece to.
        """
        if query_id in self.cancelled_queries:
            return
        self.cancelled_queries.add(query_id)
        self.gather.discard(query_id)
        self.gather.watchers.remove(query_id)
        self.transfers.cancel(query_id)
        self.forwarding.cancel(query_id)

    def subscribe_plan(self, plan: QueryPlan, sub_id: str | None = None) -> str:
        """Register ``plan`` as a standing query and return its id
        (:meth:`Subscriptions.subscribe`)."""
        self._require_network()
        return self.subscriptions.subscribe(plan, sub_id)

    # ------------------------------------------------------------------ #
    # Message handling
    # ------------------------------------------------------------------ #

    def handle_message(self, message: Message) -> None:
        kind = message.kind
        if kind != "peer-unreachable":
            # Any delivered message proves its sender is alive again.
            self.suspected_dead.discard(message.sender)
        if message.transfer is not None:
            noted = self._ACK_NOTES.get(kind)
            if noted is not None:
                # The ack says what the handler left behind, so it follows it —
                # on every copy: a lost ack loses the note with it.
                if self.transfers.first_copy(message):
                    self._HANDLERS[kind](self, message)
                self.transfers.acknowledge(message, noted(self, message))
                return
            if not self.transfers.accept(message):
                return  # a retransmitted copy: acknowledged again, processed once
        handler = self._HANDLERS.get(kind)
        if handler is None:
            raise PeerError(f"{self.address}: unknown message kind {kind!r}")
        handler(self, message)

    _HANDLERS: ClassVar[dict[str, Callable[["QueryPeer", Message], None]]] = {
        "mqp": lambda peer, message: peer.forwarding.on_mqp(message),
        "result": lambda peer, message: peer.inbox.on_result(message),
        "partial-result": lambda peer, message: peer.inbox.on_result(message),
        "cancel-query": lambda peer, message: peer.cancel_query(message.payload),
        "delivery-ack": lambda peer, message: peer._handle_delivery_ack(message),
        "subscribe": lambda peer, message: peer.subscriptions.on_subscribe(message),
        "unsubscribe": lambda peer, message: peer.subscriptions.on_unsubscribe(message),
        "delta-chunk": lambda peer, message: peer.subscriptions.on_delta_chunk(message),
        "delta-ack": lambda peer, message: peer.subscriptions.on_delta_ack(message),
        "sub-conflict": lambda peer, message: peer.subscriptions.on_conflict(message),
        "recon-request": lambda peer, message: peer.replicas.on_request(message),
        "recon-reply": lambda peer, message: peer.replicas.on_reply(message),
        # Handled here.  ``register``: a server announcing itself — late-bound,
        # so a subclass override (MetaIndexServer) is what runs; ``register-ack``:
        # the indexer's reply, carrying its own entry; ``referral``: the entry of
        # the authoritative index a hop sent this peer's plan on to (see
        # PlanForwarding._refer); ``unregister``: a graceful departure;
        # ``peer-unreachable``: failure detection bouncing a message.
        "register": lambda peer, message: peer._handle_register(message),
        "register-ack": lambda peer, message: peer.learn_about(message.payload),
        "referral": lambda peer, message: peer._handle_referral(message),
        "unregister": lambda peer, message: peer._handle_unregister(message),
        "peer-unreachable": lambda peer, message: peer._handle_unreachable(message),
    }

    # Kinds whose ``delivery-ack`` carries a note from their own protocol.
    _ACK_NOTES: ClassVar[dict[str, Callable[["QueryPeer", Message], tuple]]] = {
        "delta-chunk": lambda peer, message: peer.subscriptions.feed_position(message),
    }

    def _handle_delivery_ack(self, message: Message) -> None:
        position = self.transfers.acknowledged(message.payload)
        if position:  # the ack of a delta-chunk: what ``delta-ack`` says
            self.subscriptions.acked(*position)

    # -- registration handling --------------------------------------------------- #

    def _handle_register(self, message: Message) -> None:
        payload: RegistrationPayload = message.payload
        entry = payload.entry
        indexing = {ServerRole.INDEX, ServerRole.META_INDEX} & self.roles
        if not indexing or not self.interest_area.overlaps(entry.area):
            return
        self.adopt_registration(payload)
        self.send(message.sender, "register-ack", self.server_entry(), size_bytes=256)
        # A server registering (back) may be owed pieces it lost in a crash,
        # and may hold data a stored subscription watches: send the pieces
        # again, and push the subscriptions to it so its matchers (re-)arm.
        self.forwarding.resend(entry.address)
        self.subscriptions.rearm(entry)

    def _handle_referral(self, message: Message) -> None:
        """Learn the index a plan of ours was referred to — if it can be one.

        Only an authoritative index / meta-index entry is taken: every
        source under its area has registered with it (§3.3), so routing a
        covered query there first loses nothing; anything else is dropped.
        """
        entry = message.payload
        if isinstance(entry, ServerEntry) and entry.is_authority:
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
        The bounce already tells us delivery failed: the retry machinery
        stands down so the handling below is not repeated when the budget
        runs out later.
        """
        original: Message = message.payload
        self.transfers.stand_down(getattr(original, "transfer", None))
        self._peer_failed(message.sender, original)

    def _peer_failed(self, dead: str, undelivered: Message) -> None:
        """``dead`` did not take ``undelivered``: a bounce, or retries spent.

        The peer is purged from the routing state, and the payload gets its
        last-resort handling: a *plan* is reprocessed here so it reroutes
        around the failure (or degrades to a partial answer) — never
        silently dropped; a feed to a dead subscriber pauses until it
        resubscribes.  Everything but a plan is then dead-lettered, so
        failure accounting never undercounts.
        """
        self.suspected_dead.add(dead)
        self.cache.forget_server(dead)
        self.catalog.prune_server(dead)
        self.replicas.note_failure(dead)
        kind, payload = undelivered.kind, undelivered.payload
        if kind == "mqp":
            self.forwarding.process(MutantQueryPlan.deserialize(payload), rerouted=True)
            return
        if kind == "delta-chunk":
            self.subscriptions.pause(payload["sub"])
        self.transfers.dead_letter(undelivered)

    def __repr__(self) -> str:
        roles = ",".join(sorted(role.value for role in self.roles))
        return f"QueryPeer({self.address!r}, roles=[{roles}], area={self.interest_area})"
