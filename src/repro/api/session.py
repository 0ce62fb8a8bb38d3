"""Per-peer sessions: the client-facing handle on one peer of a cluster.

A :class:`Session` wraps one :class:`~repro.peers.peer.QueryPeer` that is
registered on a :class:`~repro.api.cluster.Cluster`'s network.  It is the
supported way to *use* the system, regardless of which transport backend
moves the bytes, and its surface groups into three verbs-of-a-kind:

* **data lifecycle** — ``publish`` (create a collection), ``update``
  (upsert items), ``retract`` (remove items), ``announce`` (intensional
  statements about the data), ``register`` (push the catalog entry that
  advertises it all);
* **querying** — ``query()`` builds, ``submit()`` is the raw-plan fast
  path, both resolving to a future-like
  :class:`~repro.api.handle.QueryHandle`;
* **standing queries** — ``subscribe()`` turns a plan into a
  :class:`~repro.api.subscription.Subscription` whose delta feed the
  lifecycle verbs above drive.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from ..algebra import QueryPlan
from ..algebra.expressions import Expression
from ..catalog import CollectionRef, IntensionalStatement, ServerEntry
from ..mqp import QueryPreferences
from ..namespace import InterestArea
from ..peers.peer import QueryPeer
from ..xmlmodel import XMLElement
from .handle import QueryHandle
from .query import QueryBuilder
from .subscription import Subscription

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from .cluster import Cluster

__all__ = ["Session"]


class Session:
    """A handle on one peer: ``publish(...)``, ``update(...)``, ``query(...)``."""

    def __init__(self, cluster: "Cluster", peer: QueryPeer) -> None:
        self.cluster = cluster
        self.peer = peer

    @property
    def address(self) -> str:
        """The peer's network address."""
        return self.peer.address

    @property
    def online(self) -> bool:
        """Whether the peer currently accepts traffic."""
        return self.peer.online

    # -- data lifecycle (base-server behaviour) ------------------------------ #
    # publish → update → retract mutate the data; announce and register
    # advertise it.  The mutation verbs drive the delta feeds of any
    # standing queries armed over the collection's area.

    def publish(
        self,
        name: str,
        items: Sequence[XMLElement],
        area: InterestArea | None = None,
        urn: str | None = None,
    ) -> CollectionRef:
        """Publish a named collection (optionally under an application URN)."""
        reference = self.peer.publish_collection(name, items, area)
        if urn is not None:
            self.peer.publish_named_resource(urn, name)
        return reference

    def update(
        self,
        name: str,
        items: Sequence[XMLElement],
        key_path: str = "id",
    ) -> tuple[int, int]:
        """Upsert items into a published collection; ``(inserted, updated)``.

        Items are keyed by their ``key_path`` attribute (or child element
        text): a key match replaces the existing item, anything else is
        appended.  Matching armed subscriptions receive the ``insert`` /
        ``update`` / ``retract`` deltas the mutation implies for *their*
        predicate.
        """
        return self.peer.update_collection(name, items, key_path=key_path)

    def retract(
        self,
        name: str,
        predicate: "Expression | str | None" = None,
        keys: Sequence[str] | None = None,
        key_path: str = "id",
    ) -> list[XMLElement]:
        """Remove items from a published collection and return them.

        Victims are selected by ``keys`` (matched through ``key_path``) or
        by a predicate (textual form accepted).  Matching armed
        subscriptions receive ``retract`` deltas carrying the removed
        items.
        """
        return self.peer.retract_from_collection(
            name, predicate=predicate, keys=keys, key_path=key_path
        )

    def announce(self, statement: "IntensionalStatement | str") -> None:
        """Adopt an intensional statement (§4.2) announced on registration."""
        if isinstance(statement, str):
            statement = IntensionalStatement.parse(statement)
        self.peer.announce_statement(statement)

    # -- catalog wiring ------------------------------------------------------- #

    def register(self, *targets: "Session | str") -> None:
        """Push this peer's registration to index / meta-index servers.

        Targets are sessions or addresses.
        """
        for target in targets:
            address = target.address if isinstance(target, Session) else target
            self.peer.register_with(address)

    def learn_about(self, other: "Session | ServerEntry") -> None:
        """Record another server's entry locally (out-of-band discovery)."""
        entry = other if isinstance(other, ServerEntry) else other.peer.server_entry()
        self.peer.learn_about(entry)

    # -- querying --------------------------------------------------------------- #

    def query(self, plan: QueryPlan | None = None) -> QueryBuilder:
        """Start a fluent query (or adopt a pre-built plan as the body)."""
        return QueryBuilder(self, plan=plan)

    def submit(
        self,
        plan: QueryPlan,
        preferences: QueryPreferences | None = None,
        expected_answers: int | None = None,
        query_id: str | None = None,
    ) -> QueryHandle:
        """Submit a complete :class:`QueryPlan`; the raw-plan fast path."""
        mqp = self.peer.submit_plan(
            plan,
            preferences,
            expected_answers=expected_answers,
            query_id=query_id,
        )
        return QueryHandle(
            self.peer,
            self.cluster.network,
            mqp.query_id,
            expected_answers=expected_answers,
            session=self,
            plan=plan,
        )

    def handle(self, query_id: str, expected_answers: int | None = None) -> QueryHandle:
        """Attach a fresh handle to an already-issued query id.

        A late-attached handle is told the answer gathered before it
        attached as one arrival (the peer keeps one record per query, not
        the arrival history), and every piece after that as it lands.  Hold
        on to the handle returned at submit time when each streamed partial
        matters.
        """
        return QueryHandle(
            self.peer, self.cluster.network, query_id, expected_answers=expected_answers
        )

    # -- standing queries -------------------------------------------------------- #

    def subscribe(self, query: "QueryBuilder | QueryPlan") -> Subscription:
        """Register a plan as a standing query; deltas flow to this peer.

        Accepts a fluent :class:`~repro.api.query.QueryBuilder` or a
        pre-built plan.  The plan must be subscribable — select/project
        over one interest-area URN.  Returns the
        :class:`~repro.api.subscription.Subscription` whose ``deltas()``
        iterator the mutation verbs (:meth:`update` / :meth:`retract` at
        publishing peers) feed.
        """
        plan = query.compile() if isinstance(query, QueryBuilder) else query
        sub_id = self.peer.subscribe_plan(plan)
        return Subscription(self, sub_id)

    # -- lifecycle (churn as API calls) ------------------------------------------ #

    def leave(self) -> None:
        """Depart gracefully: drain work, unregister, go offline."""
        self.peer.leave()

    def crash(self) -> None:
        """Drop off the network without notice (in-RAM state dies)."""
        self.peer.go_offline()

    def rejoin(self) -> None:
        """Come back online and re-propagate the registration (§3.3)."""
        self.peer.go_online()

    def __repr__(self) -> str:
        status = "online" if self.online else "offline"
        return f"Session({self.address!r}, {status})"

