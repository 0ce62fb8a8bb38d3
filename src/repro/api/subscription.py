"""Standing queries at the API layer: subscriptions and delta feeds.

A :class:`Subscription` is to a continuous query what
:class:`~repro.api.handle.QueryHandle` is to a one-shot query: the
future-like object a program holds while the network does the work.  It is
created by ``session.subscribe(...)``, ``builder.subscribe()`` or
``handle.subscribe()``, and exposes the feed the peer layer assembles:

    sub = client.query().area(area).where("price < 10").subscribe()
    seller.update("cds", changed_items)
    for delta in sub.deltas(timeout=5_000):
        print(delta.kind, [item.child_text("title") for item in delta.items])
    sub.unsubscribe()

``deltas()`` drives the shared clock exactly like ``QueryHandle.result()``
— event-driven on the transport's ``stop`` hook, never polling.  Unlike a
one-shot result there is no terminal answer: the iterator ends when the
time budget is spent or the network goes idle, which is a quiescent feed,
not an error.  :class:`~repro.errors.PeerOffline` still raises — a feed
whose subscriber died delivers nowhere.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, List, TypedDict

from ..algebra.serialization import parse_plan
from ..errors import APIError, PeerOffline
from ..peers.subscriptions import DeltaRecord, SubscriberState

if TYPE_CHECKING:  # pragma: no cover - typing-only imports
    from ..peers.peer import QueryResult
    from .session import Session

__all__ = ["AuthorityConflict", "Subscription"]


class AuthorityConflict(TypedDict):
    """A surfaced MOAS-style conflict: two authorities armed one publisher.

    The publisher kept its original arming (it never double-delivers); the
    conflict notice names both claimants so the application — like a BGP
    operator reading a MOAS alarm — can decide which authority is
    legitimate.
    """

    sub: str
    publisher: str
    authorities: List[str]
    at_ms: float


class Subscription:
    """A standing query's handle: delta iteration, snapshots, teardown.

    Created by :meth:`repro.api.session.Session.subscribe` (or the
    ``subscribe()`` terminals on :class:`~repro.api.query.QueryBuilder` and
    :class:`~repro.api.handle.QueryHandle`).  Context-managed use
    unsubscribes on exit::

        with session.query().area(area).subscribe() as sub:
            ...
    """

    def __init__(self, session: "Session", sub_id: str) -> None:
        self._session = session
        self._peer = session.peer
        self._network = session.cluster.network
        self.sub_id = sub_id
        self._consumed = 0

    # -- inspection (never advances the clock) ----------------------------- #

    @property
    def active(self) -> bool:
        """Whether the subscription is still registered at its peer."""
        state = self._peer.subscription_state(self.sub_id)
        return state is not None and state.active

    def lag(self) -> int:
        """Deltas delivered to the peer but not yet consumed via :meth:`deltas`.

        The subscriber-side backlog: how far this handle's iteration is
        behind the feed.  Zero for a fully drained (or torn-down)
        subscription.
        """
        state = self._peer.subscription_state(self.sub_id)
        if state is None:
            return 0
        return len(state.deltas) - self._consumed

    def delivered(self) -> list[DeltaRecord]:
        """Every delta released at the peer so far (non-blocking)."""
        state = self._peer.subscription_state(self.sub_id)
        return list(state.deltas) if state is not None else []

    def conflicts(self) -> list[AuthorityConflict]:
        """Authority-conflict notices surfaced for this subscription."""
        state = self._peer.subscription_state(self.sub_id)
        if state is None:
            return []
        return [
            AuthorityConflict(
                sub=str(record.get("sub", self.sub_id)),
                publisher=str(record.get("publisher", "")),
                authorities=[str(a) for a in record.get("authorities", ())],
                at_ms=float(record.get("at_ms", 0.0)),
            )
            for record in state.conflicts
        ]

    # -- the feed (drives the shared clock) --------------------------------- #

    def deltas(
        self, timeout: float | None = None, limit: int | None = None
    ) -> Iterator[DeltaRecord]:
        """Stream deltas as publishers emit them, in per-publisher order.

        ``timeout`` bounds the wait in *simulated* milliseconds from now;
        ``limit`` stops after that many deltas (handy when the expected
        count is known).  The stream ends — without raising — when the
        budget is spent, the network goes idle, or the subscription is
        torn down mid-iteration: a standing query has no terminal result,
        so a quiet feed is an outcome, not an error.  Only
        :class:`~repro.errors.PeerOffline` raises, matching
        ``QueryHandle.result()``: with the subscriber gone the feed
        delivers nowhere.
        """
        deadline = self._network.now + timeout if timeout is not None else None
        yielded = 0
        while True:
            state = self._peer.subscription_state(self.sub_id)
            if state is None:
                return
            while self._consumed < len(state.deltas):
                record = state.deltas[self._consumed]
                self._consumed += 1
                yielded += 1
                yield record
                if limit is not None and yielded >= limit:
                    return
            if not state.active:
                return
            progressed = self._network.run_until(self._behind, until=deadline)
            if not self._peer.online:
                raise PeerOffline(
                    f"peer {self._peer.address} went offline while streaming "
                    f"deltas of subscription {self.sub_id!r}; its publishers "
                    "pause the feed until it resubscribes"
                )
            if not progressed:
                return  # idle network or spent budget: the feed is quiet

    def _behind(self) -> bool:
        state = self._peer.subscription_state(self.sub_id)
        return state is None or not state.active or len(state.deltas) > self._consumed

    # -- snapshots ------------------------------------------------------------ #

    def snapshot(self, timeout: float | None = None) -> "QueryResult":
        """Re-run the subscribed plan as a one-shot query and wait for it.

        The answer is produced by the same physical operators that build
        the deltas, so a snapshot taken on a quiet feed agrees item for
        item with the state the deltas describe.  This is also the
        documented recovery from an epoch change: when a publisher re-arms
        after losing replay log, the feed's continuity broke, and a
        snapshot re-baselines the subscriber.
        """
        return self._session.submit(parse_plan(self._state().document)).result(
            timeout=timeout
        )

    # -- teardown -------------------------------------------------------------- #

    def unsubscribe(self) -> None:
        """Tear the subscription down at every hop (idempotent).

        Mirrors ``QueryHandle.cancel()``: the notice retraces the subscribe
        fan-out, authorities drop their registry entries, publishers disarm
        their matchers, and pending delta retransmissions are cancelled.
        """
        self._peer.unsubscribe(self.sub_id)

    def __enter__(self) -> "Subscription":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.unsubscribe()

    # -- internals -------------------------------------------------------------- #

    def _state(self) -> SubscriberState:
        state = self._peer.subscription_state(self.sub_id)
        if state is None:
            raise APIError(
                f"subscription {self.sub_id!r} is no longer registered at "
                f"{self._peer.address} (unsubscribed?)"
            )
        return state

    def __repr__(self) -> str:
        status = "active" if self.active else "inactive"
        return (
            f"Subscription({self.sub_id!r}, peer={self._peer.address!r}, "
            f"{status}, lag={self.lag()})"
        )
