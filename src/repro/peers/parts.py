"""What the protocol components of a peer share.

A :class:`~repro.peers.peer.QueryPeer` is a thin node over one component
per wire protocol.  A component owns its tables, timers and counters and
never sees the network: it is handed the node as its *port* and uses only
what every :class:`~repro.network.node.NetworkNode` has — ``send``,
``schedule``, ``now``, and the facts ``address`` / ``connected`` /
``reliable`` / ``transfer_time`` / ``metrics`` — so a unit test hands it a
recording node instead.

The helpers below are the idioms the components would otherwise each
re-implement.
"""

from __future__ import annotations

from typing import Any, Callable, Generic, Iterator, TypeVar

__all__ = ["insert_capped", "slashed", "Watchers", "InOrder", "Cancellations"]

T = TypeVar("T")


def insert_capped(entries: dict, key: object, value: object, cap: int) -> None:
    """(Re)insert into an insertion-ordered dict and bound its size.

    Re-inserting refreshes recency, so actively used keys are never the
    eviction victim; past ``cap`` the oldest entries go.  The shared idiom
    for every per-query bookkeeping map a long-running relay must keep
    bounded.
    """
    entries.pop(key, None)
    entries[key] = value
    while len(entries) > cap:
        del entries[next(iter(entries))]


def slashed(name: str) -> str:
    """A collection name as the path it is stored under."""
    return name if name.startswith("/") else f"/{name}"


class Watchers:
    """Callbacks per key, dispatched over a snapshot that honours removals.

    A watcher may unwatch itself or a sibling, register new watchers, or
    start work that recurses into :meth:`notify` for another key — none of
    which may corrupt the registry or skip a still-registered sibling.  A
    ``last`` notification releases the key's list first but keeps it
    addressable (``_closing``) for unwatch calls made while it runs.
    """

    __slots__ = ("_live", "_closing")

    def __init__(self) -> None:
        self._live: dict[str, list[Callable[..., None]]] = {}
        self._closing: dict[str, list[Callable[..., None]]] = {}

    def __contains__(self, key: object) -> bool:
        return key in self._live

    def __len__(self) -> int:
        return len(self._live)

    def add(self, key: str, callback: Callable[..., None]) -> None:
        self._live.setdefault(key, []).append(callback)

    def remove(self, key: str, callback: Callable[..., None] | None = None) -> None:
        """Drop the key's watchers — all of them, or one callback."""
        if callback is None:
            self._live.pop(key, None)
            self._closing.get(key, []).clear()
            return
        for registry in (self._live, self._closing):
            watchers = registry.get(key)
            if watchers is not None and callback in watchers:
                watchers.remove(callback)
                if not watchers and registry is self._live:
                    del registry[key]

    def notify(self, key: str, *args: Any, last: bool = False) -> None:
        """Call the key's watchers; ``last`` says nothing more will follow."""
        holder = self._closing if last else self._live
        live = self._live.pop(key, None) if last else self._live.get(key)
        if not live:
            # Nothing registered.  ``_closing`` is left alone: a notification
            # from inside a watcher running under a ``last`` one must not
            # release the list the outer loop is still walking.
            return
        holder[key] = live
        try:
            for watcher in list(live):
                if watcher in holder.get(key, ()):  # else: unregistered meanwhile
                    watcher(*args)
        finally:
            if last:
                self._closing.pop(key, None)


class InOrder(Generic[T]):
    """Numbered arrivals, released strictly in sequence.

    Each delta of a feed is its own message, so the network may deliver
    them out of order: what came early is held until the numbers before it
    have arrived.
    """

    __slots__ = ("next_seq", "_held")

    def __init__(self) -> None:
        self.next_seq = 0
        self._held: dict[int, T] = {}

    def seen(self, seq: int) -> bool:
        """Already released, or already held: a second copy adds nothing."""
        return seq < self.next_seq or seq in self._held

    def push(self, seq: int, value: T) -> Iterator[T]:
        """Hold ``value`` as number ``seq``; yield whatever is now in order
        (``next_seq`` is always one past the last value handed out)."""
        self._held[seq] = value
        while self.next_seq in self._held:
            released = self._held.pop(self.next_seq)
            self.next_seq += 1
            yield released


class Cancellations:
    """The queries cancelled at this peer, and who has been told so far.

    Both tables are insertion-ordered and capped at ``memory``: per-query
    bookkeeping on a long-running relay must not grow without bound.
    """

    __slots__ = ("memory", "_queries", "_told")

    def __init__(self, memory: int = 4096) -> None:
        self.memory = memory
        self._queries: dict[str, None] = {}
        self._told: dict[tuple[str, str], None] = {}

    def __contains__(self, query_id: object) -> bool:
        return query_id in self._queries

    def add(self, query_id: str) -> None:
        insert_capped(self._queries, query_id, None, self.memory)

    def first_notice(self, key: str, peer: str) -> bool:
        """True the first time ``peer`` sends traffic for the dead ``key``:
        straggler frames already on the link must not each trigger a
        teardown notice, so the sender is told once."""
        first = (key, peer) not in self._told
        if first:
            insert_capped(self._told, (key, peer), None, self.memory)
        return first
