"""LRU answer cache for catalog lookups.

The paper's currency tradeoff made operational: a peer binds and routes
the same hot-area lookups over and over, so every :class:`Catalog`
memoizes whole lookup answers (the sorted entry lists
:meth:`Catalog.servers_overlapping` and :meth:`Catalog.servers_covering`
produce) and invalidates them by *statement*: whenever a registration,
forget, prune, or intensional statement arrives whose area overlaps a
cached answer's query area, that answer is dropped.  Stale answers are
therefore impossible by construction — the cache trades recomputation for
currency exactly at mutation boundaries, never in between.
"""

from __future__ import annotations

from collections import OrderedDict

from ..namespace import InterestArea

__all__ = ["AnswerCache"]


class AnswerCache:
    """Bounded LRU of catalog lookup answers, invalidated by area overlap.

    Keys are ``(kind, roles, str(area))`` tuples — the full identity of a
    lookup — and values are the immutable answer tuples.  The query area
    object rides along with each entry so invalidation can test overlap
    against the mutating registration's area.  Every catalog owns one, most
    of them never filled, so an instance carries no ``__dict__``.
    """

    __slots__ = ("capacity", "_entries", "hits", "misses", "invalidations", "evictions")

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError("answer cache capacity must be positive")
        self.capacity = capacity
        self._entries: OrderedDict[tuple, tuple[InterestArea, tuple]] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.evictions = 0

    # -- lookup memoization ---------------------------------------------- #

    def get(self, key: tuple) -> tuple | None:
        """The cached answer for ``key``, refreshing its recency, or None."""
        cached = self._entries.get(key)
        if cached is None:
            self.misses += 1
            return None
        self.hits += 1
        self._entries.move_to_end(key)
        return cached[1]

    def put(self, key: tuple, area: InterestArea, answer: tuple) -> None:
        """Record ``answer`` for the lookup identified by ``key``."""
        self._entries[key] = (area, answer)
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    # -- statement-driven invalidation ----------------------------------- #

    def invalidate_overlapping(self, area: InterestArea) -> int:
        """Drop every answer whose query area overlaps ``area``.

        Called when a registration/forget/statement covering ``area``
        arrives; returns how many answers were dropped.
        """
        if not self._entries:  # every write of a set-up, before any lookup
            return 0
        stale = [
            key
            for key, (cached_area, _) in self._entries.items()
            if cached_area.overlaps(area)
        ]
        for key in stale:
            del self._entries[key]
        self.invalidations += len(stale)
        return len(stale)

    def flush(self) -> int:
        """Drop everything — the blunt fallback when no area is known."""
        dropped = len(self._entries)
        self._entries.clear()
        self.invalidations += dropped
        return dropped

    # -- introspection ---------------------------------------------------- #

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict[str, float | int]:
        """Counter snapshot for reports and the stats API."""
        return {
            "size": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(self.hit_rate, 4),
            "invalidations": self.invalidations,
            "evictions": self.evictions,
        }
