"""Routing caches of index / meta-index servers per interest area (paper §3.2, §3.4).

"Peers can maintain caches with index and meta-index servers they used in
the past ... so that they can route plans more efficiently in the future"
and "to avoid flooding high-level servers with plans".  The cache maps
interest areas to the servers that successfully handled them, bounded in
size with least-recently-used eviction, and answers lookups with the most
specific cached area that covers (or overlaps) a query.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from ..namespace import InterestArea
from .entries import canonical_address

__all__ = ["CacheEntry", "RoutingCache"]


@dataclass(frozen=True)
class CacheEntry:
    """A cached association between an interest area and a helpful server."""

    area: InterestArea
    server: str
    role: str = "index"

    def specificity(self) -> int:
        """The area's specificity, computed once per entry.

        Every cache hit re-sorts the matches by specificity; areas are
        treated as immutable once cached, so the walk over their cells
        happens only on first use.
        """
        cached = self.__dict__.get("_specificity")
        if cached is None:
            cached = self.area.specificity()
            object.__setattr__(self, "_specificity", cached)
        return cached


class RoutingCache:
    """LRU cache of (interest area → server) routing hints."""

    def __init__(self, capacity: int = 128) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be positive")
        self.capacity = capacity
        self._entries: OrderedDict[tuple, CacheEntry] = OrderedDict()
        self.hits = 0
        self.misses = 0

    @staticmethod
    def _key(area: InterestArea, server: str) -> tuple:
        return (str(area), server)

    # -- mutation ------------------------------------------------------------- #

    def remember(self, area: InterestArea, server: str, role: str = "index") -> None:
        """Record that ``server`` was useful for ``area``."""
        key = self._key(area, server)
        if key in self._entries:
            self._entries.move_to_end(key)
            return
        self._entries[key] = CacheEntry(area, server, role)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def forget_server(self, server: str) -> None:
        """Drop every cached hint that points at ``server``.

        Addresses are compared in canonical form, exactly like
        :meth:`Catalog.prune_server`: a hint remembered under
        ``http://host:port/`` must not survive the pruning of ``host:port``,
        or churn handling leaves a stale route aimed at a dead peer.
        """
        target = canonical_address(server)
        stale = [
            key
            for key, entry in self._entries.items()
            if canonical_address(entry.server) == target
        ]
        for key in stale:
            del self._entries[key]

    # -- lookups ----------------------------------------------------------------- #

    def lookup(self, area: InterestArea, require_cover: bool = True) -> list[CacheEntry]:
        """Return cached servers relevant to ``area``, most specific first.

        With ``require_cover`` the cached area must cover the query area
        (safe routing: the server should know about everything asked for);
        otherwise overlap is enough.
        """
        matches: list[CacheEntry] = []
        for key, entry in self._entries.items():
            relevant = entry.area.covers(area) if require_cover else entry.area.overlaps(area)
            if relevant:
                matches.append(entry)
        if matches:
            self.hits += 1
            for entry in matches:
                self._entries.move_to_end(self._key(entry.area, entry.server))
        else:
            self.misses += 1
        matches.sort(key=lambda entry: (-entry.specificity(), entry.server))
        return matches

    # -- introspection ------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self._entries)
