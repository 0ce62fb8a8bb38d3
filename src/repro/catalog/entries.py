"""Catalog entry types (paper §2, §3.2).

A peer's local catalog records what it knows about resources elsewhere:

* :class:`CollectionRef` — a concrete collection at a base server, i.e. the
  "(URL, XPath expression)" pair the paper gives as an index-server entry,
  e.g. ``(http://10.3.4.5, /data[id=245])``.
* :class:`ServerEntry` — a known peer: its address, role (base / index /
  meta-index), interest area, and whether it claims to be authoritative for
  that area.
* :class:`NamedResourceEntry` — a mapping from an application-level URN
  (``urn:ForSale:Portland-CDs``) to collections or to servers that know how
  to resolve it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

from ..errors import CatalogError
from ..namespace import InterestArea

__all__ = [
    "ServerRole",
    "CollectionRef",
    "ServerEntry",
    "NamedResourceEntry",
    "WHOLE_SERVER",
    "canonical_address",
]


@lru_cache(maxsize=8192)
def canonical_address(url: str) -> str:
    """Reduce a server address or collection URL to its ``host[:port]`` form.

    Collection URLs arrive in whatever shape the registering peer used —
    bare ``host:port``, ``http://host:port``, ``https://host:port/`` — while
    churn handling identifies peers by bare address.  Comparing canonical
    forms keeps pruning and locality checks exact instead of guessing at a
    hard-coded scheme list.
    """
    text = url.strip()
    lowered = text.lower()
    for scheme in ("http://", "https://"):
        if lowered.startswith(scheme):
            text = text[len(scheme):]
            break
    return text.rstrip("/")

WHOLE_SERVER = "/*"
"""Sentinel collection path meaning *everything the server holds*.

Used when a catalog (typically a meta-index, which drops collection detail)
knows a server serves an area but not which collections it publishes; plan
construction maps it to ``URLRef(url, None)``, which resolves to the union
of the server's local collections."""


class ServerRole(str, Enum):
    """The roles a peer can play (§3.2).  A peer may hold several."""

    BASE = "base"
    INDEX = "index"
    META_INDEX = "meta-index"
    CATEGORY = "category"
    CLIENT = "client"


@dataclass(frozen=True, order=True)
class CollectionRef:
    """A pointer to a named collection of data at a base server.

    ``path`` may be the :data:`WHOLE_SERVER` sentinel when only the server
    (not its collection layout) is known.
    """

    url: str
    path: str = "/data"
    name: str | None = None
    cardinality: int | None = None

    def __post_init__(self) -> None:
        if not self.url:
            raise CatalogError("CollectionRef needs a URL")

    def __str__(self) -> str:
        return f"({self.url}, {self.path})"


@dataclass
class ServerEntry:
    """What this catalog knows about one remote (or local) server."""

    address: str
    role: ServerRole
    area: InterestArea
    authoritative: bool = False
    collections: list[CollectionRef] = field(default_factory=list)
    registered_at: float = 0.0

    def __post_init__(self) -> None:
        if not self.address:
            raise CatalogError("ServerEntry needs an address")
        if not isinstance(self.area, InterestArea):
            raise CatalogError("ServerEntry area must be an InterestArea")

    def covers(self, area: InterestArea) -> bool:
        """True when this server's interest area covers all of ``area``."""
        return self.area.covers(area)

    @property
    def is_authority(self) -> bool:
        """True for an authoritative index / meta-index: every source under
        its area has registered there (§3.3), so a query for an area it
        covers loses nothing by starting at this server."""
        return self.authoritative and self.role in (ServerRole.INDEX, ServerRole.META_INDEX)

    def __repr__(self) -> str:
        flag = ", authoritative" if self.authoritative else ""
        return f"ServerEntry({self.address!r}, {self.role.value}, {self.area}{flag})"


@dataclass
class NamedResourceEntry:
    """Resolution data for an application-level named URN."""

    name: str
    collections: list[CollectionRef] = field(default_factory=list)
    resolver_servers: list[str] = field(default_factory=list)
    area: InterestArea | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise CatalogError("NamedResourceEntry needs a name")

    def merge(self, other: "NamedResourceEntry") -> None:
        """Fold another entry for the same name into this one."""
        if other.name != self.name:
            raise CatalogError(f"cannot merge entries for {other.name!r} into {self.name!r}")
        for collection in other.collections:
            if collection not in self.collections:
                self.collections.append(collection)
        for server in other.resolver_servers:
            if server not in self.resolver_servers:
                self.resolver_servers.append(server)
        if self.area is None:
            self.area = other.area
        elif other.area is not None:
            self.area = self.area.union(other.area)
