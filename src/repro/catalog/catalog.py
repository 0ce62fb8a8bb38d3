"""The per-peer catalog (the "Catalog" box of Figure 2).

Every peer maintains a local catalog mapping URNs to URLs (or to servers
that can resolve them), recording the servers it knows about together with
their interest areas and roles, and retaining any intensional statements
those servers announced at registration time.  The catalog never claims
global knowledge — "mutant query plans ... allow query optimization and
source discovery to work with whatever information is available locally".

The catalog's record is its ``servers``, ``statements`` and
``named_resources``.  Lookups are served by the trie-backed
:class:`~repro.catalog.index.CatalogIndex` and
:class:`~repro.catalog.index.StatementIndex` in O(depth + matches), and a
repeated one from the catalog's :class:`~repro.catalog.answercache.AnswerCache`;
the linear scans the equivalence tests diff both against live in
``tests/oracles/catalog_scan.py``.  Only a peer that binds or routes a plan
ever looks anything up, so each index is built from the record on the first
lookup that needs it and maintained incrementally by every write after
that; a catalog that is only registered into holds no index.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..namespace import InterestArea
from .answercache import AnswerCache
from .entries import (
    CollectionRef,
    NamedResourceEntry,
    ServerEntry,
    ServerRole,
    canonical_address,
)
from .index import CatalogIndex, StatementIndex
from .intensional import CatalogLevel, IntensionalStatement

__all__ = ["Catalog"]


@dataclass
class Catalog:
    """Local knowledge about data, servers, and their relationships."""

    owner: str = "local"
    servers: dict[str, ServerEntry] = field(default_factory=dict)
    named_resources: dict[str, NamedResourceEntry] = field(default_factory=dict)
    statements: list[IntensionalStatement] = field(default_factory=list)

    def __post_init__(self) -> None:
        # Built on first use (see _index_of_servers, _index_of_statements
        # and register_statement), then kept in step by every write.
        self._index: CatalogIndex | None = None
        self._statement_index: StatementIndex | None = None
        self._statement_keys: set[IntensionalStatement] | None = None
        self.answer_cache = AnswerCache()

    @property
    def indexed(self) -> bool:
        """Whether a lookup has built either of this catalog's indexes."""
        return self._index is not None or self._statement_index is not None

    def _index_of_servers(self) -> CatalogIndex:
        if self._index is None:
            self._index = CatalogIndex(self.servers)
        return self._index

    def _index_of_statements(self) -> StatementIndex:
        if self._statement_index is None:
            self._statement_index = StatementIndex(self.statements)
        return self._statement_index

    # -- registration -------------------------------------------------------- #

    def register_server(self, entry: ServerEntry) -> None:
        """Add or update what we know about a server.

        Re-registration replaces the previous entry for the same address and
        role combination only if the new entry covers at least the old area;
        otherwise areas are merged, so repeated registrations never lose
        knowledge.  A merged entry lists the known collections first, then
        the new ones, each once.
        """
        existing = self.servers.get(entry.address)
        if existing is not None and not entry.covers(existing.area):
            entry = ServerEntry(
                address=entry.address,
                role=entry.role,
                area=existing.area.union(entry.area),
                authoritative=existing.authoritative or entry.authoritative,
                collections=list(dict.fromkeys([*existing.collections, *entry.collections])),
                registered_at=entry.registered_at,
            )
        self.servers[entry.address] = entry
        if self._index is not None:
            self._index.add(entry, existing)
        self._invalidate_answers(entry.area)

    def register_named_resource(self, entry: NamedResourceEntry) -> None:
        """Add resolution data for an application-level URN."""
        existing = self.named_resources.get(entry.name)
        if existing is None:
            self.named_resources[entry.name] = entry
        else:
            existing.merge(entry)

    def register_statement(self, statement: IntensionalStatement) -> None:
        """Retain an intensional statement announced by some server.

        Deduplication is a set-membership test: registration floods replay
        the same statements at every re-propagation, and the seed's
        ``statement not in list`` check made each replay O(statements).
        """
        keys = self._statement_keys
        if keys is None:
            keys = self._statement_keys = set(self.statements)
        if statement in keys:
            return
        keys.add(statement)
        self.statements.append(statement)
        if self._statement_index is not None:
            self._statement_index.add(len(self.statements) - 1)
        self._invalidate_answers(statement.lhs.area)

    def forget_server(self, address: str) -> None:
        """Drop a server (e.g. after repeated failures)."""
        self._drop_server(address)

    def prune_server(self, address: str) -> int:
        """Purge everything that routes through an unreachable server.

        Drops the server entry and every named-resource collection or
        resolver pointer hosted at ``address``; named resources left with no
        resolution data disappear entirely.  Returns the number of records
        removed.  A rejoining peer restores its records through registration
        re-propagation, so pruning is safe under churn.
        """
        removed = 1 if self._drop_server(address) else 0
        target = canonical_address(address)
        replacements: dict[str, NamedResourceEntry | None] = {}
        for name, entry in self.named_resources.items():
            kept = [
                collection
                for collection in entry.collections
                if canonical_address(collection.url) != target
            ]
            resolvers = [
                server
                for server in entry.resolver_servers
                if canonical_address(server) != target
            ]
            dropped = (len(entry.collections) - len(kept)) + (
                len(entry.resolver_servers) - len(resolvers)
            )
            if not dropped:
                continue
            removed += dropped
            # Entries are shared by reference with the catalogs that
            # registered them (including the origin peer's own), so build a
            # pruned replacement instead of mutating in place.
            replacements[name] = (
                NamedResourceEntry(name, kept, resolvers, entry.area)
                if kept or resolvers
                else None
            )
        for name, replacement in replacements.items():
            if replacement is None:
                del self.named_resources[name]
            else:
                self.named_resources[name] = replacement
        return removed

    def _drop_server(self, address: str) -> bool:
        dropped = self.servers.pop(address, None)
        if dropped is None:
            return False
        if self._index is not None:
            self._index.discard(dropped)
        self._invalidate_answers(dropped.area)
        return True

    # -- lookups --------------------------------------------------------------- #

    def lookup_named(self, name: str) -> NamedResourceEntry | None:
        """Return resolution data for a named URN, if known."""
        return self.named_resources.get(name)

    def servers_overlapping(
        self,
        area: InterestArea,
        roles: tuple[ServerRole, ...] | None = None,
    ) -> list[ServerEntry]:
        """Servers whose interest area overlaps ``area`` (optionally by role)."""
        key = ("overlap", roles, str(area))
        answer = self.answer_cache.get(key)
        if answer is None:
            answer = tuple(self._index_of_servers().overlapping(area, roles))
            self.answer_cache.put(key, area, answer)
        return list(answer)

    def servers_covering(
        self,
        area: InterestArea,
        roles: tuple[ServerRole, ...] | None = None,
    ) -> list[ServerEntry]:
        """Servers whose interest area covers all of ``area``."""
        key = ("cover", roles, str(area))
        answer = self.answer_cache.get(key)
        if answer is None:
            answer = tuple(self._index_of_servers().covering(area, roles))
            self.answer_cache.put(key, area, answer)
        return list(answer)

    def servers_with_roles(self, roles: tuple[ServerRole, ...]) -> list[ServerEntry]:
        """Every known server holding one of ``roles``, in address order."""
        return self._index_of_servers().with_roles(roles)

    def authoritative_servers(self, area: InterestArea) -> list[ServerEntry]:
        """Authoritative index / meta-index servers covering ``area``."""
        return [
            entry
            for entry in self.servers_covering(
                area, roles=(ServerRole.INDEX, ServerRole.META_INDEX)
            )
            if entry.authoritative
        ]

    def collections_overlapping(self, area: InterestArea) -> list[CollectionRef]:
        """Base collections indexed here whose owning server overlaps ``area``."""
        collections: list[CollectionRef] = []
        for entry in self.servers_overlapping(area, roles=(ServerRole.BASE,)):
            collections.extend(entry.collections)
        return sorted(collections)

    def statements_for(self, level: CatalogLevel, area: InterestArea) -> list[IntensionalStatement]:
        """Intensional statements applicable to a query over ``area``."""
        return self._index_of_statements().applicable(level, area)

    # -- answer cache -------------------------------------------------------------- #
    #
    # The key of an overlap/cover answer is the lookup's full identity
    # (kind, roles, area text), and every mutation path above invalidates
    # by area overlap, so a cached answer is always exactly what
    # recomputing would return.

    def _invalidate_answers(self, area: InterestArea) -> None:
        self.answer_cache.invalidate_overlapping(area)

    # -- introspection ------------------------------------------------------------ #

    def size(self) -> int:
        """Number of server entries plus named-resource entries plus statements.

        Used by the scalability benchmark as the per-peer catalog footprint.
        """
        return len(self.servers) + len(self.named_resources) + len(self.statements)

    def known_addresses(self) -> list[str]:
        """Addresses of all servers known to this catalog."""
        return sorted(self.servers)
