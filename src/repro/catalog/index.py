"""Catalog indexing: category tries over interest areas (the BGP-table move).

The seed catalog answered ``servers_overlapping`` / ``servers_covering`` by
scanning every server entry and re-sorting the matches — O(servers) per
lookup, at every URN binding, at every hop.  Interest areas are built from
:class:`~repro.namespace.hierarchy.CategoryPath` coordinates, which form a
tree per dimension, so the same structure that keeps BGP routers fast under
millions of prefixes applies here: a *trie keyed on category segments* per
hierarchy, answering lookups in O(depth + matches).

How the tries answer the two relations (paper §3.1):

* ``covers`` — a server cell covers a query cell only if, in every
  dimension, the server's coordinate is an ancestor-or-self of the query's
  coordinate.  Those are exactly the trie nodes on the root→query path, so
  candidates come from a walk of ``depth`` nodes per dimension; the
  per-dimension candidate sets are intersected, and the survivors are
  verified with the exact cell test (memoized in the namespace layer).
* ``overlaps`` — per dimension, the coordinates must be ancestor-or-self
  *or* descendant, i.e. the root→query path plus the subtree below the
  query node.  The first dimension with a non-top coordinate is used to
  generate candidates (a top coordinate constrains nothing), and the exact
  test filters the rest.

Both relations therefore return *byte-identical* results to the linear scan
(the scan survives as the correctness oracle in
``tests/oracles/catalog_scan.py``), including order: buckets hold unique
addresses, and result assembly orders the matched addresses only — never
the whole catalog.

The same machinery indexes intensional statements by (catalog level,
left-hand area), replacing the full-list filter in ``statements_for``.

Neither index holds a copy of what it indexes: each reads the catalog's
own record (its ``servers`` map, its ``statements`` list).  The catalog
builds an index from that record on the first lookup that needs it — most
peers' catalogs are only ever registered into, and hold no index at all —
and from then on maintenance is incremental: ``add`` / ``discard`` mirror
``register_server`` / ``forget_server`` / ``prune_server`` and cost
O(cells × depth) per entry, far off the lookup hot path.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Iterator

from ..namespace import InterestArea, InterestCell
from .entries import ServerEntry, ServerRole
from .intensional import CatalogLevel, IntensionalStatement

__all__ = ["CategoryTrie", "CatalogIndex", "StatementIndex"]


# Most trie nodes use one of their two maps (an inner category with no key
# of its own, or a leaf category with no children): the other is this one
# shared empty map, which nothing writes to.
_UNUSED: dict = {}


class _TrieNode:
    """One category of one dimension; buckets count cells per key.

    Both maps start as the shared :data:`_UNUSED` and become the node's own
    on the first insert into them.
    """

    __slots__ = ("children", "bucket")

    def __init__(self) -> None:
        self.children: dict[str, _TrieNode] = _UNUSED
        self.bucket: dict[Hashable, int] = _UNUSED


class CategoryTrie:
    """A trie over one dimension's category paths, mapping cells to keys.

    A key (server address, statement sequence number, ...) is inserted once
    per cell of its interest area; buckets are reference-counted so areas
    whose cells share a coordinate survive partial removal.
    """

    __slots__ = ("_root", "_size")

    def __init__(self) -> None:
        self._root = _TrieNode()
        self._size = 0

    # -- maintenance ---------------------------------------------------- #

    def add(self, segments: tuple[str, ...], key: Hashable) -> None:
        """Count ``key`` at the node for ``segments`` (creating the path)."""
        node = self._root
        for label in segments:
            child = node.children.get(label)
            if child is None:
                if node.children is _UNUSED:
                    node.children = {}
                child = node.children[label] = _TrieNode()
            node = child
        if node.bucket is _UNUSED:
            node.bucket = {}
        node.bucket[key] = node.bucket.get(key, 0) + 1
        self._size += 1

    def remove(self, segments: tuple[str, ...], key: Hashable) -> None:
        """Undo one :meth:`add`; prunes emptied branches."""
        trail: list[tuple[_TrieNode, str]] = []
        node = self._root
        for label in segments:
            child = node.children.get(label)
            if child is None:
                return  # never inserted; nothing to undo
            trail.append((node, label))
            node = child
        count = node.bucket.get(key)
        if count is None:
            return
        if count <= 1:
            del node.bucket[key]
        else:
            node.bucket[key] = count - 1
        self._size -= 1
        # Trim now-empty leaf chains so subtree walks stay proportional to
        # live entries even under heavy churn.
        while trail and not node.bucket and not node.children:
            parent, label = trail.pop()
            del parent.children[label]
            node = parent

    # -- queries -------------------------------------------------------- #

    def walk_path(self, segments: tuple[str, ...]) -> Iterator[dict[Hashable, int]]:
        """Yield the buckets of the root→``segments`` path (ancestor-or-self)."""
        node = self._root
        yield node.bucket
        for label in segments:
            node = node.children.get(label)
            if node is None:
                return
            yield node.bucket

    def walk_subtree(self, segments: tuple[str, ...]) -> Iterator[dict[Hashable, int]]:
        """Yield the buckets of the strict descendants of ``segments``."""
        node = self._root
        for label in segments:
            node = node.children.get(label)
            if node is None:
                return
        stack = list(node.children.values())
        while stack:
            node = stack.pop()
            yield node.bucket
            stack.extend(node.children.values())

    def covering_keys(self, path_segments: tuple[str, ...]) -> set[Hashable]:
        """Keys with a cell whose coordinate is an ancestor-or-self of the path."""
        found: set[Hashable] = set()
        for bucket in self.walk_path(path_segments):
            found.update(bucket)
        return found

    def overlapping_keys(self, path_segments: tuple[str, ...]) -> set[Hashable]:
        """Keys with a cell whose coordinate overlaps the path."""
        found = self.covering_keys(path_segments)
        for bucket in self.walk_subtree(path_segments):
            found.update(bucket)
        return found


def _cell_candidates_covering(
    tries: list[CategoryTrie], cell: InterestCell
) -> set[Hashable] | None:
    """Keys that could cover ``cell``: intersect the per-dimension path walks.

    Returns ``None`` when no dimension constrains the candidates (every
    coordinate is top — only possible when the tries are empty too).
    """
    candidates: set[Hashable] | None = None
    for dimension, coordinate in enumerate(cell.coordinates):
        if dimension >= len(tries):
            break
        keys = tries[dimension].covering_keys(coordinate.segments)
        if candidates is None:
            candidates = keys
        else:
            candidates &= keys
        if not candidates:
            return candidates
    return candidates


def _cell_candidates_overlapping(
    tries: list[CategoryTrie], cell: InterestCell, universe: Iterable[Hashable]
) -> Iterable[Hashable]:
    """Keys that could overlap ``cell``.

    A top coordinate overlaps everything, so the first non-top dimension
    generates the candidates; when every coordinate is top the whole
    ``universe`` overlaps by construction.
    """
    for dimension, coordinate in enumerate(cell.coordinates):
        if dimension >= len(tries):
            break
        if coordinate.segments:
            return tries[dimension].overlapping_keys(coordinate.segments)
    return universe


class CatalogIndex:
    """The trie-backed server index behind :class:`~repro.catalog.Catalog`.

    Reads the catalog's own ``servers`` map (address → entry) and holds
    only what answers lookups over it: one :class:`CategoryTrie` per
    namespace dimension (grown lazily to the dimensionality of the areas it
    sees) plus per-role address buckets.  It is built from that map and
    then kept in step with it: the catalog writes the map first, then tells
    the index which entry came and which went.
    """

    __slots__ = ("_servers", "_tries", "_by_role")

    def __init__(self, servers: dict[str, ServerEntry]) -> None:
        self._servers = servers
        self._tries: list[CategoryTrie] = []
        self._by_role: dict[ServerRole, set[str]] = {}
        for entry in servers.values():
            self.add(entry)

    # -- maintenance ---------------------------------------------------- #

    def _trie(self, dimension: int) -> CategoryTrie:
        while len(self._tries) <= dimension:
            self._tries.append(CategoryTrie())
        return self._tries[dimension]

    def add(self, entry: ServerEntry, replaced: ServerEntry | None = None) -> None:
        """Index ``entry``, which took the place of ``replaced`` (if any)."""
        if replaced is not None:
            self.discard(replaced)
        self._by_role.setdefault(entry.role, set()).add(entry.address)
        for cell in entry.area:
            for dimension, coordinate in enumerate(cell.coordinates):
                self._trie(dimension).add(coordinate.segments, entry.address)

    def discard(self, entry: ServerEntry) -> None:
        """Unindex ``entry``, which the catalog has dropped or replaced."""
        self._by_role[entry.role].discard(entry.address)
        for cell in entry.area:
            for dimension, coordinate in enumerate(cell.coordinates):
                if dimension < len(self._tries):
                    self._tries[dimension].remove(coordinate.segments, entry.address)

    # -- lookups -------------------------------------------------------- #

    def overlapping(
        self, area: InterestArea, roles: tuple[ServerRole, ...] | None = None
    ) -> list[ServerEntry]:
        """Entries whose area overlaps ``area``, in address order."""
        servers = self._servers
        matched: set[str] = set()
        for cell in area:
            for address in _cell_candidates_overlapping(self._tries, cell, servers):
                if address in matched:
                    continue
                entry = servers[address]
                if (roles is None or entry.role in roles) and entry.overlaps(area):
                    matched.add(address)
        return self._assemble(matched)

    def covering(
        self, area: InterestArea, roles: tuple[ServerRole, ...] | None = None
    ) -> list[ServerEntry]:
        """Entries whose area covers all of ``area``, in address order."""
        servers = self._servers
        candidates: set[str] | None = None
        for cell in area:
            cell_candidates = _cell_candidates_covering(self._tries, cell)
            if cell_candidates is None:
                continue
            if candidates is None:
                candidates = set(cell_candidates)
            else:
                candidates &= cell_candidates
            if not candidates:
                return []
        if candidates is None:
            # No constraining cell: every entry covers the (empty) area,
            # mirroring the linear scan's all()-over-nothing semantics.
            candidates = set(servers)
        matched = {
            address
            for address in candidates
            if (roles is None or servers[address].role in roles)
            and servers[address].covers(area)
        }
        return self._assemble(matched)

    def with_roles(self, roles: tuple[ServerRole, ...]) -> list[ServerEntry]:
        """Every entry holding one of ``roles``, in address order."""
        matched: set[str] = set()
        for role in roles:
            matched.update(self._by_role.get(role, ()))
        return self._assemble(matched)

    def _assemble(self, matched: set[str]) -> list[ServerEntry]:
        # Ordering cost is bounded by the matches, never the catalog: the
        # seed implementation re-sorted every scan result; here only the
        # matched addresses (unique by construction) are ordered.
        return [self._servers[address] for address in sorted(matched)]


class StatementIndex:
    """(catalog level, left-hand area) index over intensional statements.

    ``statements_for`` needs the statements whose left-hand side is at the
    query's level *and* whose left-hand area covers the query area — the
    same covers-style path walk as the server index, bucketed per level.
    Statements are keyed by their position in the catalog's own statement
    list, which the index reads and never copies, so results replay in
    registration order, byte-identical to the seed's list filter.
    """

    __slots__ = ("_statements", "_by_level", "_tries_by_level")

    def __init__(self, statements: list[IntensionalStatement]) -> None:
        self._statements = statements
        self._by_level: dict[CatalogLevel, set[int]] = {}
        self._tries_by_level: dict[CatalogLevel, list[CategoryTrie]] = {}
        for sequence in range(len(statements)):
            self.add(sequence)

    def add(self, sequence: int) -> None:
        """Index the statement at ``sequence`` in the catalog's list."""
        statement = self._statements[sequence]
        level = statement.lhs.level
        self._by_level.setdefault(level, set()).add(sequence)
        tries = self._tries_by_level.setdefault(level, [])
        for cell in statement.lhs.area:
            for dimension, coordinate in enumerate(cell.coordinates):
                while len(tries) <= dimension:
                    tries.append(CategoryTrie())
                tries[dimension].add(coordinate.segments, sequence)

    def applicable(self, level: CatalogLevel, area: InterestArea) -> list[IntensionalStatement]:
        """Statements applying to a query at ``level`` over ``area``."""
        at_level = self._by_level.get(level)
        if not at_level:
            return []
        tries = self._tries_by_level[level]
        candidates: set[Hashable] | None = None
        for cell in area:
            cell_candidates = _cell_candidates_covering(tries, cell)
            if cell_candidates is None:
                continue
            if candidates is None:
                candidates = set(cell_candidates)
            else:
                candidates &= cell_candidates
            if not candidates:
                return []
        if candidates is None:
            # No constraining cell (empty query area): every statement at
            # this level covers it trivially.
            candidates = set(at_level)
        return [
            self._statements[sequence]
            for sequence in sorted(candidates)
            if self._statements[sequence].applies_to(level, area)
        ]
