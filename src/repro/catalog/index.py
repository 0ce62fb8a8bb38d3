"""The area index: category tries over interest areas (the BGP-table move).

A linear scan answers "which keys' areas overlap (or cover) this one?" by
testing every key — O(keys) per lookup, at every URN binding, at every hop,
at every publish.  Interest areas are built from
:class:`~repro.namespace.hierarchy.CategoryPath` coordinates, which form a
tree per dimension, so the same structure that keeps BGP routers fast under
millions of prefixes applies here: a *trie keyed on category segments* per
hierarchy, answering lookups in O(depth + matches).

How the tries answer the two relations (paper §3.1):

* ``covers`` — a key's cell covers a query cell only if, in every
  dimension, the key's coordinate is an ancestor-or-self of the query's
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
(the catalog's scans survive as the correctness oracle in
``tests/oracles/catalog_scan.py``, the matcher's in
``tests/oracles/matcher_scan.py``), including order: buckets hold unique
keys, and result assembly orders the matched keys only.

One :class:`AreaIndex` serves every such lookup: the catalog's servers (one
index per role) and intensional statements (one per catalog level, keyed by
position in the statement list), and the armed subscriptions of
:class:`~repro.catalog.matcher.SubscriptionMatcher`.  It holds no copy of
what it indexes — each lookup reads the owner's record — and its maintenance
is incremental: ``add`` / ``discard`` cost O(cells × depth) per key, far off
the lookup hot path.
"""

from __future__ import annotations

from typing import Any, Callable, Generic, Hashable, Iterable, Iterator, TypeVar

from ..namespace import InterestArea

__all__ = ["AreaIndex"]

# A key sorts: an address or subscription id, or a statement's list position.
K = TypeVar("K", str, int)


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


class _CategoryTrie:
    """A trie over one dimension's category paths, mapping cells to keys.

    A key is inserted once per cell of its interest area; buckets are reference-counted so areas
    whose cells share a coordinate survive partial removal.
    """

    __slots__ = ("_root",)

    def __init__(self) -> None:
        self._root = _TrieNode()

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

    def covering_keys(self, path_segments: tuple[str, ...]) -> set[Any]:
        """Keys with a cell whose coordinate is an ancestor-or-self of the path."""
        found: set[Any] = set()
        for bucket in self.walk_path(path_segments):
            found.update(bucket)
        return found

    def overlapping_keys(self, path_segments: tuple[str, ...]) -> set[Any]:
        """Keys with a cell whose coordinate overlaps the path."""
        found = self.covering_keys(path_segments)
        for bucket in self.walk_subtree(path_segments):
            found.update(bucket)
        return found


class AreaIndex(Generic[K]):
    """Keys indexed by interest area: whose area overlaps or covers a query's.

    A key (server address, statement sequence number, subscription id) is
    counted once per cell coordinate of its area in one
    :class:`_CategoryTrie` per namespace dimension, grown lazily to the
    dimensionality of the areas it sees.  The areas themselves stay with
    the owner: ``add`` and ``discard`` are told the area that came or went,
    and each lookup verifies its trie candidates with the exact test on the
    area ``area_of(key)`` reads from the owner's record now.  Lookups return
    the matched keys sorted, so their order is bounded by the matches,
    never by the index.
    """

    __slots__ = ("_area_of", "_keys", "_tries")

    def __init__(self, area_of: Callable[[K], InterestArea]) -> None:
        self._area_of = area_of
        self._keys: set[K] = set()
        self._tries: list[_CategoryTrie] = []

    def __iter__(self) -> Iterator[K]:
        return iter(self._keys)

    # -- maintenance ---------------------------------------------------- #

    def add(self, key: K, area: InterestArea) -> None:
        """Index ``key`` under ``area``."""
        self._keys.add(key)
        tries = self._tries
        for cell in area:
            for dimension, coordinate in enumerate(cell.coordinates):
                while len(tries) <= dimension:
                    tries.append(_CategoryTrie())
                tries[dimension].add(coordinate.segments, key)

    def discard(self, key: K, area: InterestArea) -> None:
        """Undo :meth:`add` of ``key`` under ``area``."""
        self._keys.discard(key)
        tries = self._tries
        for cell in area:
            for dimension, coordinate in enumerate(cell.coordinates):
                if dimension < len(tries):
                    tries[dimension].remove(coordinate.segments, key)

    # -- lookups -------------------------------------------------------- #

    def overlapping(self, area: InterestArea) -> list[K]:
        """Keys whose area overlaps ``area``, sorted.

        A top coordinate overlaps everything, so per query cell the first
        non-top dimension generates the candidates; when every coordinate
        is top, every key is one.
        """
        area_of = self._area_of
        matched: set[K] = set()
        for cell in area:
            candidates: Iterable[K] = self._keys
            for dimension, coordinate in enumerate(cell.coordinates):
                if dimension >= len(self._tries):
                    break
                if coordinate.segments:
                    candidates = self._tries[dimension].overlapping_keys(coordinate.segments)
                    break
            for key in candidates:
                if key not in matched and area_of(key).overlaps(area):
                    matched.add(key)
        return sorted(matched)

    def covering(self, area: InterestArea) -> list[K]:
        """Keys whose area covers all of ``area``, sorted.

        Per query cell the candidates are the keys on the root→coordinate
        path of every dimension, intersected; the query's cells intersect
        theirs.  With no trie to walk (or an empty query area) every key is
        a candidate, as the exact test's all()-over-nothing has it.
        """
        candidates: set[K] | None = None
        for cell in area:
            for dimension, coordinate in enumerate(cell.coordinates):
                if dimension >= len(self._tries):
                    break
                keys = self._tries[dimension].covering_keys(coordinate.segments)
                if candidates is None:
                    candidates = keys
                else:
                    candidates &= keys
                if not candidates:
                    return []
        area_of = self._area_of
        return sorted(
            key for key in (self._keys if candidates is None else candidates)
            if area_of(key).covers(area)
        )
