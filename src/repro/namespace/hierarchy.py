"""Categorization hierarchies and category paths (paper §3.1).

A *categorization hierarchy* (also called a *dimension*, borrowing OLAP
terminology) is a tree of categories rooted at the all-inclusive ``*``
category.  ``USA/OR/Portland`` is a city-level category of the Location
dimension; every item in it also belongs to ``USA/OR`` and ``USA``.

:class:`CategoryPath` is an immutable value object naming a category by the
path of labels from the root; :class:`Hierarchy` is the tree of known
categories for one dimension and answers the structural questions the rest
of the system asks (parents, children, ancestor tests, approximation of
unknown categories by known ancestors).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Iterable, Mapping

from ..errors import NamespaceError

__all__ = ["CategoryPath", "TOP", "Hierarchy"]

_PARSE_CACHE: dict[str, "CategoryPath"] = {}
_PARSE_CACHE_LIMIT = 65536


@dataclass(frozen=True, order=True)
class CategoryPath:
    """A category identified by its path of labels from the dimension root.

    The empty path is the all-inclusive top category, written ``*`` in the
    paper.  Paths are written and parsed with ``/`` separators, e.g.
    ``USA/OR/Portland`` or ``Furniture/Chairs``.
    """

    segments: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        # Coerce to tuple so list-constructed paths compare (and hash)
        # equal to parsed ones — `segments[:n] == other.segments` prefix
        # checks are type-sensitive otherwise.
        if isinstance(self.segments, str):
            raise NamespaceError(
                f"segments must be a sequence of labels, got the string "
                f"{self.segments!r}; use CategoryPath.parse for path text"
            )
        if not isinstance(self.segments, tuple):
            object.__setattr__(self, "segments", tuple(self.segments))
        for segment in self.segments:
            if not segment or "/" in segment or segment == "*":
                raise NamespaceError(f"invalid category segment: {segment!r}")
        # Intern the segment labels: the category vocabulary is small and
        # shared by every peer, so label comparisons inside prefix checks
        # become pointer comparisons instead of character scans.
        object.__setattr__(
            self, "segments", tuple(sys.intern(segment) for segment in self.segments)
        )
        object.__setattr__(self, "_hash", hash(self.segments))

    def __hash__(self) -> int:
        # The dataclass-generated hash rehashes the segments tuple on every
        # call; paths key the catalog tries and comparison caches, so the
        # hash is computed once at construction instead.
        return self._hash  # type: ignore[attr-defined]

    # -- construction -------------------------------------------------- #

    @classmethod
    def parse(cls, text: str, separator: str = "/") -> "CategoryPath":
        """Parse ``USA/OR/Portland`` (or ``*`` for the top category)."""
        if separator == "/":
            cached = _PARSE_CACHE.get(text)
            if cached is not None:
                return cached
        raw = text
        text = text.strip()
        if text in ("", "*"):
            parsed = TOP
        else:
            parsed = cls(tuple(part.strip() for part in text.split(separator) if part.strip()))
        if separator == "/":
            if len(_PARSE_CACHE) >= _PARSE_CACHE_LIMIT:
                _PARSE_CACHE.clear()
            _PARSE_CACHE[raw] = parsed
        return parsed

    def child(self, label: str) -> "CategoryPath":
        """Return the child category of this one named ``label``."""
        return CategoryPath(self.segments + (label,))

    # -- structure ----------------------------------------------------- #

    @property
    def is_top(self) -> bool:
        """True for the all-inclusive ``*`` category."""
        return not self.segments

    @property
    def depth(self) -> int:
        """Number of levels below the top category (top has depth 0)."""
        return len(self.segments)

    @property
    def label(self) -> str:
        """The most specific label, or ``*`` for the top category."""
        return self.segments[-1] if self.segments else "*"

    @property
    def parent(self) -> "CategoryPath":
        """The parent category; the top category is its own parent."""
        if self.is_top:
            return self
        return CategoryPath(self.segments[:-1])

    def covers(self, other: "CategoryPath") -> bool:
        """True when ``other`` is this category or one of its descendants.

        This is the per-dimension building block of interest-cell coverage:
        a cell covers another iff each of its coordinates covers the
        corresponding coordinate (paper §3.1).
        """
        mine = self.segments
        theirs = other.segments
        if len(mine) > len(theirs):
            return False
        return theirs[: len(mine)] == mine

    def overlaps(self, other: "CategoryPath") -> bool:
        """True when the two categories share any items (one covers the other)."""
        return self.covers(other) or other.covers(self)

    def meet(self, other: "CategoryPath") -> "CategoryPath | None":
        """Return the more specific of two overlapping categories, else ``None``."""
        if self.covers(other):
            return other
        if other.covers(self):
            return self
        return None

    def __str__(self) -> str:
        # str(path) keys routing caches on the hot path, so the rendered
        # form is computed once per path object.
        text = self.__dict__.get("_text")
        if text is None:
            text = "/".join(self.segments) if self.segments else "*"
            object.__setattr__(self, "_text", text)
        return text


TOP = CategoryPath()
"""The all-inclusive ``*`` category shared by every dimension."""


class Hierarchy:
    """The category tree of a single dimension.

    Categories are added by path; intermediate categories are created
    implicitly, mirroring how the paper treats hierarchies as externally
    administered vocabularies (e.g. the Post Office's location hierarchy).
    """

    def __init__(self, name: str, categories: Iterable[CategoryPath | str] = ()) -> None:
        if not name:
            raise NamespaceError("hierarchy name must be non-empty")
        self.name = name
        self._children: dict[CategoryPath, set[str]] = {TOP: set()}
        for category in categories:
            self.add(category)

    # -- mutation ------------------------------------------------------ #

    def add(self, category: CategoryPath | str) -> CategoryPath:
        """Register a category (and all its ancestors); return the path."""
        path = CategoryPath.parse(category) if isinstance(category, str) else category
        current = TOP
        for label in path.segments:
            self._children.setdefault(current, set()).add(label)
            current = current.child(label)
            self._children.setdefault(current, set())
        return path

    def add_tree(self, tree: Mapping[str, object], prefix: CategoryPath = TOP) -> None:
        """Register a nested ``{label: {sub-label: {...}}}`` mapping of categories."""
        for label, subtree in tree.items():
            child = self.add(prefix.child(label))
            if isinstance(subtree, Mapping):
                self.add_tree(subtree, child)

    # -- queries ------------------------------------------------------- #

    def __contains__(self, category: CategoryPath | str) -> bool:
        path = CategoryPath.parse(category) if isinstance(category, str) else category
        return path in self._children

    def categories(self) -> list[CategoryPath]:
        """Return every known category, top first, in breadth-then-name order."""
        return sorted(self._children, key=lambda path: (path.depth, path.segments))

    def children(self, category: CategoryPath | str) -> list[CategoryPath]:
        """Return the immediate subcategories of ``category``."""
        path = self._require(category)
        return sorted(path.child(label) for label in self._children[path])

    def leaves(self) -> list[CategoryPath]:
        """Return the categories with no subcategories."""
        return sorted(
            (path for path, kids in self._children.items() if not kids),
            key=lambda path: (path.depth, path.segments),
        )

    def approximate(self, category: CategoryPath | str) -> CategoryPath:
        """Map an unknown category to its deepest known ancestor.

        The paper (§3.5) notes that a reference to an unknown hierarchy node
        can be approximated by an ancestor "with a possible loss of
        precision, but no loss of recall".
        """
        path = CategoryPath.parse(category) if isinstance(category, str) else category
        while path not in self._children:
            path = path.parent
        return path

    def descendants(self, category: CategoryPath | str, include_self: bool = True) -> list[CategoryPath]:
        """Return every known category covered by ``category``."""
        path = self._require(category)
        found = [known for known in self._children if path.covers(known)]
        if not include_self:
            found = [known for known in found if known != path]
        return sorted(found, key=lambda item: (item.depth, item.segments))

    def _require(self, category: CategoryPath | str) -> CategoryPath:
        path = CategoryPath.parse(category) if isinstance(category, str) else category
        if path not in self._children:
            raise NamespaceError(f"unknown category {path} in dimension {self.name!r}")
        return path

    def __repr__(self) -> str:
        return f"Hierarchy({self.name!r}, {len(self._children)} categories)"
