"""Interest cells, interest areas, and the multi-hierarchic namespace (paper §3.1).

A *multi-hierarchic namespace* is an ordered set of dimensions (categorization
hierarchies).  The coordinates of a data item are an n-tuple of categories,
one per dimension.  An *interest cell* is the cross product of one category
per dimension; an *interest area* is a set of interest cells.  Data providers
describe the data they serve with interest areas, and data consumers phrase
queries with them, so the coverage and overlap relations defined here drive
catalog registration, query routing, and redundancy reasoning.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Mapping, Sequence

from ..errors import NamespaceError
from .hierarchy import TOP, CategoryPath, Hierarchy

__all__ = ["InterestCell", "InterestArea", "MultiHierarchicNamespace"]


# Cell-to-cell comparisons dominate every catalog lookup: each test walks the
# coordinate tuples and compares label prefixes.  Cells are immutable value
# objects with precomputed hashes, so the results are memoized process-wide.
# The bound is sized from what runs ask (distinct server-cell × query-cell
# pairs): no preset fills 8,000 of a memo's 16,384 pairs, about 136 B each
# (2.2 MB a memo), and the bound keeps an adversarial workload from growing
# it without limit.
@lru_cache(maxsize=1 << 14)
def _cell_covers(mine: "InterestCell", theirs: "InterestCell") -> bool:
    return all(
        ours.covers(other) for ours, other in zip(mine.coordinates, theirs.coordinates)
    )


@lru_cache(maxsize=1 << 14)
def _cell_overlaps(mine: "InterestCell", theirs: "InterestCell") -> bool:
    return all(
        ours.overlaps(other) for ours, other in zip(mine.coordinates, theirs.coordinates)
    )


@dataclass(frozen=True, order=True)
class InterestCell:
    """One category per dimension, e.g. ``[USA/OR/Portland, Furniture]``.

    The tuple is positional: coordinate *i* belongs to dimension *i* of the
    namespace the cell is used with.  Cells are immutable and hashable so
    they can key catalog indexes.
    """

    coordinates: tuple[CategoryPath, ...]

    def __post_init__(self) -> None:
        if not self.coordinates:
            raise NamespaceError("an interest cell needs at least one dimension")
        object.__setattr__(self, "_hash", hash(self.coordinates))

    def __hash__(self) -> int:
        # Precomputed: cells key catalog-trie buckets and the comparison
        # caches, and the coordinate hashes are themselves precomputed.
        return self._hash  # type: ignore[attr-defined]

    @classmethod
    def of(cls, *coordinates: CategoryPath | str) -> "InterestCell":
        """Build a cell from paths or path strings, in dimension order."""
        parsed = tuple(
            CategoryPath.parse(coord) if isinstance(coord, str) else coord
            for coord in coordinates
        )
        return cls(parsed)

    @property
    def dimensionality(self) -> int:
        """Number of dimensions this cell spans."""
        return len(self.coordinates)

    def covers(self, other: "InterestCell") -> bool:
        """True when, per dimension, our category is an ancestor of (or equals) theirs."""
        self._check_compatible(other)
        return _cell_covers(self, other)

    def overlaps(self, other: "InterestCell") -> bool:
        """True when some item could belong to both cells."""
        self._check_compatible(other)
        return _cell_overlaps(self, other)

    def intersect(self, other: "InterestCell") -> "InterestCell | None":
        """Return the most general cell covered by both, or ``None`` if disjoint."""
        self._check_compatible(other)
        met: list[CategoryPath] = []
        for mine, theirs in zip(self.coordinates, other.coordinates):
            meet = mine.meet(theirs)
            if meet is None:
                return None
            met.append(meet)
        return InterestCell(tuple(met))

    def specificity(self) -> int:
        """Total depth across dimensions; larger means more specific."""
        return sum(coordinate.depth for coordinate in self.coordinates)

    def coordinate(self, dimension_index: int) -> CategoryPath:
        """Return the category for the given dimension position."""
        return self.coordinates[dimension_index]

    def _check_compatible(self, other: "InterestCell") -> None:
        if len(self.coordinates) != len(other.coordinates):
            raise NamespaceError(
                "cells span different numbers of dimensions: "
                f"{len(self.coordinates)} vs {len(other.coordinates)}"
            )

    def __str__(self) -> str:
        # Cached: str(cell) feeds str(area), which keys the routing cache.
        text = self.__dict__.get("_text")
        if text is None:
            text = "[" + ", ".join(str(coord) for coord in self.coordinates) + "]"
            object.__setattr__(self, "_text", text)
        return text


class InterestArea:
    """A set of interest cells describing served data or a query's scope.

    The area keeps only *maximal* cells: adding a cell already covered by an
    existing cell is a no-op, and adding a cell that covers existing cells
    absorbs them.  This keeps coverage/overlap tests proportional to the
    number of genuinely distinct regions.
    """

    def __init__(self, cells: Iterable[InterestCell] = ()) -> None:
        self._cells: list[InterestCell] = []
        for cell in cells:
            self.add(cell)

    # -- construction -------------------------------------------------- #

    @classmethod
    def of(cls, *cells: InterestCell | Sequence[CategoryPath | str]) -> "InterestArea":
        """Build an area from cells or coordinate sequences."""
        area = cls()
        for cell in cells:
            if isinstance(cell, InterestCell):
                area.add(cell)
            else:
                area.add(InterestCell.of(*cell))
        return area

    def add(self, cell: InterestCell) -> None:
        """Add a cell, maintaining the maximal-cell invariant."""
        if not isinstance(cell, InterestCell):
            raise NamespaceError(f"expected InterestCell, got {type(cell).__name__}")
        if self._cells and cell.dimensionality != self._cells[0].dimensionality:
            raise NamespaceError("all cells of an area must span the same dimensions")
        if any(existing.covers(cell) for existing in self._cells):
            return
        self._cells = [existing for existing in self._cells if not cell.covers(existing)]
        self._cells.append(cell)
        self._cells.sort()

    # -- set-like protocol --------------------------------------------- #

    @property
    def cells(self) -> tuple[InterestCell, ...]:
        """The maximal cells of this area, in sorted order."""
        return tuple(self._cells)

    def __iter__(self) -> Iterator[InterestCell]:
        return iter(self._cells)

    def __len__(self) -> int:
        return len(self._cells)

    def __bool__(self) -> bool:
        return bool(self._cells)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, InterestArea):
            return NotImplemented
        return self._cells == other._cells

    def __hash__(self) -> int:
        return hash(tuple(self._cells))

    # -- relations ------------------------------------------------------ #

    def covers_cell(self, cell: InterestCell) -> bool:
        """True when some cell of this area covers ``cell``."""
        return any(mine.covers(cell) for mine in self._cells)

    def covers(self, other: "InterestArea") -> bool:
        """True when every cell of ``other`` is covered by a cell of this area."""
        return all(self.covers_cell(cell) for cell in other)

    def overlaps(self, other: "InterestArea") -> bool:
        """True when there exists a cell both areas cover (paper §3.1)."""
        return any(
            mine.overlaps(theirs) for mine in self._cells for theirs in other
        )

    def intersection(self, other: "InterestArea") -> "InterestArea":
        """Return the area of cells covered by both areas."""
        result = InterestArea()
        for mine in self._cells:
            for theirs in other:
                met = mine.intersect(theirs)
                if met is not None:
                    result.add(met)
        return result

    def union(self, other: "InterestArea") -> "InterestArea":
        """Return the area covering everything either area covers."""
        result = InterestArea(self._cells)
        for cell in other:
            result.add(cell)
        return result

    def specificity(self) -> int:
        """Return the minimum specificity across cells (how broad the area is)."""
        if not self._cells:
            return 0
        return min(cell.specificity() for cell in self._cells)

    def __str__(self) -> str:
        return " + ".join(str(cell) for cell in self._cells) if self._cells else "(empty)"

    def __repr__(self) -> str:
        return f"InterestArea({list(map(str, self._cells))})"


class MultiHierarchicNamespace:
    """An ordered collection of dimensions plus validation helpers.

    The namespace is shared application-wide (the paper's garage sale uses
    Location × Merchandise; the gene-expression scenario uses Organism ×
    CellType).  It validates cells against the known hierarchies, builds the
    all-covering top cell/area, and computes how many known leaf cells a
    given area covers — the measure used by the routing benchmarks to
    reason about recall.
    """

    def __init__(self, dimensions: Sequence[Hierarchy]) -> None:
        if not dimensions:
            raise NamespaceError("a namespace needs at least one dimension")
        names = [dimension.name for dimension in dimensions]
        if len(set(names)) != len(names):
            raise NamespaceError(f"duplicate dimension names: {names}")
        self.dimensions: tuple[Hierarchy, ...] = tuple(dimensions)

    # -- basic structure ------------------------------------------------ #

    @property
    def dimension_names(self) -> tuple[str, ...]:
        """Names of the dimensions, in namespace order."""
        return tuple(dimension.name for dimension in self.dimensions)

    def dimension(self, name: str) -> Hierarchy:
        """Return the dimension named ``name``."""
        for candidate in self.dimensions:
            if candidate.name == name:
                return candidate
        raise NamespaceError(f"unknown dimension {name!r}")

    def dimension_index(self, name: str) -> int:
        """Return the position of dimension ``name``."""
        for index, candidate in enumerate(self.dimensions):
            if candidate.name == name:
                return index
        raise NamespaceError(f"unknown dimension {name!r}")

    def top_cell(self) -> InterestCell:
        """Return the cell covering everything (``[*, *, ...]``)."""
        return InterestCell(tuple(TOP for _ in self.dimensions))

    def top_area(self) -> InterestArea:
        """Return the area containing only the top cell."""
        return InterestArea([self.top_cell()])

    # -- construction & validation --------------------------------------- #

    def cell(self, *coordinates: CategoryPath | str) -> InterestCell:
        """Build and validate a cell with one coordinate per dimension."""
        built = InterestCell.of(*coordinates)
        return self.validate_cell(built)

    def cell_from_mapping(self, coordinates: Mapping[str, CategoryPath | str]) -> InterestCell:
        """Build a cell from ``{dimension name: category}``; missing dimensions get ``*``."""
        ordered: list[CategoryPath | str] = []
        unknown = set(coordinates) - set(self.dimension_names)
        if unknown:
            raise NamespaceError(f"unknown dimensions in cell: {sorted(unknown)}")
        for dimension in self.dimensions:
            ordered.append(coordinates.get(dimension.name, TOP))
        return self.cell(*ordered)

    def area(self, *cells: InterestCell | Sequence[CategoryPath | str]) -> InterestArea:
        """Build and validate an interest area."""
        built = InterestArea.of(*cells)
        for cell in built:
            self.validate_cell(cell)
        return built

    def validate_cell(self, cell: InterestCell) -> InterestCell:
        """Check dimensionality and that every coordinate names a known category."""
        if cell.dimensionality != len(self.dimensions):
            raise NamespaceError(
                f"cell {cell} has {cell.dimensionality} coordinates, "
                f"namespace has {len(self.dimensions)} dimensions"
            )
        for coordinate, dimension in zip(cell.coordinates, self.dimensions):
            if coordinate not in dimension:
                raise NamespaceError(
                    f"category {coordinate} is not part of dimension {dimension.name!r}"
                )
        return cell

    def approximate_cell(self, cell: InterestCell) -> InterestCell:
        """Replace unknown coordinates with their deepest known ancestors (§3.5)."""
        if cell.dimensionality != len(self.dimensions):
            raise NamespaceError(
                f"cell {cell} has {cell.dimensionality} coordinates, "
                f"namespace has {len(self.dimensions)} dimensions"
            )
        approximated = tuple(
            dimension.approximate(coordinate)
            for coordinate, dimension in zip(cell.coordinates, self.dimensions)
        )
        return InterestCell(approximated)

    # -- measurement ----------------------------------------------------- #

    def leaf_cells(self) -> list[InterestCell]:
        """Return the cross product of leaf categories (the finest-grained cells)."""
        leaf_lists = [dimension.leaves() for dimension in self.dimensions]
        cells: list[InterestCell] = []
        self._cross(leaf_lists, 0, [], cells)
        return cells

    def _cross(
        self,
        leaf_lists: list[list[CategoryPath]],
        index: int,
        prefix: list[CategoryPath],
        out: list[InterestCell],
    ) -> None:
        if index == len(leaf_lists):
            out.append(InterestCell(tuple(prefix)))
            return
        for leaf in leaf_lists[index]:
            prefix.append(leaf)
            self._cross(leaf_lists, index + 1, prefix, out)
            prefix.pop()

    def coverage_fraction(self, area: InterestArea) -> float:
        """Return the fraction of leaf cells covered by ``area``.

        Used by the experiment harness as a namespace-level proxy for how
        broad a server's holdings or a query's scope is.
        """
        leaves = self.leaf_cells()
        if not leaves:
            return 0.0
        covered = sum(1 for leaf in leaves if area.covers_cell(leaf))
        return covered / len(leaves)

    def __repr__(self) -> str:
        return f"MultiHierarchicNamespace({', '.join(self.dimension_names)})"
