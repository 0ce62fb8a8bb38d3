"""URN encoding of abstract resource names (paper §2, §3.4).

Mutant query plans reference data abstractly through URNs.  The paper uses
two flavours:

* **Named resources** such as ``urn:ForSale:Portland-CDs`` — an application
  namespace identifier plus an opaque collection name.  Catalogs map these
  to URLs or to servers that can resolve them.
* **Interest-area resources** such as
  ``urn:InterestArea:(USA.OR.Portland,Furniture)+(USA.WA.Vancouver,Furniture)``
  — a purely lexical transliteration of an interest area into URN syntax
  (§3.4).  These drive catalog-based routing.

This module provides the codec between the textual URN form and the typed
objects used elsewhere.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

from ..errors import URNError
from .hierarchy import CategoryPath
from .interest import InterestArea, InterestCell

__all__ = [
    "URN",
    "NamedURN",
    "InterestAreaURN",
    "parse_urn",
    "parse_urn_cached",
    "encode_interest_area",
    "decode_interest_area",
    "INTEREST_AREA_NAMESPACE",
]

INTEREST_AREA_NAMESPACE = "InterestArea"

_URN_RE = re.compile(r"^urn:(?P<nid>[A-Za-z0-9][A-Za-z0-9\-]{0,31}):(?P<nss>.+)$")
_CELL_RE = re.compile(r"\(([^()]*)\)")


@dataclass(frozen=True)
class URN:
    """Base class for parsed URNs: a namespace identifier plus a specific string."""

    namespace: str
    specific: str

    def __str__(self) -> str:
        return f"urn:{self.namespace}:{self.specific}"


@dataclass(frozen=True)
class NamedURN(URN):
    """An opaque named resource, e.g. ``urn:ForSale:Portland-CDs``."""

    @property
    def name(self) -> str:
        """The collection name (the namespace-specific string)."""
        return self.specific


@dataclass(frozen=True)
class InterestAreaURN(URN):
    """A URN whose namespace-specific string encodes an interest area."""

    area: InterestArea = None  # type: ignore[assignment]

    @classmethod
    def for_area(cls, area: InterestArea) -> "InterestAreaURN":
        """Build the URN encoding ``area``."""
        specific = encode_interest_area(area)
        return cls(INTEREST_AREA_NAMESPACE, specific, area)


def encode_interest_area(area: InterestArea) -> str:
    """Transliterate an interest area to the URN namespace-specific string.

    Category path separators become dots and cells are joined with ``+``,
    matching the paper's example encoding.  The top category ``*`` is kept
    verbatim.
    """
    if not area:
        raise URNError("cannot encode an empty interest area")
    encoded_cells = []
    for cell in area:
        coords = ",".join(
            "*" if coordinate.is_top else ".".join(coordinate.segments)
            for coordinate in cell.coordinates
        )
        encoded_cells.append(f"({coords})")
    return "+".join(encoded_cells)


def decode_interest_area(specific: str) -> InterestArea:
    """Parse the namespace-specific string of an InterestArea URN."""
    specific = specific.strip()
    if not specific:
        raise URNError("empty interest-area encoding")
    cell_bodies = _CELL_RE.findall(specific)
    rebuilt = "+".join(f"({body})" for body in cell_bodies)
    if not cell_bodies or rebuilt != specific.replace(" ", ""):
        raise URNError(f"malformed interest-area encoding: {specific!r}")
    area = InterestArea()
    for body in cell_bodies:
        coordinates = []
        for token in body.split(","):
            token = token.strip()
            if not token:
                raise URNError(f"empty coordinate in interest-area cell ({body})")
            if token == "*":
                coordinates.append(CategoryPath())
            else:
                coordinates.append(CategoryPath(tuple(token.split("."))))
        area.add(InterestCell(tuple(coordinates)))
    return area


def parse_urn(text: str) -> URN:
    """Parse a URN string into :class:`NamedURN` or :class:`InterestAreaURN`."""
    match = _URN_RE.match(text.strip())
    if not match:
        raise URNError(f"not a valid URN: {text!r}")
    nid = match.group("nid")
    nss = match.group("nss")
    if nid == INTEREST_AREA_NAMESPACE:
        area = decode_interest_area(nss)
        return InterestAreaURN(nid, encode_interest_area(area), area)
    return NamedURN(nid, nss)


@lru_cache(maxsize=4096)
def _urn_parts(text: str) -> URN | tuple[str, tuple[InterestCell, ...]] | None:
    """``text`` parsed once per process, as frozen parts: a named URN as is,
    an interest-area URN as its specific string and cells."""
    try:
        parsed = parse_urn(text)
    except URNError:
        return None
    if isinstance(parsed, InterestAreaURN):
        return parsed.specific, parsed.area.cells
    return parsed


def parse_urn_cached(text: str) -> URN | None:
    """:func:`parse_urn` for the URNs every hop reads again (``None``: not a URN).

    A plan's URNs and the ``bound`` records of its provenance repeat at
    every hop and in every piece, so the text is parsed once per process
    (a bounded memo).  The memo holds frozen parts only; each call builds
    its own :class:`InterestArea`, so no two callers share a mutable one.
    """
    parts = _urn_parts(text)
    if isinstance(parts, tuple):
        specific, cells = parts
        return InterestAreaURN(INTEREST_AREA_NAMESPACE, specific, InterestArea(cells))
    return parts
