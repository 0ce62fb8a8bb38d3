"""Intensional statements: coordination formulas between servers (paper §4).

An intensional statement describes how the holdings of one server relate to
the holdings of others, at a given catalog *level* (base data or index
entries), restricted to an interest area, optionally with a staleness
*delay*:

    ``base[Portland, *]@R = base[Portland, *]@S``
    ``base[Portland, *]@R >= base[Portland, *]@S{30}``
    ``index[Oregon, GolfClubs]@R =
        base[Oregon, GolfClubs]@S | base[Oregon, GolfClubs]@T | ...``

The binder (:mod:`repro.catalog.binding`) uses these to produce conjoint
("or") bindings, prune redundant servers, and annotate alternatives with
currency bounds.  The textual form is parseable so statements can travel in
registration messages.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum

from ..errors import IntensionalStatementError
from ..namespace import InterestArea, decode_interest_area, encode_interest_area

__all__ = ["CatalogLevel", "Relation", "ServerHolding", "IntensionalStatement"]


class CatalogLevel(str, Enum):
    """Which level of holdings a statement talks about."""

    BASE = "base"
    INDEX = "index"
    META_INDEX = "meta-index"


class Relation(str, Enum):
    """The relation between the left side and the union of the right side."""

    EQUALS = "="
    SUPERSET = ">="


@dataclass(frozen=True)
class ServerHolding:
    """One side's term: ``level[area]@server{delay}``."""

    level: CatalogLevel
    area: InterestArea
    server: str
    delay_minutes: float = 0.0

    def __post_init__(self) -> None:
        if not self.server:
            raise IntensionalStatementError("a holding needs a server address")
        if self.delay_minutes < 0:
            raise IntensionalStatementError("delay must be non-negative")

    def to_text(self) -> str:
        delay = f"{{{self.delay_minutes:g}}}" if self.delay_minutes else ""
        return f"{self.level.value}[{encode_interest_area(self.area)}]@{self.server}{delay}"


_HOLDING_RE = re.compile(
    r"^\s*(?P<level>base|index|meta-index)\[(?P<area>[^\]]+)\]@(?P<server>[^\s{]+)"
    r"(?:\{(?P<delay>[0-9.]+)\})?\s*$"
)


def _parse_holding(text: str) -> ServerHolding:
    match = _HOLDING_RE.match(text)
    if not match:
        raise IntensionalStatementError(f"malformed holding: {text!r}")
    area = decode_interest_area(match.group("area"))
    delay = float(match.group("delay")) if match.group("delay") else 0.0
    return ServerHolding(CatalogLevel(match.group("level")), area, match.group("server"), delay)


@dataclass(frozen=True)
class IntensionalStatement:
    """``lhs  relation  rhs_1 ∪ rhs_2 ∪ ...``.

    ``EQUALS`` says the left holding is exactly the union of the right
    holdings; ``SUPERSET`` says the left holding contains that union (and
    possibly more) — the ``≥`` form of §4.1.
    """

    lhs: ServerHolding
    relation: Relation
    rhs: tuple[ServerHolding, ...]

    def __post_init__(self) -> None:
        if not self.rhs:
            raise IntensionalStatementError("a statement needs at least one right-hand holding")

    # -- applicability ------------------------------------------------------ #

    def applies_to(self, level: CatalogLevel, area: InterestArea) -> bool:
        """True when the statement constrains holdings relevant to a query.

        The statement is usable for a query over ``area`` at ``level`` when
        its left-hand side is at that level and its left-hand area covers
        the query area: then, within the query area, the left server's
        holdings are equal to (or a superset of) the union of the right
        servers' holdings.
        """
        return self.lhs.level == level and self.lhs.area.covers(area)

    def rhs_servers(self) -> list[str]:
        """Addresses on the right-hand side, in statement order."""
        return [holding.server for holding in self.rhs]

    @property
    def max_rhs_delay(self) -> float:
        """The largest staleness bound on the right-hand side."""
        return max(holding.delay_minutes for holding in self.rhs)

    # -- textual form ----------------------------------------------------------- #

    def to_text(self) -> str:
        rhs = " | ".join(holding.to_text() for holding in self.rhs)
        return f"{self.lhs.to_text()} {self.relation.value} {rhs}"

    @classmethod
    def parse(cls, text: str) -> "IntensionalStatement":
        """Parse the textual form produced by :meth:`to_text`."""
        for relation in (Relation.SUPERSET, Relation.EQUALS):
            token = f" {relation.value} "
            if token in text:
                left_text, right_text = text.split(token, 1)
                lhs = _parse_holding(left_text)
                rhs = tuple(_parse_holding(part) for part in right_text.split("|"))
                return cls(lhs, relation, rhs)
        raise IntensionalStatementError(f"no relation found in statement: {text!r}")
