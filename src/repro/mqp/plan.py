"""The mutant query plan itself: algebra plan + target + provenance + preferences.

A :class:`MutantQueryPlan` packages everything that travels between peers:

* the (partially evaluated) algebraic plan,
* the target address the final result must reach,
* the provenance log (§5.1),
* a copy of the original, unevaluated plan (§5.1: "maintaining the original
  query along with the partially evaluated query also allows a server to
  improve or enhance bindings, or even undo them") — while there is a URN
  left to bind: a scattered piece that holds none leaves it behind
  (:meth:`MutantQueryPlan.piece`), and a plan that arrives without one has
  none (``original is None``),
* the query preferences of §4.3 (time budget plus a binary preference for
  complete versus current answers).

The wire format wraps the plan's XML serialization, so shipping an MQP is
just shipping one XML document.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from ..algebra import QueryPlan, plan_from_xml, plan_to_xml
from ..errors import PlanError
from ..xmlmodel import XMLElement, parse_xml, serialize_xml, utf8_len
from .provenance import ProvenanceLog

__all__ = ["QueryPreferences", "MutantQueryPlan", "format_branch", "parse_branch"]

_query_counter = itertools.count(1)


def format_branch(branch: tuple[int, ...]) -> str:
    """The wire text of a branch path: ``(2, 17)`` is ``"2.17"``, the root ``""``."""
    return ".".join(map(str, branch))


def parse_branch(text: str) -> tuple[int, ...]:
    """Inverse of :func:`format_branch`."""
    try:
        return tuple(int(part) for part in text.split(".")) if text else ()
    except ValueError:
        raise PlanError(f"malformed branch path {text!r}") from None


@dataclass(frozen=True)
class QueryPreferences:
    """The simple tradeoff controls the paper proposes in §4.3.

    ``target_time_ms`` is the query's evaluation-time budget in simulated
    milliseconds (``None`` means unbounded), and ``prefer`` is the binary
    completeness-versus-currency preference, extended with ``fast`` for the
    latency-first behaviour used by several benchmarks.
    """

    target_time_ms: float | None = None
    prefer: str = "complete"

    VALID = ("complete", "current", "fast")

    def __post_init__(self) -> None:
        if self.prefer not in self.VALID:
            raise PlanError(f"preference must be one of {self.VALID}, got {self.prefer!r}")
        if self.target_time_ms is not None and self.target_time_ms <= 0:
            raise PlanError("target_time_ms must be positive")

    def to_xml(self) -> XMLElement:
        attributes: dict[str, object] = {"prefer": self.prefer}
        if self.target_time_ms is not None:
            attributes["target-time-ms"] = f"{self.target_time_ms:g}"
        return XMLElement("preferences", attributes)

    @classmethod
    def from_xml(cls, element: XMLElement) -> "QueryPreferences":
        target = element.get("target-time-ms")
        try:
            target_time_ms = float(target) if target is not None else None
        except ValueError:
            raise PlanError(f"malformed target-time-ms {target!r}") from None
        return cls(
            target_time_ms=target_time_ms,
            prefer=element.get("prefer", "complete") or "complete",
        )


_DEFERRED_ORIGINAL = object()
"""Sentinel: the original plan exists only as its wire XML, parsed on demand."""


class MutantQueryPlan:
    """Everything a peer receives, mutates, and forwards.

    The original plan is immutable once issued (§5.1 keeps it so bindings
    can be audited or undone), so re-encoding it into XML at every forward
    and re-building plan nodes — predicates included — at every receive is
    pure waste.  The wire form of the original is therefore carried alongside
    (``_original_xml``) and replayed verbatim on serialization, and the
    plan-node form is materialized lazily, for the few consumers that read it.
    """

    def __init__(
        self,
        plan: QueryPlan,
        query_id: str | None = None,
        provenance: ProvenanceLog | None = None,
        original: QueryPlan | None | object = None,
        preferences: QueryPreferences | None = None,
        issued_at: float = 0.0,
    ) -> None:
        self.plan = plan
        self.query_id = query_id if query_id is not None else f"q{next(_query_counter)}"
        self.provenance = provenance if provenance is not None else ProvenanceLog()
        self.preferences = preferences if preferences is not None else QueryPreferences()
        self.issued_at = issued_at
        # Scatter bookkeeping (see :meth:`piece`): which piece of the query
        # this plan is, and the share of the query's unit credit it carries.
        self.branch: tuple[int, ...] = ()
        self.credit = Fraction(1)
        self._original_xml: XMLElement | None = None
        if original is _DEFERRED_ORIGINAL:
            self._original: QueryPlan | None = None
        elif original is None:
            self._original = plan.copy()
        else:
            self._original = original  # type: ignore[assignment]

    @property
    def original(self) -> QueryPlan | None:
        """The original, unevaluated plan (materialized from XML on demand)."""
        if self._original is None and self._original_xml is not None:
            self._original = plan_from_xml(self._original_xml)
        return self._original

    @original.setter
    def original(self, value: QueryPlan | None) -> None:
        self._original = value
        self._original_xml = None

    def piece(self, plan: QueryPlan, branch: tuple[int, ...], credit: Fraction) -> "MutantQueryPlan":
        """One independently travelling piece of this query (a scatter).

        A hop that splits a union sends each group of branches as its own
        MQP: same query id, target and preferences, its own copy of the
        provenance so far, plus where the piece sits in the query
        (``branch``) and the share of this plan's ``credit`` it must return
        to the target.  The carried original goes along only while ``plan``
        holds a URN: nothing at a holder can improve or undo a binding of
        a piece that has none.  ``plan`` is adopted, not copied.
        """
        piece = MutantQueryPlan(
            plan,
            query_id=self.query_id,
            provenance=ProvenanceLog(list(self.provenance.records)),
            original=_DEFERRED_ORIGINAL,
            preferences=self.preferences,
            issued_at=self.issued_at,
        )
        if plan.urn_refs():
            piece._original, piece._original_xml = self._original, self._original_xml
        piece.branch, piece.credit = branch, credit
        return piece

    # -- convenience ------------------------------------------------------------ #

    @property
    def target(self) -> str | None:
        """The address the fully evaluated result must be sent to."""
        return self.plan.target

    def is_fully_evaluated(self) -> bool:
        """True when the plan is a constant piece of XML data."""
        return self.plan.is_fully_evaluated()

    def remaining_urns(self) -> list[str]:
        """URN strings still unresolved in the plan."""
        return [ref.urn for ref in self.plan.urn_refs()]

    def original_resources(self) -> list[str]:
        """The resource names the original query referenced (for spoof checks)."""
        assert self.original is not None
        resources = [ref.urn for ref in self.original.urn_refs()]
        resources.extend(ref.url for ref in self.original.url_refs())
        return resources

    def elapsed_ms(self, now: float) -> float:
        """Simulated time since the query was issued."""
        return max(0.0, now - self.issued_at)

    def over_budget(self, now: float) -> bool:
        """True when the query's time budget has been exhausted."""
        budget = self.preferences.target_time_ms
        return budget is not None and self.elapsed_ms(now) > budget

    # -- wire format --------------------------------------------------------------- #

    def to_xml(self, opaque: bool = False) -> XMLElement:
        """Serialize the complete MQP (plan, original, provenance, preferences).

        The returned tree aliases any verbatim result data; it is meant to
        be rendered to text immediately, not mutated.  With ``opaque`` (what
        :meth:`serialize` writes) it also aliases the original's carried
        wire form and holds verbatim data as spans, not trees.
        """
        children = [
            XMLElement("current", {}, [plan_to_xml(self.plan, opaque)]),
            self.preferences.to_xml(),
            self.provenance.to_xml(),
        ]
        if opaque and self._original_xml is not None:
            children.append(XMLElement("original", {}, [self._original_xml]))
        elif self.original is not None:
            children.append(XMLElement("original", {}, [plan_to_xml(self.original, opaque)]))
        attributes = {"id": self.query_id, "issued-at": f"{self.issued_at:.3f}"}
        if self.branch:
            # Only pieces of a scattered query say so; a whole plan (branch
            # "", credit 1) keeps the wire form it always had.
            attributes["branch"] = format_branch(self.branch)
            attributes["credit"] = str(self.credit)
        return XMLElement("mutant-query", attributes, children)

    def serialize(self, indent: int | None = None) -> str:
        """The XML string shipped between peers: verbatim data is written
        back as the text it arrived as (pretty-printing builds the trees)."""
        return serialize_xml(self.to_xml(opaque=indent is None), indent=indent)

    def wire_size(self) -> int:
        """Size in bytes of the wire encoding (partial results included)."""
        return utf8_len(self.serialize())

    @classmethod
    def from_xml(cls, element: XMLElement) -> "MutantQueryPlan":
        """Parse the element form produced by :meth:`to_xml`."""
        if element.tag != "mutant-query":
            raise PlanError(f"expected <mutant-query>, got <{element.tag}>")
        current = element.find("current")
        if current is None or not current.children:
            raise PlanError("<mutant-query> has no <current> plan")
        plan = plan_from_xml(current.children[0])
        original_wrapper = element.find("original")
        original_xml = (
            original_wrapper.children[0]
            if original_wrapper is not None and original_wrapper.children
            else None
        )
        preferences_element = element.find("preferences")
        preferences = (
            QueryPreferences.from_xml(preferences_element)
            if preferences_element is not None
            else QueryPreferences()
        )
        provenance_element = element.find("provenance")
        provenance = (
            ProvenanceLog.from_xml(provenance_element)
            if provenance_element is not None
            else ProvenanceLog()
        )
        try:
            issued_at = float(element.get("issued-at", "0") or 0.0)
        except ValueError:
            raise PlanError(f"malformed issued-at {element.get('issued-at')!r}") from None
        mqp = cls(
            plan=plan,
            query_id=element.get("id", f"q{next(_query_counter)}"),
            provenance=provenance,
            original=_DEFERRED_ORIGINAL,  # absent stays absent: nothing is made up here
            preferences=preferences,
            issued_at=issued_at,
        )
        mqp._original_xml = original_xml
        mqp.branch = parse_branch(element.get("branch", "") or "")
        try:
            mqp.credit = Fraction(element.get("credit", "1") or "1")
        except (ValueError, ZeroDivisionError):
            raise PlanError(f"malformed credit {element.get('credit')!r}") from None
        return mqp

    @classmethod
    def deserialize(cls, document: str) -> "MutantQueryPlan":
        """Parse the XML string form.  Verbatim data is checked for
        well-formedness here (``XMLParseError``) but kept as source text:
        only the server evaluating over a ``<data>`` leaf builds its tree."""
        return cls.from_xml(parse_xml(document, opaque=("data", "collection")))

    def __repr__(self) -> str:
        return (
            f"MutantQueryPlan({self.query_id!r}, nodes={self.plan.size()}, "
            f"urns={len(self.remaining_urns())}, evaluated={self.is_fully_evaluated()})"
        )
