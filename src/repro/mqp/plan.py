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
just shipping one XML document.  It is written straight to text
(:meth:`MutantQueryPlan.serialize`): the plan by the algebra's plan writer,
each provenance record and the preferences as the text they keep, a
carried original as the text it arrived as.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from ..algebra import DATA_SPANS, QueryPlan, plan_from_xml, write_plan
from ..errors import PlanError
from ..xmlmodel import XMLElement, XMLSpan, parse_xml, quoteattr, serialize_xml, utf8_len
from .provenance import ProvenanceLog, number_text

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

    def to_text(self) -> str:
        """The ``<preferences/>`` element's text, attributes in name order."""
        target = (
            f" target-time-ms={quoteattr(number_text(self.target_time_ms))}"
            if self.target_time_ms is not None
            else ""
        )
        return f"<preferences prefer={quoteattr(self.prefer)}{target}/>"

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
"""Sentinel: the original plan exists only as its wire text, parsed on demand."""

_MQP_SPANS = DATA_SPANS + (("mutant-query", "original"),)
"""What a received plan keeps as text: its verbatim data and its original."""


class MutantQueryPlan:
    """Everything a peer receives, mutates, and forwards.

    The original plan is immutable once issued (§5.1 keeps it so bindings
    can be audited or undone), so re-encoding it into XML at every forward
    and re-building plan nodes — predicates included — at every receive is
    pure waste.  The wire text of the original is therefore carried alongside
    (``_original_text``) and replayed verbatim on serialization, and the
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
        self._original_text: str | None = None
        if original is _DEFERRED_ORIGINAL:
            self._original: QueryPlan | None = None
        elif original is None:
            self._original = plan.copy()
        else:
            self._original = original  # type: ignore[assignment]

    @property
    def original(self) -> QueryPlan | None:
        """The original, unevaluated plan (materialized from its text on demand)."""
        if self._original is None and self._original_text is not None:
            self._original = plan_from_xml(parse_xml(self._original_text, opaque=DATA_SPANS))
        return self._original

    @original.setter
    def original(self, value: QueryPlan | None) -> None:
        self._original = value
        self._original_text = None

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
            piece._original, piece._original_text = self._original, self._original_text
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

    def serialize(self, indent: int | None = None) -> str:
        """The XML string shipped between peers (plan, preferences,
        provenance, original), attributes in name order.

        Verbatim data and a carried original are written back as the text
        they arrived as; pretty-printing (``indent``) parses that text and
        writes every tree.
        """
        head = ""
        if self.branch:
            # Only pieces of a scattered query say so; a whole plan (branch
            # "", credit 1) keeps the wire form it always had.
            head = (
                f" branch={quoteattr(format_branch(self.branch))}"
                f" credit={quoteattr(str(self.credit))}"
            )
        pieces = [
            f"<mutant-query{head} id={quoteattr(self.query_id)}"
            f' issued-at="{self.issued_at:.3f}"><current>'
        ]
        write_plan(pieces.append, self.plan)
        pieces.append("</current>")
        pieces.append(self.preferences.to_text())
        pieces.append(self.provenance.to_text())
        if self._original_text is not None:
            pieces.append(f"<original>{self._original_text}</original>")
        elif self._original is not None:
            pieces.append("<original>")
            write_plan(pieces.append, self._original)
            pieces.append("</original>")
        pieces.append("</mutant-query>")
        text = "".join(pieces)
        return text if indent is None else serialize_xml(parse_xml(text), indent=indent)

    def wire_size(self) -> int:
        """Size in bytes of the wire encoding (partial results included)."""
        return utf8_len(self.serialize())

    @classmethod
    def from_xml(cls, element: XMLElement) -> "MutantQueryPlan":
        """Parse the element tree of what :meth:`serialize` writes."""
        if element.tag != "mutant-query":
            raise PlanError(f"expected <mutant-query>, got <{element.tag}>")
        current = element.find("current")
        if current is None or not current.children:
            raise PlanError("<mutant-query> has no <current> plan")
        plan = plan_from_xml(current.children[0])
        original_wrapper = element.find("original")
        original = (
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
            query_id=element.get("id"),  # only a plan without one draws a fresh id
            provenance=provenance,
            original=_DEFERRED_ORIGINAL,  # absent stays absent: nothing is made up here
            preferences=preferences,
            issued_at=issued_at,
        )
        if isinstance(original, XMLSpan):
            mqp._original_text = original.source
        elif original is not None:
            mqp._original = plan_from_xml(original)
        mqp.branch = parse_branch(element.get("branch", "") or "")
        try:
            mqp.credit = Fraction(element.get("credit", "1") or "1")
        except (ValueError, ZeroDivisionError):
            raise PlanError(f"malformed credit {element.get('credit')!r}") from None
        return mqp

    @classmethod
    def deserialize(cls, document: str) -> "MutantQueryPlan":
        """Parse the XML string form.  Verbatim data and the original are
        checked for well-formedness here (``XMLParseError``) but kept as
        source text: only the server evaluating over a ``<data>`` leaf
        builds its tree, and only a reader of :attr:`original` its plan."""
        return cls.from_xml(parse_xml(document, opaque=_MQP_SPANS))

    def __repr__(self) -> str:
        return (
            f"MutantQueryPlan({self.query_id!r}, nodes={self.plan.size()}, "
            f"urns={len(self.remaining_urns())}, evaluated={self.is_fully_evaluated()})"
        )
