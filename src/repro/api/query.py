"""Fluent query building: from a resource name to a submitted handle.

The builder compiles to exactly the :class:`~repro.algebra.plan.QueryPlan`
trees the MQP machinery has always consumed — every structural method
mirrors a :class:`~repro.algebra.builder.PlanBuilder` constructor, so a
fluent query and its hand-built equivalent serialize identically (a
property ``tests/test_api.py`` asserts).  On top of the structure it
carries the *query controls* that previously travelled as loose arguments:
preferences (§4.3), the expected-answer count for recall accounting, and
an explicit query id for deterministic reports.

    handle = (
        session.query()
        .urn("urn:ForSale:Portland-CDs")
        .where("price < 10")
        .expecting(2)
        .submit()
    )

A pre-built plan drops in through the escape hatch: ``session.query(plan)``
or ``builder.plan(query_plan)``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from ..algebra import PlanBuilder, QueryPlan
from ..algebra.expressions import Expression
from ..algebra.operators import PlanNode
from ..errors import APIError
from ..mqp import QueryPreferences
from ..namespace import InterestArea, InterestAreaURN
from ..xmlmodel import XMLElement

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from .handle import QueryHandle
    from .session import Session
    from .subscription import Subscription

__all__ = ["QueryBuilder"]


class QueryBuilder:
    """Chainable construction of one query, bound to the issuing session."""

    def __init__(self, session: "Session", plan: QueryPlan | None = None) -> None:
        self._session = session
        self._builder: PlanBuilder | None = None
        self._raw: QueryPlan | None = plan
        self._target: str | None = None
        self._prefer: str | None = None
        self._target_time_ms: float | None = None
        self._preferences: QueryPreferences | None = None
        self._expected: int | None = None
        self._query_id: str | None = None

    # -- sources ----------------------------------------------------------- #

    def urn(self, urn: str) -> "QueryBuilder":
        """Query an abstract resource name (resolved en route, §3.4)."""
        return self._start(PlanBuilder.urn(urn))

    def area(self, area: "InterestArea | Sequence[str]") -> "QueryBuilder":
        """Query an interest area (compiled to its URN form).

        Accepts an :class:`~repro.namespace.InterestArea` or the coordinate
        paths one describes, e.g. ``["USA/OR/Portland", "Music/CDs"]``
        (resolved against the session peer's namespace).
        """
        if not isinstance(area, InterestArea):
            area = self._session.peer.namespace.area(list(area))
        return self.urn(str(InterestAreaURN.for_area(area)))

    def url(self, url: str, path: str | None = None) -> "QueryBuilder":
        """Query a concrete resource location directly."""
        return self._start(PlanBuilder.url(url, path))

    def data(
        self, items: "Sequence[XMLElement] | XMLElement", name: str | None = None
    ) -> "QueryBuilder":
        """Query verbatim XML data carried inside the plan."""
        return self._start(PlanBuilder.data(items, name))

    def plan(self, plan: QueryPlan) -> "QueryBuilder":
        """Escape hatch: use a pre-built :class:`QueryPlan` as-is.

        The plan is taken structurally complete (including its ``Display``
        root); the builder's structural methods are unavailable after this,
        while the query controls (``prefer``/``within``/``expecting``/
        ``labelled``) still apply.  ``.to()`` cannot retarget a raw plan —
        its ``Display`` target is authoritative and a conflicting ``.to()``
        raises at compile time rather than being silently ignored.
        """
        if self._builder is not None:
            raise APIError("this query already has a fluent body; cannot adopt a raw plan")
        if self._raw is not None:
            raise APIError("this query already has a raw plan")
        self._raw = plan
        return self

    # -- structure (mirrors PlanBuilder one-for-one) ------------------------ #

    def where(self, predicate: "Expression | str") -> "QueryBuilder":
        """Filter by a predicate (textual form accepted); alias: :meth:`select`."""
        return self._chain(self._body().select(predicate))

    # ``select`` is the paper's (and PlanBuilder's) name for the operator.
    select = where

    def project(
        self, columns: Sequence[tuple[str, str]], item_tag: str = "item"
    ) -> "QueryBuilder":
        """Keep only the listed ``(path, output_tag)`` fields."""
        return self._chain(self._body().project(columns, item_tag))

    def join(
        self,
        other: "QueryBuilder | PlanBuilder | PlanNode",
        on: tuple[str, str],
        join_type: str = "inner",
        output_tag: str = "tuple",
    ) -> "QueryBuilder":
        """Equality-join with another query body on ``(left, right)`` paths."""
        return self._chain(self._body().join(self._operand(other), on, join_type, output_tag))

    def union(self, *others: "QueryBuilder | PlanBuilder | PlanNode") -> "QueryBuilder":
        """Bag union with one or more other query bodies."""
        return self._chain(self._body().union(*(self._operand(other) for other in others)))

    def conjoint_or(self, *others: "QueryBuilder | PlanBuilder | PlanNode") -> "QueryBuilder":
        """Conjoint union (§4.2): any one branch suffices."""
        return self._chain(
            self._body().conjoint_or(*(self._operand(other) for other in others))
        )

    def difference(
        self, other: "QueryBuilder | PlanBuilder | PlanNode", key_path: str | None = None
    ) -> "QueryBuilder":
        """Set difference with another query body."""
        return self._chain(self._body().difference(self._operand(other), key_path))

    def aggregate(
        self,
        function: str,
        value_path: str | None = None,
        group_path: str | None = None,
        output_tag: str = "aggregate",
    ) -> "QueryBuilder":
        """Aggregate (optionally grouped) over a value path."""
        return self._chain(self._body().aggregate(function, value_path, group_path, output_tag))

    def count(self) -> "QueryBuilder":
        """Shorthand for an ungrouped count aggregate."""
        return self._chain(self._body().count())

    def order_by(self, path: str, descending: bool = False) -> "QueryBuilder":
        """Sort by the value at ``path``."""
        return self._chain(self._body().order_by(path, descending))

    def top_n(self, limit: int, path: str, descending: bool = True) -> "QueryBuilder":
        """Keep the best ``limit`` items ordered by ``path``."""
        return self._chain(self._body().top_n(limit, path, descending))

    # -- query controls ------------------------------------------------------ #

    def prefer(self, preference: str) -> "QueryBuilder":
        """Set the §4.3 tradeoff: ``complete``, ``current``, or ``fast``."""
        self._prefer = preference
        return self

    def within(self, target_time_ms: float) -> "QueryBuilder":
        """Set the evaluation-time budget in simulated milliseconds."""
        self._target_time_ms = target_time_ms
        return self

    def preferences(self, preferences: QueryPreferences) -> "QueryBuilder":
        """Adopt a fully-built :class:`QueryPreferences` (overrides the above)."""
        self._preferences = preferences
        return self

    def expecting(self, answers: int) -> "QueryBuilder":
        """Declare the ground-truth answer count (drives recall metrics)."""
        self._expected = answers
        return self

    def labelled(self, query_id: str) -> "QueryBuilder":
        """Pin the query id (deterministic ids keep reports reproducible)."""
        self._query_id = query_id
        return self

    def to(self, target_address: str) -> "QueryBuilder":
        """Deliver the answer to another peer (default: the issuing session)."""
        self._target = target_address
        return self

    # -- terminals ------------------------------------------------------------ #

    def compile(self) -> QueryPlan:
        """Compile to the :class:`QueryPlan` that would be submitted."""
        if self._raw is not None:
            if self._target is not None and self._target != self._raw.target:
                raise APIError(
                    "cannot retarget a raw plan with .to(); the adopted plan "
                    f"already delivers to {self._raw.target!r}"
                )
            return self._raw
        if self._builder is None:
            raise APIError(
                "the query has no source; start with .urn()/.area()/.url()/"
                ".data() or adopt a plan with .plan()"
            )
        return self._builder.display(self._target or self._session.address)

    def build_preferences(self) -> QueryPreferences:
        """The :class:`QueryPreferences` the submission will carry."""
        if self._preferences is not None:
            return self._preferences
        return QueryPreferences(
            target_time_ms=self._target_time_ms,
            prefer=self._prefer if self._prefer is not None else "complete",
        )

    def submit(self) -> "QueryHandle":
        """Issue the query at the session's peer; answers resolve the handle."""
        return self._session.submit(
            self.compile(),
            preferences=self.build_preferences(),
            expected_answers=self._expected,
            query_id=self._query_id,
        )

    def subscribe(self) -> "Subscription":
        """Register the query as a standing query instead of answering once.

        Requires a subscribable shape (select/project over one
        interest-area source); deltas flow to the issuing session as
        publishers mutate matching data.
        """
        return self._session.subscribe(self)

    # -- internals ------------------------------------------------------------- #

    def _start(self, builder: PlanBuilder) -> "QueryBuilder":
        if self._raw is not None:
            raise APIError("this query adopted a raw plan; structural methods are unavailable")
        if self._builder is not None:
            raise APIError(
                "the query already has a source; combine plans with "
                ".join()/.union()/.conjoint_or() instead"
            )
        self._builder = builder
        return self

    def _chain(self, builder: PlanBuilder) -> "QueryBuilder":
        self._builder = builder
        return self

    def _body(self) -> PlanBuilder:
        if self._raw is not None:
            raise APIError("this query adopted a raw plan; structural methods are unavailable")
        if self._builder is None:
            raise APIError(
                "the query has no source yet; start with .urn()/.area()/.url()/.data()"
            )
        return self._builder

    @staticmethod
    def _operand(other: "QueryBuilder | PlanBuilder | PlanNode") -> "PlanBuilder | PlanNode":
        if isinstance(other, QueryBuilder):
            return other._body()
        return other

    def __repr__(self) -> str:
        if self._raw is not None:
            shape = "raw-plan"
        elif self._builder is None:
            shape = "empty"
        else:
            shape = type(self._builder.node).__name__
        return f"QueryBuilder(session={self._session.address!r}, {shape})"
