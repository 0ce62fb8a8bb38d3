"""Plan interpreter: evaluate a (sub-)plan over locally available data.

This is the "Query Engine" box of Figure 2.  It walks a logical plan tree
bottom-up and produces the result collection.  Data for URL / URN leaves is
supplied by a *resolver* callback — the engine itself has no notion of the
network; the mutant-query-plan processor only hands it sub-plans whose
leaves are locally available.

One pull-based pipeline serves both call shapes:

* :meth:`QueryEngine.stream` composes the ``stream_*`` operators into one
  iterator — results flow out as they are produced, and blocking operators
  buffer against a per-evaluation :class:`BufferBudget`
  (``max_buffered_items``) instead of materializing unbounded lists;
* :meth:`QueryEngine.evaluate` / :meth:`QueryEngine.materialize` drain that
  same iterator into a list.

The recursive list evaluator the differential suite compares against lives
in ``tests/oracles/list_engine.py``.
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

from ..errors import EvaluationError
from ..xmlmodel import XMLElement
from ..algebra.operators import (
    Aggregate,
    ConjointOr,
    Difference,
    Display,
    Join,
    OrderBy,
    PlanNode,
    Project,
    Select,
    TopN,
    Union,
    URLRef,
    URNRef,
    VerbatimData,
)
from ..algebra.plan import QueryPlan
from . import operators as physical
from .operators import BufferBudget

__all__ = ["LeafResolver", "QueryEngine"]


LeafResolver = Callable[[PlanNode], Sequence[XMLElement] | None]
"""Callback mapping a URL/URN leaf to its local data items (or ``None``)."""


class QueryEngine:
    """Evaluates plan trees whose leaves are locally available.

    Parameters
    ----------
    resolver:
        Optional callback consulted for :class:`URLRef` and :class:`URNRef`
        leaves.  Returning ``None`` means the leaf is not available locally
        and evaluation fails with :class:`EvaluationError`.
    max_buffered_items:
        Memory budget shared by every pipeline-breaking operator of one
        evaluation (``None`` = unbounded).  A streaming evaluation that
        would buffer more raises
        :class:`~repro.errors.ResourceBudgetExceeded`.

    Cross-plan result caching lives one level up: the MQP pipeline keys
    sub-plans with :class:`~repro.engine.memo.EvaluationMemo` and only calls
    the engine on a miss.
    """

    def __init__(
        self,
        resolver: LeafResolver | None = None,
        max_buffered_items: int | None = None,
    ) -> None:
        self.resolver = resolver
        self.max_buffered_items = max_buffered_items
        self.operators_evaluated = 0
        self.items_produced = 0
        self.budget: BufferBudget | None = None

    # -- public API ---------------------------------------------------------- #

    def stream(self, plan: QueryPlan | PlanNode) -> Iterator[XMLElement]:
        """Return a pull-based iterator over the plan's result items.

        The iterator tree is composed eagerly (leaves are resolved now, so
        an unavailable leaf fails here, exactly like :meth:`evaluate`), but
        items flow only as the caller pulls.  Each call installs a fresh
        :class:`BufferBudget` on :attr:`budget`; after (or during) the
        drain, ``budget.peak`` reports the high-water mark of buffered
        items across the plan's pipeline breakers.
        """
        node = plan.root if isinstance(plan, QueryPlan) else plan
        self.budget = BufferBudget(self.max_buffered_items)
        return self._drain(self._stream(node, self.budget))

    def _drain(self, iterator: Iterator[XMLElement]) -> Iterator[XMLElement]:
        for item in iterator:
            self.items_produced += 1
            yield item

    def evaluate(self, plan: QueryPlan | PlanNode) -> list[XMLElement]:
        """Evaluate a plan (or bare node) and return the result items.

        The list is drained from the streaming operators, skipping
        :meth:`stream`'s per-item counting wrapper — the length is known
        once the drain completes.
        """
        node = plan.root if isinstance(plan, QueryPlan) else plan
        self.budget = BufferBudget(self.max_buffered_items)
        items = list(self._stream(node, self.budget))
        self.items_produced += len(items)
        return items

    def materialize(self, plan: QueryPlan | PlanNode) -> list[XMLElement]:
        """Alias of :meth:`evaluate` — the list-shaped shim consumed where a
        complete result set is required at once: the MQP sub-plan pipeline
        (whose :class:`~repro.engine.memo.EvaluationMemo` keeps the result
        leaf built from it) and the centralized coordinator baseline."""
        return self.evaluate(plan)

    @property
    def peak_buffered_items(self) -> int:
        """High-water mark of pipeline-breaker buffers in the last stream."""
        return self.budget.peak if self.budget is not None else 0

    def evaluate_collection(self, plan: QueryPlan | PlanNode, tag: str = "result") -> XMLElement:
        """Evaluate and wrap the result items in a single collection element."""
        return XMLElement(tag, {}, [item.copy() for item in self.evaluate(plan)])

    # -- streaming composition -------------------------------------------------- #

    def _stream(self, node: PlanNode, budget: BufferBudget) -> Iterator[XMLElement]:
        self.operators_evaluated += 1
        if isinstance(node, VerbatimData):
            # Iterate the collection in place: the pull pipeline never
            # mutates its input, so the defensive copy ``node.items`` makes
            # is pure overhead here.
            return iter(node.collection.children)
        if isinstance(node, (URLRef, URNRef)):
            return iter(self._resolve_leaf(node))
        if isinstance(node, Select):
            return physical.stream_select(self._stream(node.child, budget), node.predicate)
        if isinstance(node, Project):
            return physical.stream_project(
                self._stream(node.child, budget), node.columns, node.item_tag
            )
        if isinstance(node, Join):
            return physical.stream_join(
                self._stream(node.left, budget),
                self._stream(node.right, budget),
                node.left_path,
                node.right_path,
                node.join_type,
                node.output_tag,
                budget=budget,
            )
        if isinstance(node, Union):
            return physical.stream_union([self._stream(child, budget) for child in node.children])
        if isinstance(node, ConjointOr):
            # An unrewritten conjoint union falls back to its first branch
            # (the rewrite rules A | B -> A / A | B -> B make any branch valid).
            return self._stream(node.children[0], budget)
        if isinstance(node, Difference):
            return physical.stream_difference(
                self._stream(node.left, budget),
                self._stream(node.right, budget),
                node.key_path,
                budget=budget,
            )
        if isinstance(node, Aggregate):
            return physical.stream_aggregate(
                self._stream(node.child, budget),
                node.function,
                node.value_path,
                node.group_path,
                node.output_tag,
                budget=budget,
            )
        if isinstance(node, OrderBy):
            return physical.stream_order_by(
                self._stream(node.child, budget), node.path, node.descending, budget=budget
            )
        if isinstance(node, TopN):
            return physical.stream_top_n(
                self._stream(node.child, budget),
                node.limit,
                node.path,
                node.descending,
                budget=budget,
            )
        if isinstance(node, Display):
            return self._stream(node.child, budget)
        raise EvaluationError(f"cannot evaluate plan node {type(node).__name__}")

    def _resolve_leaf(self, leaf: PlanNode) -> list[XMLElement]:
        if self.resolver is not None:
            items = self.resolver(leaf)
            if items is not None:
                return list(items)
        description = getattr(leaf, "url", None) or getattr(leaf, "urn", None)
        raise EvaluationError(f"leaf {description!r} is not available locally")
