"""Physical operator implementations of the local XML query engine.

The paper uses NIAGARA as its local query engine; this module is the
reproduction's substitute.  The ``stream_*`` functions are pull-based
(Volcano-style) iterators that hold at most one in-flight item for the
fully streaming operators (Select, Project, Union) and an explicitly
budgeted buffer for the pipeline breakers (Join builds its right-hand hash
index, Difference its right-hand key set, OrderBy / TopN / Aggregate buffer
their whole input).  :func:`evaluate_aggregate` is the one list-in /
list-out operator — ``stream_aggregate`` runs it over its budgeted buffer.
The list operators the differential suite compares against live in
``tests/oracles/list_engine.py``.

Pipeline breakers account every buffered item against a shared
:class:`BufferBudget`; overrunning the budget raises
:class:`~repro.errors.ResourceBudgetExceeded` instead of growing without
bound, and buffers are released (in a ``finally``) as soon as the
operator's iterator is exhausted or closed.

Joins are hash-based when the join paths yield hashable scalar values and
fall back to nested loops otherwise; both strategies produce identical
output ordering (left-input order, then right-input order) so evaluation is
deterministic.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import chain, islice
from typing import Iterable, Iterator, Sequence

from ..errors import EvaluationError, ResourceBudgetExceeded
from ..xmlmodel import XMLElement, evaluate_path_values, text_element
from ..algebra.expressions import Expression

__all__ = [
    "evaluate_aggregate",
    "BufferBudget",
    "stream_select",
    "stream_project",
    "stream_join",
    "stream_union",
    "stream_difference",
    "stream_aggregate",
    "stream_order_by",
    "stream_top_n",
]


class BufferBudget:
    """Shared accounting for every pipeline-breaker buffer of one evaluation.

    ``limit`` bounds the number of items buffered *simultaneously* across
    all blocking operators of a plan; ``None`` means unbounded (accounting
    still runs, so ``peak`` is always measured).  Operators ``charge`` as
    they buffer and ``release`` when their iterator is exhausted or closed,
    so a budget object doubles as the peak-memory probe the streaming
    benchmarks and the differential suite assert against.
    """

    __slots__ = ("limit", "buffered", "peak")

    def __init__(self, limit: int | None = None) -> None:
        if limit is not None and limit < 1:
            raise EvaluationError("max_buffered_items must be at least 1")
        self.limit = limit
        self.buffered = 0
        self.peak = 0

    def charge(self, count: int = 1) -> None:
        """Account ``count`` newly buffered items, enforcing the limit.

        A rejected charge is not retained — neither in ``buffered`` nor in
        ``peak``: the caller never buffered the item, so the high-water
        mark only ever reports items that were simultaneously held.
        """
        grown = self.buffered + count
        if self.limit is not None and grown > self.limit:
            raise ResourceBudgetExceeded(
                f"pipeline breaker would buffer {grown} items, "
                f"over the max_buffered_items budget of {self.limit}"
            )
        self.buffered = grown
        if grown > self.peak:
            self.peak = grown

    def release(self, count: int) -> None:
        """Return ``count`` items' worth of budget (iterator closed/drained)."""
        self.buffered = max(0, self.buffered - count)


def _first_value(item: XMLElement, path: str) -> str | None:
    values = evaluate_path_values(item, path)
    return values[0] if values else None


def _sort_key(value: str | None) -> tuple[int, float | str]:
    """Total order over optional, possibly-numeric strings.

    Missing values sort last; numeric values sort before strings, among
    themselves numerically.
    """
    if value is None:
        return (2, "")
    try:
        return (0, float(value))
    except ValueError:
        return (1, value)


def _aggregate_value(function: str, values: list[float]) -> float:
    if function == "sum":
        return sum(values)
    if function == "min":
        return min(values)
    if function == "max":
        return max(values)
    if function == "avg":
        return sum(values) / len(values)
    raise EvaluationError(f"unsupported aggregate function {function!r}")


def evaluate_aggregate(
    items: Sequence[XMLElement],
    function: str,
    value_path: str | None = None,
    group_path: str | None = None,
    output_tag: str = "aggregate",
) -> list[XMLElement]:
    """Grouped or global aggregation.

    Output items carry a ``<group>`` child (when grouping) and a
    ``<value>`` child holding the aggregate.
    """
    groups: dict[str | None, list[XMLElement]] = defaultdict(list)
    for item in items:
        key = _first_value(item, group_path) if group_path else None
        groups[key].append(item)
    if group_path and not items:
        groups = {}
    if not group_path and not groups:
        groups = {None: []}

    results: list[XMLElement] = []
    for key in sorted(groups, key=lambda value: (value is None, value)):
        members = groups[key]
        if function == "count":
            value: float = float(len(members))
        else:
            assert value_path is not None  # validated at plan construction
            numbers: list[float] = []
            for member in members:
                raw = _first_value(member, value_path)
                if raw is None:
                    continue
                try:
                    numbers.append(float(raw))
                except ValueError as exc:
                    raise EvaluationError(
                        f"non-numeric value {raw!r} for aggregate {function!r}"
                    ) from exc
            if not numbers:
                continue
            value = _aggregate_value(function, numbers)
        children = []
        if group_path and key is not None:
            children.append(text_element("group", key))
        rendered = int(value) if float(value).is_integer() else value
        children.append(text_element("value", rendered))
        results.append(XMLElement(output_tag, {"function": function}, children))
    return results


def stream_select(items: Iterable[XMLElement], predicate: Expression) -> Iterator[XMLElement]:
    """Streaming Select: one item in flight, nothing buffered."""
    return filter(predicate.matches, items)


def stream_project(
    items: Iterable[XMLElement],
    columns: Sequence[tuple[str, str]],
    item_tag: str = "item",
) -> Iterator[XMLElement]:
    """Streaming Project: each projected item is built as it is pulled.

    ``map`` over a bound builder keeps the per-item driving loop in C,
    like ``filter`` for Select.
    """

    def build(
        item: XMLElement,
        # Defaults turn every per-item lookup into a local load.
        columns: Sequence[tuple[str, str]] = tuple(columns),
        item_tag: str = item_tag,
        values: object = evaluate_path_values,
        text: object = text_element,
        element: object = XMLElement,
    ) -> XMLElement:
        fields: list[XMLElement] = []
        append = fields.append
        for path, tag in columns:
            for value in values(item, path):  # type: ignore[operator]
                append(text(tag, value))  # type: ignore[operator]
        return element(item_tag, {}, fields)  # type: ignore[operator]

    return map(build, items)


def stream_union(collections: Sequence[Iterable[XMLElement]]) -> Iterator[XMLElement]:
    """Streaming bag union: inputs are drained in order, never copied."""
    return chain.from_iterable(collections)


def stream_join(
    left: Iterable[XMLElement],
    right: Iterable[XMLElement],
    left_path: str,
    right_path: str,
    join_type: str = "inner",
    output_tag: str = "tuple",
    budget: BufferBudget | None = None,
) -> Iterator[XMLElement]:
    """Pipeline-breaking join: buffers the right input's hash index.

    The left input streams through unbuffered; every right item is charged
    against ``budget`` while the index is alive.
    """
    if join_type not in ("inner", "left_outer"):
        raise EvaluationError(f"unsupported join type {join_type!r}")
    budget = budget if budget is not None else BufferBudget()
    buffered = 0
    try:
        index: dict[str, list[XMLElement]] = defaultdict(list)
        for right_item in right:
            budget.charge()
            buffered += 1
            for value in set(evaluate_path_values(right_item, right_path)):
                index[value].append(right_item)
        for left_item in left:
            matches: list[XMLElement] = []
            seen: set[int] = set()
            for value in evaluate_path_values(left_item, left_path):
                for right_item in index.get(value, ()):
                    if id(right_item) not in seen:
                        seen.add(id(right_item))
                        matches.append(right_item)
            if matches:
                for right_item in matches:
                    yield XMLElement(output_tag, {}, [left_item.copy(), right_item.copy()])
            elif join_type == "left_outer":
                yield XMLElement(output_tag, {}, [left_item.copy()])
    finally:
        budget.release(buffered)


def stream_difference(
    left: Iterable[XMLElement],
    right: Iterable[XMLElement],
    key_path: str | None = None,
    budget: BufferBudget | None = None,
) -> Iterator[XMLElement]:
    """Pipeline-breaking difference: buffers the right input's key set."""
    budget = budget if budget is not None else BufferBudget()
    buffered = 0
    try:
        if key_path is None:
            right_keys: set[int] = set()
            for item in right:
                budget.charge()
                buffered += 1
                right_keys.add(hash(item))
            for item in left:
                if hash(item) not in right_keys:
                    yield item
        else:
            right_values: set[str | None] = set()
            for item in right:
                budget.charge()
                buffered += 1
                right_values.add(_first_value(item, key_path))
            for item in left:
                if _first_value(item, key_path) not in right_values:
                    yield item
    finally:
        budget.release(buffered)


def _buffer_all(
    items: Iterable[XMLElement], budget: BufferBudget
) -> list[XMLElement]:
    buffered: list[XMLElement] = []
    try:
        for item in items:
            budget.charge()
            buffered.append(item)
    except BaseException:
        budget.release(len(buffered))  # a failed fill frees what it took
        raise
    return buffered


def stream_aggregate(
    items: Iterable[XMLElement],
    function: str,
    value_path: str | None = None,
    group_path: str | None = None,
    output_tag: str = "aggregate",
    budget: BufferBudget | None = None,
) -> Iterator[XMLElement]:
    """Pipeline-breaking aggregation: buffers its whole input.

    Runs :func:`evaluate_aggregate` over the budgeted buffer.
    """
    budget = budget if budget is not None else BufferBudget()
    buffered: list[XMLElement] = []
    try:
        buffered = _buffer_all(items, budget)
        yield from evaluate_aggregate(buffered, function, value_path, group_path, output_tag)
    finally:
        budget.release(len(buffered))


def stream_order_by(
    items: Iterable[XMLElement],
    path: str,
    descending: bool = False,
    budget: BufferBudget | None = None,
) -> Iterator[XMLElement]:
    """Pipeline-breaking sort: buffers its whole input, then streams it out."""
    budget = budget if budget is not None else BufferBudget()
    buffered: list[XMLElement] = []
    try:
        buffered = _buffer_all(items, budget)
        buffered.sort(key=lambda item: _sort_key(_first_value(item, path)), reverse=descending)
        yield from buffered
    finally:
        budget.release(len(buffered))


def stream_top_n(
    items: Iterable[XMLElement],
    limit: int,
    path: str,
    descending: bool = True,
    budget: BufferBudget | None = None,
) -> Iterator[XMLElement]:
    """Pipeline-breaking Top-N: a budgeted sort truncated to ``limit`` items."""
    ordered = stream_order_by(items, path, descending, budget)
    try:
        yield from islice(ordered, limit)
    finally:
        ordered.close()  # release the sort buffer even when truncated
