"""XPath-lite: the path expression language used by plans and catalogs.

The paper uses XPath expressions in two places: index-server entries point
at collections on base servers, e.g. ``(http://10.3.4.5, /data[id=245])``,
and query-plan predicates navigate inside XML data bundles, e.g. the price
selection of the Portland-CD query.  Full XPath 1.0 would be overkill; this
module implements the subset those uses need:

* absolute (``/data/item``) and relative (``item/price``) location paths,
* child steps with a tag name or the ``*`` wildcard,
* descendant-or-self steps written ``//item``,
* terminal ``@attr`` and ``text()`` steps that extract strings,
* predicates on steps: existence ``[price]``, attribute and child-element
  comparisons ``[@id = '245']`` / ``[price < 10]``, and 1-based positional
  predicates ``[2]``.

Evaluation returns elements in document order without duplicates.

A path is compiled once: a predicate hands ``evaluate_path_values`` the same
string for every item it tests, so :func:`parse_path` keeps a bounded memo of
what it has parsed.  The compiled form is immutable (frozen dataclasses over
tuples), which is what makes sharing it safe; a string that does not parse
is never remembered — it raises :class:`PathSyntaxError` on every call.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

from ..errors import PathSyntaxError
from .element import XMLElement

__all__ = ["PathExpression", "parse_path", "evaluate_path", "evaluate_path_values"]


_COMPARATORS: dict[str, Callable[[float | str, float | str], bool]] = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}

_PREDICATE_RE = re.compile(
    r"^\s*(?P<lhs>@?[\w.\-]+|\d+)\s*"
    r"(?:(?P<op>!=|<=|>=|=|<|>)\s*(?P<rhs>'[^']*'|\"[^\"]*\"|[\w.\-]+)\s*)?$"
)


@dataclass(frozen=True)
class Predicate:
    """A single ``[...]`` qualifier attached to a path step."""

    lhs: str
    op: str | None = None
    rhs: str | None = None

    def matches(self, node: XMLElement, position: int) -> bool:
        """Return True when ``node`` (1-based ``position``) satisfies this predicate."""
        if self.op is None:
            if self.lhs.isdigit():
                return position == int(self.lhs)
            if self.lhs.startswith("@"):
                return self.lhs[1:] in node.attributes
            return node.find(self.lhs) is not None
        left = self._lhs_value(node)
        if left is None:
            return False
        return _compare(left, self.op, self.rhs or "")

    def _lhs_value(self, node: XMLElement) -> str | None:
        if self.lhs.startswith("@"):
            return node.get(self.lhs[1:])
        child = node.find(self.lhs)
        if child is None:
            return None
        return child.text or ""


@dataclass(frozen=True)
class Step:
    """One location step: an axis, a node test, and optional predicates."""

    tag: str
    descendant: bool = False
    predicates: tuple[Predicate, ...] = ()


@dataclass(frozen=True)
class PathExpression:
    """A parsed XPath-lite expression."""

    steps: tuple[Step, ...]
    absolute: bool = False
    attribute: str | None = None
    text: bool = False
    source: str = ""


def _compare(left: str, op: str, right: str) -> bool:
    comparator = _COMPARATORS[op]
    try:
        return comparator(float(left), float(right))
    except (TypeError, ValueError):
        return comparator(left, right)


def _parse_predicates(chunk: str, source: str) -> tuple[str, tuple[Predicate, ...]]:
    predicates: list[Predicate] = []
    while chunk.endswith("]"):
        start = chunk.rfind("[")
        if start < 0:
            raise PathSyntaxError(f"unbalanced predicate brackets in {source!r}")
        body = chunk[start + 1 : -1]
        match = _PREDICATE_RE.match(body)
        if not match:
            raise PathSyntaxError(f"unsupported predicate [{body}] in {source!r}")
        rhs = match.group("rhs")
        if rhs and rhs[0] in "'\"":
            rhs = rhs[1:-1]
        predicates.insert(0, Predicate(match.group("lhs"), match.group("op"), rhs))
        chunk = chunk[:start]
    return chunk, tuple(predicates)


@lru_cache(maxsize=4096)
def parse_path(expression: str) -> PathExpression:
    """Parse an XPath-lite string into a :class:`PathExpression` (memoized).

    Raises
    ------
    PathSyntaxError
        If the expression uses syntax outside the supported subset.
    """
    source = expression.strip()
    if not source:
        raise PathSyntaxError("empty path expression")
    remainder = source
    absolute = remainder.startswith("/")
    steps: list[Step] = []
    attribute: str | None = None
    wants_text = False

    # Normalize '//' into a marker we can see while splitting on '/'.
    remainder = remainder.replace("//", "/\0")
    parts = [part for part in remainder.split("/") if part != ""]
    for index, raw in enumerate(parts):
        descendant = raw.startswith("\0")
        chunk = raw[1:] if descendant else raw
        is_last = index == len(parts) - 1
        if chunk == "text()":
            if not is_last:
                raise PathSyntaxError(f"text() must be the final step in {source!r}")
            wants_text = True
            continue
        if chunk.startswith("@"):
            if not is_last:
                raise PathSyntaxError(f"@attribute must be the final step in {source!r}")
            attribute = chunk[1:]
            if not attribute:
                raise PathSyntaxError(f"missing attribute name in {source!r}")
            continue
        chunk, predicates = _parse_predicates(chunk, source)
        if not chunk:
            raise PathSyntaxError(f"missing node test in step {raw!r} of {source!r}")
        if not re.fullmatch(r"[\w.\-]+|\*", chunk):
            raise PathSyntaxError(f"unsupported node test {chunk!r} in {source!r}")
        steps.append(Step(chunk, descendant, predicates))

    if not steps and attribute is None and not wants_text:
        raise PathSyntaxError(f"path {source!r} selects nothing")
    return PathExpression(tuple(steps), absolute, attribute, wants_text, source)


def _step_candidates(node: XMLElement, step: Step) -> list[XMLElement]:
    if step.descendant:
        pool = [candidate for candidate in node.iter()]
    else:
        pool = list(node.children)
    if step.tag == "*":
        return pool if step.descendant else list(node.children)
    return [candidate for candidate in pool if candidate.tag == step.tag]


def _apply_step(nodes: Sequence[XMLElement], step: Step) -> list[XMLElement]:
    selected: list[XMLElement] = []
    seen: set[int] = set()
    for node in nodes:
        candidates = _step_candidates(node, step)
        position = 0
        for candidate in candidates:
            position += 1
            if all(pred.matches(candidate, position) for pred in step.predicates):
                if id(candidate) not in seen:
                    seen.add(id(candidate))
                    selected.append(candidate)
    return selected


def evaluate_path(root: XMLElement, path: PathExpression | str) -> list[XMLElement]:
    """Return the elements selected by ``path`` starting from ``root``.

    For an absolute path, the first step is matched against ``root`` itself
    (so ``/data/item`` applied to a ``<data>`` document selects its items).
    """
    expression = parse_path(path) if isinstance(path, str) else path
    if not expression.steps:
        return [root]
    context: list[XMLElement]
    steps = expression.steps
    if expression.absolute:
        first = steps[0]
        if first.descendant:
            context = [root]
        else:
            if first.tag not in ("*", root.tag):
                return []
            if not all(pred.matches(root, 1) for pred in first.predicates):
                return []
            context = [root]
            steps = steps[1:]
    else:
        context = [root]
    for step in steps:
        context = _apply_step(context, step)
        if not context:
            return []
    return context


def evaluate_path_values(root: XMLElement, path: PathExpression | str) -> list[str]:
    """Return string values selected by ``path`` (attribute, text, or element text)."""
    expression = parse_path(path) if isinstance(path, str) else path
    nodes = evaluate_path(root, expression)
    if expression.attribute is not None:
        values = [node.get(expression.attribute) for node in nodes]
        return [value for value in values if value is not None]
    return [node.text or "" for node in nodes]
