"""Scalar expressions used by query-plan predicates and projections.

Predicates in the paper's examples are simple comparisons over values
reached by path expressions inside XML data bundles ("price < $10",
"id = 245"), optionally combined with boolean connectives.  Expressions
evaluate against a single XML item (an element representing one data
bundle) and must round-trip through a compact textual form so they can be
carried inside the XML serialization of a mutant query plan.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from ..errors import PlanError
from ..xmlmodel import XMLElement, evaluate_path_values

__all__ = [
    "Expression",
    "Literal",
    "PathRef",
    "Comparison",
    "And",
    "Or",
    "Not",
    "parse_predicate",
]


class Expression:
    """Base class for scalar and boolean expressions."""

    def evaluate(self, item: XMLElement) -> object:
        """Evaluate this expression against a single XML item."""
        raise NotImplementedError

    def matches(self, item: XMLElement) -> bool:
        """Evaluate as a boolean predicate."""
        return bool(self.evaluate(item))

    def to_text(self) -> str:
        """Serialize to the compact textual predicate form."""
        raise NotImplementedError

    def __str__(self) -> str:
        return self.to_text()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Expression) and self.to_text() == other.to_text()

    def __hash__(self) -> int:
        return hash(self.to_text())


@dataclass(frozen=True, eq=False)
class Literal(Expression):
    """A constant string or numeric value."""

    value: object

    def evaluate(self, item: XMLElement) -> object:
        return self.value

    def to_text(self) -> str:
        if isinstance(self.value, (int, float)):
            return repr(self.value)
        return f"'{self.value}'"


@dataclass(frozen=True, eq=False)
class PathRef(Expression):
    """A reference to a value inside the item, located by an XPath-lite path.

    Evaluation returns the first selected value (string), or ``None`` when
    the path selects nothing.
    """

    path: str

    def evaluate(self, item: XMLElement) -> object:
        values = evaluate_path_values(item, self.path)
        return values[0] if values else None

    def evaluate_all(self, item: XMLElement) -> list[str]:
        """Return every value the path selects (used by set-valued predicates)."""
        return evaluate_path_values(item, self.path)

    def to_text(self) -> str:
        return self.path


_OPS = {"=", "!=", "<", "<=", ">", ">=", "contains"}


@dataclass(frozen=True, eq=False)
class Comparison(Expression):
    """A binary comparison between two scalar expressions.

    Numeric comparison is attempted first; when either side does not parse
    as a number the comparison falls back to string semantics, matching the
    loosely typed XML data model.  The ``contains`` operator provides the
    IR-style substring matching the paper contrasts against.
    """

    left: Expression
    op: str
    right: Expression

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise PlanError(f"unsupported comparison operator {self.op!r}")

    def evaluate(self, item: XMLElement) -> object:
        left = self.left.evaluate(item)
        right = self.right.evaluate(item)
        if left is None or right is None:
            return False
        if self.op == "contains":
            return str(right).lower() in str(left).lower()
        try:
            left_value: object = float(left)  # type: ignore[arg-type]
            right_value: object = float(right)  # type: ignore[arg-type]
        except (TypeError, ValueError):
            left_value, right_value = str(left), str(right)
        if self.op == "=":
            return left_value == right_value
        if self.op == "!=":
            return left_value != right_value
        if self.op == "<":
            return left_value < right_value  # type: ignore[operator]
        if self.op == "<=":
            return left_value <= right_value  # type: ignore[operator]
        if self.op == ">":
            return left_value > right_value  # type: ignore[operator]
        return left_value >= right_value  # type: ignore[operator]

    def to_text(self) -> str:
        return f"{self.left.to_text()} {self.op} {self.right.to_text()}"


@dataclass(frozen=True, eq=False)
class And(Expression):
    """Logical conjunction of predicates."""

    operands: tuple[Expression, ...]

    def __init__(self, *operands: Expression) -> None:
        object.__setattr__(self, "operands", tuple(operands))
        if len(self.operands) < 2:
            raise PlanError("And needs at least two operands")

    def evaluate(self, item: XMLElement) -> object:
        return all(operand.matches(item) for operand in self.operands)

    def to_text(self) -> str:
        return " and ".join(f"({operand.to_text()})" for operand in self.operands)


@dataclass(frozen=True, eq=False)
class Or(Expression):
    """Logical disjunction of predicates."""

    operands: tuple[Expression, ...]

    def __init__(self, *operands: Expression) -> None:
        object.__setattr__(self, "operands", tuple(operands))
        if len(self.operands) < 2:
            raise PlanError("Or needs at least two operands")

    def evaluate(self, item: XMLElement) -> object:
        return any(operand.matches(item) for operand in self.operands)

    def to_text(self) -> str:
        return " or ".join(f"({operand.to_text()})" for operand in self.operands)


@dataclass(frozen=True, eq=False)
class Not(Expression):
    """Logical negation of a predicate."""

    operand: Expression

    def evaluate(self, item: XMLElement) -> object:
        return not self.operand.matches(item)

    def to_text(self) -> str:
        return f"not ({self.operand.to_text()})"


# --------------------------------------------------------------------------- #
# Parsing of the compact textual predicate form
# --------------------------------------------------------------------------- #

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<lparen>\()|(?P<rparen>\))|(?P<op>!=|<=|>=|=|<|>)"
    r"|(?P<word>and|or|not|contains)(?![\w/])"
    r"|(?P<string>'[^']*')|(?P<number>-?\d+(?:\.\d+)?)"
    r"|(?P<path>[@\w*/][\w@/.\[\]'\"=<>!\-()*]*))"
)


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens: list[tuple[str, str]] = []
    position = 0
    while position < len(text):
        match = _TOKEN_RE.match(text, position)
        if not match or match.end() == position:
            raise PlanError(f"cannot tokenize predicate at: {text[position:]!r}")
        position = match.end()
        for kind in ("lparen", "rparen", "op", "word", "string", "number", "path"):
            value = match.group(kind)
            if value is not None:
                tokens.append((kind, value))
                break
    return tokens


class _PredicateParser:
    """Recursive-descent parser for the textual predicate grammar."""

    def __init__(self, tokens: Sequence[tuple[str, str]], source: str) -> None:
        self.tokens = list(tokens)
        self.position = 0
        self.source = source

    def parse(self) -> Expression:
        expression = self._parse_or()
        if self.position != len(self.tokens):
            raise PlanError(f"trailing tokens in predicate {self.source!r}")
        return expression

    def _peek(self) -> tuple[str, str] | None:
        if self.position < len(self.tokens):
            return self.tokens[self.position]
        return None

    def _take(self) -> tuple[str, str]:
        token = self._peek()
        if token is None:
            raise PlanError(f"unexpected end of predicate {self.source!r}")
        self.position += 1
        return token

    def _parse_or(self) -> Expression:
        operands = [self._parse_and()]
        while self._peek() == ("word", "or"):
            self._take()
            operands.append(self._parse_and())
        return operands[0] if len(operands) == 1 else Or(*operands)

    def _parse_and(self) -> Expression:
        operands = [self._parse_unary()]
        while self._peek() == ("word", "and"):
            self._take()
            operands.append(self._parse_unary())
        return operands[0] if len(operands) == 1 else And(*operands)

    def _parse_unary(self) -> Expression:
        token = self._peek()
        if token == ("word", "not"):
            self._take()
            return Not(self._parse_unary())
        if token is not None and token[0] == "lparen":
            self._take()
            inner = self._parse_or()
            closing = self._take()
            if closing[0] != "rparen":
                raise PlanError(f"missing ')' in predicate {self.source!r}")
            return inner
        return self._parse_comparison()

    def _parse_comparison(self) -> Expression:
        left = self._parse_operand()
        token = self._peek()
        if token is None or token[0] not in ("op", "word") or (
            token[0] == "word" and token[1] != "contains"
        ):
            raise PlanError(f"expected comparison operator in predicate {self.source!r}")
        op = self._take()[1]
        right = self._parse_operand()
        return Comparison(left, op, right)

    def _parse_operand(self) -> Expression:
        kind, value = self._take()
        if kind == "string":
            return Literal(value[1:-1])
        if kind == "number":
            number = float(value)
            return Literal(int(number) if number.is_integer() else number)
        if kind == "path":
            return PathRef(value)
        raise PlanError(f"unexpected token {value!r} in predicate {self.source!r}")


@lru_cache(maxsize=4096)
def _parse_predicate_cached(stripped: str) -> Expression:
    return _PredicateParser(_tokenize(stripped), stripped).parse()


def parse_predicate(text: str) -> Expression:
    """Parse the compact textual form back into an :class:`Expression`.

    Expression nodes are immutable (frozen dataclasses), so identical
    predicate texts — which recur at every hop of every plan carrying the
    same ``<select>`` — share one memoized AST instead of re-running the
    tokenizer.
    """
    stripped = text.strip()
    if not stripped:
        raise PlanError("empty predicate")
    return _parse_predicate_cached(stripped)
