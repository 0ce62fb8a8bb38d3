"""Rule-based rewrite framework for query plans.

A rewrite rule inspects one plan node and either returns a replacement
subtree or ``None``.  The :class:`RewriteEngine` applies a list of rules to
every node of a plan repeatedly until a fixpoint (or an iteration cap) is
reached.  Both the classical relational rules and the MQP-specific rules of
the paper (consolidation, absorption, deferment) are expressed in this
framework, which keeps each rule small and independently testable.  A rule
names the operator it can fire on and is offered only nodes of that type.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..algebra.operators import PlanNode
from ..algebra.plan import QueryPlan

__all__ = ["RewriteRule", "RewriteResult", "RewriteEngine"]


@dataclass
class RewriteRule:
    """A named transformation of a single plan node.

    ``apply`` returns the replacement node (a new subtree) when the rule
    fires, or ``None`` when it does not apply.  Rules must not mutate the
    node they are given; the engine performs the substitution.  ``operator``
    is the node type the rule can fire on (default: any).
    """

    name: str
    apply: Callable[[PlanNode], PlanNode | None]
    description: str = ""
    operator: type[PlanNode] = PlanNode

    def __call__(self, node: PlanNode) -> PlanNode | None:
        return self.apply(node)


@dataclass
class RewriteResult:
    """Outcome of running the rewrite engine over one plan."""

    plan: QueryPlan
    applications: list[tuple[str, str]] = field(default_factory=list)

    @property
    def fired_rules(self) -> list[str]:
        """Names of the rules that fired, in application order."""
        return [name for name, _ in self.applications]

    def count(self, rule_name: str) -> int:
        """How many times the named rule fired."""
        return sum(1 for name, _ in self.applications if name == rule_name)


class RewriteEngine:
    """Applies rewrite rules to plans until fixpoint."""

    def __init__(self, rules: Sequence[RewriteRule], max_passes: int = 10) -> None:
        self.rules = list(rules)
        self.max_passes = max_passes
        self._offered: dict[type[PlanNode], list[RewriteRule]] = {}  # node type -> its rules

    def rewrite_plan(self, plan: QueryPlan) -> RewriteResult:
        """Rewrite ``plan`` to fixpoint, copy-on-write; the input is never modified.

        The rules first run against the input itself (they may not mutate
        what they are given): if none fires, ``result.plan is plan``;
        otherwise the plan is copied once and rewritten on the copy.
        """
        result = RewriteResult(plan)
        for _ in range(self.max_passes):
            match = self._first_match(result.plan)
            if match is None:
                break
            if result.plan is plan:
                # A replacement may share nodes with what it replaces, so
                # the match is taken again on the copy.
                result.plan = plan.copy()
                match = self._first_match(result.plan)
                assert match is not None
            node, rule, replacement = match
            result.plan.replace_node(node, replacement)
            result.applications.append((rule.name, node.operator))
            result.plan.validate()
        return result

    def _first_match(self, plan: QueryPlan) -> tuple[PlanNode, RewriteRule, PlanNode] | None:
        """The first (node, rule, replacement) that fires, in pre-order; mutates nothing."""
        offered = self._offered
        for node in plan.iter_nodes():
            kind = type(node)
            if kind not in offered:
                offered[kind] = [rule for rule in self.rules if issubclass(kind, rule.operator)]
            for rule in offered[kind]:
                replacement = rule.apply(node)
                if replacement is not None and replacement is not node:
                    return node, rule, replacement
        return None
