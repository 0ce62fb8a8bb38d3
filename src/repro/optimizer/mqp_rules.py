"""MQP-specific optimizations: consolidation, absorption, deferment (paper §2, §6).

Mutant query plans introduce optimization opportunities a pipelined
distributed executor would never consider, because each server must
*materialize* its partial result and ship the whole mutated plan onward —
"their size matters":

Consolidation
    Rewrite the plan so that locally-evaluable sub-plans come together.  The
    concrete rule implemented here distributes a join over a union
    (``(A ∪ X) ⋈ B → (A ⋈ B) ∪ (X ⋈ B)``), which lets a server that holds
    ``A`` and ``B`` evaluate the left branch even though ``X`` lives
    elsewhere — exactly the paper's example.

Absorption
    Plan rewritings that "might not make sense in pipelined query execution
    but reduce the size of the partial result".  We implement the
    right-outer variant: a join ``A ⋈ X`` with only ``A`` local can be
    partially pre-joined against a local ``B`` the plan will need later,
    when the statistics say ``|A ⋈ B| ≤ |A|``.

Deferment
    "Avoiding local execution of operators that increase the partial result
    size unjustifiably."  Deferment is a policy decision rather than a
    rewrite: :meth:`Optimizer.optimize <repro.optimizer.planner.Optimizer.optimize>`
    lists the evaluable sub-plans that would grow the plan as
    ``OptimizationOutcome.deferrable``, and the policy manager declines them.
"""

from __future__ import annotations

from typing import Callable

from ..algebra.operators import Join, LeafNode, PlanNode, Union, VerbatimData
from ..engine.cost import CostModel
from .rewrite import RewriteRule

__all__ = [
    "AvailabilityCheck",
    "consolidation_rule",
    "absorption_rule",
    "mqp_rules",
]

AvailabilityCheck = Callable[[LeafNode], bool]
"""Predicate deciding whether a URL/URN leaf is locally available."""


def _leaf_available(node: PlanNode, available: AvailabilityCheck) -> bool:
    if isinstance(node, VerbatimData):
        return True
    if isinstance(node, LeafNode):
        return available(node)
    return all(_leaf_available(child, available) for child in node.children)


def consolidation_rule(available: AvailabilityCheck) -> RewriteRule:
    """Distribute a join over a union so available inputs come together.

    ``(A ∪ X) ⋈ B → (A ⋈ B) ∪ (X ⋈ B)`` fires only when ``B`` is locally
    available and at least one union branch is available while another is
    not — otherwise the rewrite would only enlarge the plan.
    """

    def apply(node: PlanNode) -> PlanNode | None:
        if not isinstance(node, Join) or node.join_type != "inner":
            return None
        left, right = node.left, node.right
        union_side, other_side, union_on_left = None, None, True
        if isinstance(left, Union):
            union_side, other_side, union_on_left = left, right, True
        elif isinstance(right, Union):
            union_side, other_side, union_on_left = right, left, False
        if union_side is None or not _leaf_available(other_side, available):
            return None
        availabilities = [_leaf_available(branch, available) for branch in union_side.children]
        if all(availabilities) or not any(availabilities):
            return None
        joined_branches = []
        for branch in union_side.children:
            if union_on_left:
                joined_branches.append(
                    Join(
                        branch.copy(),
                        other_side.copy(),
                        node.left_path,
                        node.right_path,
                        node.join_type,
                        node.output_tag,
                    )
                )
            else:
                joined_branches.append(
                    Join(
                        other_side.copy(),
                        branch.copy(),
                        node.left_path,
                        node.right_path,
                        node.join_type,
                        node.output_tag,
                    )
                )
        return Union(joined_branches)

    return RewriteRule(
        "consolidation",
        apply,
        "(A union X) join B -> (A join B) union (X join B) when B is local",
        Join,
    )


def absorption_rule(available: AvailabilityCheck, cost_model: CostModel | None = None) -> RewriteRule:
    """Pre-join a local pair inside a three-way join when it shrinks the result.

    For ``(A ⋈ X) ⋈ B`` with ``A`` and ``B`` local but ``X`` remote, rewrite
    to ``(A ⋈ B) ⋈ X`` when the estimated ``|A ⋈ B|`` does not exceed
    ``|A|``; shipping the pre-joined pair is then no larger than shipping
    ``A`` itself, and the remote server has less work to do.

    Safety: re-associating the joins is only valid when the outer join's
    key is drawn from ``A`` itself (and not from values ``X`` would have
    contributed).  Because join keys are path expressions, the rule only
    fires when ``A`` is already materialized verbatim data and at least one
    of its items yields a value for the outer join's left path.
    """

    model = cost_model or CostModel()

    def apply(node: PlanNode) -> PlanNode | None:
        if not isinstance(node, Join) or node.join_type != "inner":
            return None
        inner = node.left
        outer_b = node.right
        if not isinstance(inner, Join) or inner.join_type != "inner":
            return None
        if not _leaf_available(outer_b, available):
            return None
        a_side, x_side = inner.left, inner.right
        if not isinstance(a_side, VerbatimData) or _leaf_available(x_side, available):
            return None
        from ..xmlmodel import evaluate_path_values

        if not any(evaluate_path_values(item, node.left_path) for item in a_side.items):
            return None
        a_estimate = model.estimate(a_side)
        pre_join = Join(
            a_side.copy(),
            outer_b.copy(),
            node.left_path,
            node.right_path,
            "inner",
            node.output_tag,
        )
        pre_estimate = model.estimate(pre_join)
        if pre_estimate.cardinality > a_estimate.cardinality:
            return None
        return Join(
            pre_join,
            x_side.copy(),
            inner.left_path,
            inner.right_path,
            inner.join_type,
            inner.output_tag,
        )

    return RewriteRule(
        "absorption",
        apply,
        "(A join X) join B -> (A join B) join X when |A join B| <= |A| and A, B are local",
        Join,
    )


def mqp_rules(available: AvailabilityCheck, cost_model: CostModel | None = None) -> list[RewriteRule]:
    """The availability-aware rule set used by the MQP optimizer."""
    return [consolidation_rule(available), absorption_rule(available, cost_model)]
