"""Cost and cardinality estimation for plan nodes (the Optimizer box of Figure 2).

The MQP processor "optimizes [locally evaluable sub-plans] and estimates
their costs"; the policy manager then decides which ones to evaluate.  The
model here is deliberately classical: per-operator cardinality estimates
derived from input cardinalities and default selectivities (refined by
collected statistics when available), plus a per-item processing cost and a
per-byte shipping cost used when comparing "evaluate here" against
"forward the plan".
"""

from __future__ import annotations

from dataclasses import dataclass

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
from .statistics import CollectionStatistics

__all__ = ["CostEstimate", "CostModel", "DEFAULT_SELECT_SELECTIVITY", "DEFAULT_JOIN_SELECTIVITY"]

DEFAULT_SELECT_SELECTIVITY = 0.25
DEFAULT_JOIN_SELECTIVITY = 0.05
_PER_ITEM_COST = 1.0
_PER_BYTE_COST = 0.001
_DEFAULT_LEAF_CARDINALITY = 100.0
_DEFAULT_ITEM_BYTES = 200.0


@dataclass(frozen=True)
class CostEstimate:
    """Estimated output cardinality, output bytes, and processing cost of a node."""

    cardinality: float
    bytes: float
    cost: float


class CostModel:
    """Estimates cardinalities and costs bottom-up over a plan tree."""

    def __init__(self, join_selectivity: float = DEFAULT_JOIN_SELECTIVITY) -> None:
        self.join_selectivity = join_selectivity

    # -- leaves ---------------------------------------------------------------- #

    def _leaf_estimate(self, node: PlanNode) -> CostEstimate:
        if isinstance(node, VerbatimData):
            cardinality = float(node.cardinality())
            size = float(node.serialized_size())
            return CostEstimate(cardinality, size, 0.0)
        # URL / URN leaves: use whatever statistics have been annotated onto
        # the node (paper §5.1), otherwise fall back to coarse defaults.
        stats = CollectionStatistics.from_annotations(node.annotations)
        if stats is not None:
            return CostEstimate(float(stats.cardinality), float(stats.bytes), 0.0)
        return CostEstimate(
            _DEFAULT_LEAF_CARDINALITY,
            _DEFAULT_LEAF_CARDINALITY * _DEFAULT_ITEM_BYTES,
            0.0,
        )

    # -- recursive estimation ---------------------------------------------------- #

    def estimate(self, node: PlanNode) -> CostEstimate:
        """Return the cost estimate of the subtree rooted at ``node``."""
        if isinstance(node, (VerbatimData, URLRef, URNRef)):
            return self._leaf_estimate(node)

        child_estimates = [self.estimate(child) for child in node.children]
        child_cost = sum(estimate.cost for estimate in child_estimates)
        avg_item_bytes = self._average_item_bytes(child_estimates)

        if isinstance(node, Select):
            input_estimate = child_estimates[0]
            cardinality = input_estimate.cardinality * DEFAULT_SELECT_SELECTIVITY
            cost = child_cost + input_estimate.cardinality * _PER_ITEM_COST
        elif isinstance(node, Project):
            input_estimate = child_estimates[0]
            cardinality = input_estimate.cardinality
            avg_item_bytes = max(16.0, avg_item_bytes * 0.3)
            cost = child_cost + input_estimate.cardinality * _PER_ITEM_COST
        elif isinstance(node, Join):
            left, right = child_estimates
            cardinality = left.cardinality * right.cardinality * self.join_selectivity
            if node.join_type == "left_outer":
                cardinality = max(cardinality, left.cardinality)
            cost = child_cost + (left.cardinality + right.cardinality) * _PER_ITEM_COST
        elif isinstance(node, (Union,)):
            cardinality = sum(estimate.cardinality for estimate in child_estimates)
            cost = child_cost + cardinality * _PER_ITEM_COST * 0.1
        elif isinstance(node, ConjointOr):
            # Either branch suffices; assume the cheapest branch is chosen.
            best = min(child_estimates, key=lambda estimate: estimate.cost)
            cardinality = best.cardinality
            cost = best.cost
            avg_item_bytes = best.bytes / max(best.cardinality, 1.0)
        elif isinstance(node, Difference):
            left, right = child_estimates
            cardinality = max(0.0, left.cardinality - right.cardinality * 0.5)
            cost = child_cost + (left.cardinality + right.cardinality) * _PER_ITEM_COST
        elif isinstance(node, Aggregate):
            input_estimate = child_estimates[0]
            cardinality = 1.0 if node.group_path is None else max(1.0, input_estimate.cardinality * 0.1)
            avg_item_bytes = 64.0
            cost = child_cost + input_estimate.cardinality * _PER_ITEM_COST
        elif isinstance(node, OrderBy):
            input_estimate = child_estimates[0]
            cardinality = input_estimate.cardinality
            sort_factor = max(1.0, input_estimate.cardinality)
            cost = child_cost + sort_factor * _PER_ITEM_COST * 2.0
        elif isinstance(node, TopN):
            input_estimate = child_estimates[0]
            cardinality = min(float(node.limit), input_estimate.cardinality)
            cost = child_cost + input_estimate.cardinality * _PER_ITEM_COST
        elif isinstance(node, Display):
            input_estimate = child_estimates[0]
            cardinality = input_estimate.cardinality
            cost = child_cost
        else:
            cardinality = child_estimates[0].cardinality if child_estimates else 0.0
            cost = child_cost

        output_bytes = cardinality * avg_item_bytes
        cost += output_bytes * _PER_BYTE_COST
        return CostEstimate(cardinality, output_bytes, cost)

    def _average_item_bytes(self, child_estimates: list[CostEstimate]) -> float:
        total_items = sum(estimate.cardinality for estimate in child_estimates)
        total_bytes = sum(estimate.bytes for estimate in child_estimates)
        if total_items <= 0:
            return _DEFAULT_ITEM_BYTES
        return total_bytes / total_items

    # -- comparisons used by the policy manager ------------------------------------ #

    def reduces_plan_size(self, node: PlanNode) -> bool:
        """Heuristic: does evaluating ``node`` shrink what must be shipped?

        This is the *deferment* test of the MQP optimizations: operators
        whose estimated output is larger than their inputs (e.g. an
        exploding join) are better left for a later, better-informed server.
        """
        estimate = self.estimate(node)
        input_bytes = sum(self.estimate(child).bytes for child in node.children)
        return estimate.bytes <= input_bytes
