"""The per-server optimizer (the "Optimizer" box of Figure 2).

Every server that receives a mutant query plan re-optimizes it with purely
local knowledge: the standard algebraic rules, then the availability-aware
MQP rules, and finally the deferment test on the locally-evaluable
sub-plans so the policy manager can decide what to evaluate and what to
defer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..algebra.operators import PlanNode
from ..algebra.plan import QueryPlan
from ..engine.cost import CostModel
from .mqp_rules import AvailabilityCheck, mqp_rules
from .rewrite import RewriteEngine, RewriteResult
from .rules import standard_rules

__all__ = ["OptimizationOutcome", "Optimizer", "STANDARD_REWRITES"]

STANDARD_REWRITES = RewriteEngine(standard_rules())
"""The availability-independent rules as one engine every server shares.

A plan with every leaf at hand can fire no availability-aware rule, so it
needs only these (``MQPProcessor._reduce_leaf_hop``).  The engine holds the
rules and its operator dispatch table, nothing per plan or per peer, so one
process-wide instance keeps that table warm at no cost per peer.
"""


@dataclass
class OptimizationOutcome:
    """The optimizer's output handed to the policy manager; ``plan`` is the
    input plan object itself when ``rewrites.fired_rules`` is empty, else a copy."""

    plan: QueryPlan
    rewrites: RewriteResult
    evaluable: list[PlanNode] = field(default_factory=list)
    deferrable: list[PlanNode] = field(default_factory=list)


class Optimizer:
    """Rewrites a plan and picks out its locally evaluable sub-plans.

    Parameters
    ----------
    cost_model:
        Model used for the absorption / deferment tests.
    """

    def __init__(self, cost_model: CostModel | None = None) -> None:
        self.cost_model = cost_model or CostModel()

    def optimize(
        self,
        plan: QueryPlan,
        available: AvailabilityCheck | None = None,
    ) -> OptimizationOutcome:
        """Optimize ``plan`` given which leaves are locally available.

        The input plan is not modified, and copied only on write: when no
        rule fires ``outcome.plan`` *is* the input object (mutate one,
        mutate both), otherwise a rewritten copy.  The outcome also carries
        that plan's evaluable sub-plans and the subset the deferment
        heuristic recommends skipping.
        """
        availability: AvailabilityCheck = available or (lambda leaf: False)

        engine = RewriteEngine(standard_rules() + mqp_rules(availability, self.cost_model))
        rewritten = engine.rewrite_plan(plan)

        evaluable = rewritten.plan.evaluable_subplans(availability)
        # Deferment: an evaluable sub-plan whose result would grow the plan
        # is left for a server that holds more of what surrounds it.
        deferred = [node for node in evaluable if not self.cost_model.reduces_plan_size(node)]

        return OptimizationOutcome(
            plan=rewritten.plan,
            rewrites=rewritten,
            evaluable=evaluable,
            deferrable=deferred,
        )
