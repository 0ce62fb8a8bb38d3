"""The per-server optimizer (the "Optimizer" box of Figure 2).

Every server that receives a mutant query plan re-optimizes it with purely
local knowledge: the standard algebraic rules, then the availability-aware
MQP rules, and finally cost estimation of the locally-evaluable sub-plans
so the policy manager can decide what to evaluate and what to defer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..algebra.operators import PlanNode
from ..algebra.plan import QueryPlan
from ..engine.cost import CostEstimate, CostModel
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
    input plan object itself when ``fired_rules`` is empty, else a copy."""

    plan: QueryPlan
    rewrites: RewriteResult
    evaluable: list[PlanNode] = field(default_factory=list)
    estimates: dict[int, CostEstimate] = field(default_factory=dict)
    deferrable: list[PlanNode] = field(default_factory=list)

    def estimate_for(self, node: PlanNode) -> CostEstimate | None:
        """Return the cost estimate computed for an evaluable sub-plan."""
        return self.estimates.get(node.node_id)

    @property
    def fired_rules(self) -> list[str]:
        """Names of rewrite rules that fired, in order."""
        return self.rewrites.fired_rules


class Optimizer:
    """Rewrites a plan and costs its locally evaluable sub-plans.

    Parameters
    ----------
    cost_model:
        Model used for estimates and for the absorption / deferment tests.
    use_mqp_rules:
        Disable to get a "classical only" optimizer — used by the ablation
        benchmark to quantify what the MQP-specific rewrites buy.
    """

    def __init__(self, cost_model: CostModel | None = None, use_mqp_rules: bool = True) -> None:
        self.cost_model = cost_model or CostModel()
        self.use_mqp_rules = use_mqp_rules

    def optimize(
        self,
        plan: QueryPlan,
        available: AvailabilityCheck | None = None,
    ) -> OptimizationOutcome:
        """Optimize ``plan`` given which leaves are locally available.

        The input plan is not modified, and copied only on write: when no
        rule fires ``outcome.plan`` *is* the input object (mutate one,
        mutate both), otherwise a rewritten copy.  The outcome also carries
        that plan's evaluable sub-plans, their cost estimates and the
        subset the deferment heuristic recommends skipping.
        """
        availability: AvailabilityCheck = available or (lambda leaf: False)

        rules = standard_rules()
        if self.use_mqp_rules:
            rules = rules + mqp_rules(availability, self.cost_model)
        engine = RewriteEngine(rules)
        rewritten = engine.rewrite_plan(plan)

        evaluable = rewritten.plan.evaluable_subplans(availability)
        estimates = {node.node_id: self.cost_model.estimate(node) for node in evaluable}
        # Deferment (see ``deferrable_nodes``), off the list just computed.
        deferred = [node for node in evaluable if not self.cost_model.reduces_plan_size(node)]

        return OptimizationOutcome(
            plan=rewritten.plan,
            rewrites=rewritten,
            evaluable=evaluable,
            estimates=estimates,
            deferrable=deferred,
        )
