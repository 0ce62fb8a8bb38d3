"""The policy manager (Figure 2): what to evaluate here, where to send the rest.

"A policy manager component decides which of those sub-plans to evaluate,
and forwards them for execution to the query engine" — and afterwards the
server "sends it to some other server that can continue the plan's
evaluation".  The decisions encoded here are deliberately simple and
heuristic, as the paper's prototype was; every decision point is a method
so benchmarks can subclass and ablate them.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..algebra.operators import PlanNode, Union
from ..catalog.binding import Binding, BindingAlternative
from ..optimizer.planner import OptimizationOutcome
from .plan import QueryPreferences

__all__ = ["PolicyDecision", "PolicyManager"]


@dataclass
class PolicyDecision:
    """Which sub-plans to evaluate locally (after deferment)."""

    evaluate: list[PlanNode]
    deferred: list[PlanNode]


class PolicyManager:
    """Default policy: evaluate everything that shrinks the plan.

    Parameters
    ----------
    enable_deferment:
        When off, every locally evaluable sub-plan is evaluated even if its
        result is estimated to be larger than its inputs.  The optimization
        benchmarks use this switch for the deferment ablation.
    """

    def __init__(self, enable_deferment: bool = True) -> None:
        self.enable_deferment = enable_deferment

    # -- what to evaluate ---------------------------------------------------------- #

    def choose_subplans(self, outcome: OptimizationOutcome) -> PolicyDecision:
        """Split the optimizer's evaluable sub-plans into evaluate-now vs defer.

        Deferment leaves a result-growing operator for a server that holds
        more of the surrounding plan, so it only makes sense for a sub-plan
        that will ride onward *inside* a plan.  The plan's entire body never
        does (every leaf is here: no server knows more, and a deferred body
        just comes home stuck without its local answers), nor does a direct
        branch of a union body (its result is shipped to the target from
        here, see ``MQPProcessor._scatter``).
        """
        if not self.enable_deferment:
            return PolicyDecision(list(outcome.evaluable), [])
        body = outcome.plan.body
        leaving = {id(body)}
        if isinstance(body, Union):
            leaving.update(id(branch) for branch in body.children)
        deferred_ids = {id(node) for node in outcome.deferrable} - leaving
        evaluate = [node for node in outcome.evaluable if id(node) not in deferred_ids]
        deferred = [node for node in outcome.evaluable if id(node) in deferred_ids]
        return PolicyDecision(evaluate, deferred)

    # -- which binding alternative to use ------------------------------------------- #

    def choose_alternative(
        self, binding: Binding, preferences: QueryPreferences
    ) -> BindingAlternative:
        """Pick a binding branch under the §4.3 preferences.

        ``complete`` keeps the default (union of everything) branch;
        ``current`` picks the branch with the smallest staleness bound;
        ``fast`` picks the branch contacting the fewest servers.
        """
        if preferences.prefer == "fast":
            return binding.fewest_servers()
        if preferences.prefer == "current":
            return binding.most_current()
        return binding.default

    # -- where to route next ----------------------------------------------------------- #

    def choose_next_hop(
        self,
        candidates: list[str],
        visited: list[str],
        revisitable: list[str] | tuple[str, ...] = (),
    ) -> str | None:
        """Pick the next server, avoiding ones the plan already visited.

        Candidates are assumed to be ordered from most to least promising
        (the processor puts URN-routing servers first, data holders last).
        A server in ``revisitable`` (it holds data the plan still needs) may
        be visited again — the plan may have accumulated the inputs that
        were missing last time (Figure 4's round trip).  When nothing
        remains, ``None`` tells the peer to deliver a partial answer rather
        than bounce the plan between the same servers forever; the
        processor's hop limit bounds pathological revisit loops.
        """
        for candidate in candidates:
            if candidate not in visited:
                return candidate
        for candidate in revisitable:
            return candidate
        return None
