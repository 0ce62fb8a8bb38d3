"""Per-server plan optimization: classical rules plus MQP-specific rewrites."""

from .mqp_rules import (
    AvailabilityCheck,
    absorption_rule,
    consolidation_rule,
    mqp_rules,
)
from .planner import STANDARD_REWRITES, OptimizationOutcome, Optimizer
from .rewrite import RewriteEngine, RewriteResult, RewriteRule
from .rules import (
    collapse_singleton_union,
    merge_adjacent_selects,
    merge_orderby_into_topn,
    push_select_through_or,
    push_select_through_union,
    standard_rules,
)

__all__ = [
    "RewriteRule",
    "RewriteResult",
    "RewriteEngine",
    "standard_rules",
    "push_select_through_union",
    "push_select_through_or",
    "merge_adjacent_selects",
    "collapse_singleton_union",
    "merge_orderby_into_topn",
    "AvailabilityCheck",
    "consolidation_rule",
    "absorption_rule",
    "mqp_rules",
    "Optimizer",
    "OptimizationOutcome",
    "STANDARD_REWRITES",
]
