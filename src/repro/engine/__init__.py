"""Local XML query engine (the reproduction's NIAGARA substitute)."""

from .cost import CostEstimate, CostModel, DEFAULT_JOIN_SELECTIVITY, DEFAULT_SELECT_SELECTIVITY
from .evaluate import LeafResolver, QueryEngine
from .memo import EvaluationMemo
from .operators import BufferBudget
from .statistics import CollectionStatistics

__all__ = [
    "QueryEngine",
    "LeafResolver",
    "BufferBudget",
    "EvaluationMemo",
    "CostModel",
    "CostEstimate",
    "DEFAULT_SELECT_SELECTIVITY",
    "DEFAULT_JOIN_SELECTIVITY",
    "CollectionStatistics",
]
