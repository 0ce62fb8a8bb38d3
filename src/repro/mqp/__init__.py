"""Mutant query plans: the paper's core contribution (plan + mutation pipeline)."""

from .plan import MutantQueryPlan, QueryPreferences
from .policy import PolicyDecision, PolicyManager
from .processor import (
    PARTIAL_REASONS,
    MQPProcessor,
    Piece,
    ProcessingAction,
    ProcessingResult,
    RetryPolicy,
)
from .provenance import ProvenanceAction, ProvenanceLog, ProvenanceRecord

__all__ = [
    "MutantQueryPlan",
    "QueryPreferences",
    "ProvenanceLog",
    "ProvenanceRecord",
    "ProvenanceAction",
    "PolicyManager",
    "PolicyDecision",
    "MQPProcessor",
    "ProcessingAction",
    "ProcessingResult",
    "Piece",
    "PARTIAL_REASONS",
    "RetryPolicy",
]
