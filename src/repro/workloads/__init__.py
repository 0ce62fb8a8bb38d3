"""Synthetic workloads: garage sale, gene expression, CD shopping, query generators."""

from .cds import CDSeller, CDWorkload, CDWorkloadConfig, FORSALE_URN, TRACKLIST_URN
from .distributions import make_rng, zipf_choice, zipf_weights
from .garage_sale import GarageSaleConfig, GarageSaleWorkload, SellerData
from .gene_expression import GeneExpressionConfig, GeneExpressionWorkload, Repository
from .queries import QuerySpec, QueryWorkload, item_cell, query_plan_for

__all__ = [
    "make_rng",
    "zipf_weights",
    "zipf_choice",
    "GarageSaleConfig",
    "GarageSaleWorkload",
    "SellerData",
    "GeneExpressionConfig",
    "GeneExpressionWorkload",
    "Repository",
    "CDWorkloadConfig",
    "CDWorkload",
    "CDSeller",
    "FORSALE_URN",
    "TRACKLIST_URN",
    "QuerySpec",
    "QueryWorkload",
    "item_cell",
    "query_plan_for",
]
