"""Multi-hierarchic namespaces: hierarchies, interest areas, URNs (paper §3)."""

from .builtin import (
    cell_type_hierarchy,
    garage_sale_namespace,
    gene_expression_namespace,
    location_hierarchy,
    merchandise_hierarchy,
    organism_hierarchy,
)
from .hierarchy import TOP, CategoryPath, Hierarchy
from .interest import InterestArea, InterestCell, MultiHierarchicNamespace
from .urn import (
    INTEREST_AREA_NAMESPACE,
    InterestAreaURN,
    NamedURN,
    URN,
    decode_interest_area,
    encode_interest_area,
    parse_urn,
    parse_urn_cached,
)

__all__ = [
    "CategoryPath",
    "TOP",
    "Hierarchy",
    "InterestCell",
    "InterestArea",
    "MultiHierarchicNamespace",
    "URN",
    "NamedURN",
    "InterestAreaURN",
    "parse_urn",
    "parse_urn_cached",
    "encode_interest_area",
    "decode_interest_area",
    "INTEREST_AREA_NAMESPACE",
    "location_hierarchy",
    "merchandise_hierarchy",
    "garage_sale_namespace",
    "organism_hierarchy",
    "cell_type_hierarchy",
    "gene_expression_namespace",
]
