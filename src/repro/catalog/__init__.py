"""Distributed catalogs: entries, intensional statements, binding, the area index."""

from .answercache import AnswerCache
from .binding import Binder, Binding, BindingAlternative, BoundSource
from .catalog import Catalog
from .entries import (
    CollectionRef,
    NamedResourceEntry,
    ServerEntry,
    ServerRole,
    canonical_address,
)
from .index import AreaIndex
from .intensional import CatalogLevel, IntensionalStatement, Relation, ServerHolding
from .matcher import SubscriptionMatcher, SubscriptionShape, subscribable_shape

__all__ = [
    "AnswerCache",
    "Catalog",
    "AreaIndex",
    "SubscriptionMatcher",
    "SubscriptionShape",
    "subscribable_shape",
    "canonical_address",
    "ServerRole",
    "ServerEntry",
    "CollectionRef",
    "NamedResourceEntry",
    "CatalogLevel",
    "Relation",
    "ServerHolding",
    "IntensionalStatement",
    "Binder",
    "Binding",
    "BindingAlternative",
    "BoundSource",
]
