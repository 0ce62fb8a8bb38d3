"""Distributed catalogs: entries, intensional statements, binding, routing caches."""

from .answercache import AnswerCache
from .binding import Binder, Binding, BindingAlternative, BoundSource
from .cache import CacheEntry, RoutingCache
from .catalog import Catalog
from .entries import (
    CollectionRef,
    NamedResourceEntry,
    ServerEntry,
    ServerRole,
    canonical_address,
)
from .index import CatalogIndex, CategoryTrie, StatementIndex
from .intensional import CatalogLevel, IntensionalStatement, Relation, ServerHolding
from .matcher import SubscriptionMatcher, SubscriptionShape, subscribable_shape

__all__ = [
    "AnswerCache",
    "Catalog",
    "CatalogIndex",
    "CategoryTrie",
    "StatementIndex",
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
    "RoutingCache",
    "CacheEntry",
]
