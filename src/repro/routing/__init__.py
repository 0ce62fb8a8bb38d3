"""Query routing strategies: catalog-driven MQP routing plus the baselines.

The paper's own routing is implemented by the catalog / peer machinery
(:mod:`repro.catalog`, :mod:`repro.peers`); this package holds the
comparison baselines: Gnutella-style broadcast, Napster-style central
indexing, and Crespo & Garcia-Molina routing indices, each a
:class:`BaselinePeer` that differs only in how a query travels.
"""

from .baseline import BaselinePeer
from .gnutella import GnutellaHit, GnutellaPeer, GnutellaQuery
from .napster import NapsterIndexServer, NapsterPeer
from .routing_index import RoutingIndexPeer

__all__ = [
    "BaselinePeer",
    "GnutellaPeer",
    "GnutellaQuery",
    "GnutellaHit",
    "NapsterIndexServer",
    "NapsterPeer",
    "RoutingIndexPeer",
]
