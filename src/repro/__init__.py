"""Reproduction of *Distributed Query Processing and Catalogs for Peer-to-Peer
Systems* (Papadimos, Maier, Tufte — CIDR 2003).

The package implements the paper's two core ideas and every substrate they
need:

* **Mutant query plans** (:mod:`repro.mqp`, :mod:`repro.algebra`,
  :mod:`repro.engine`, :mod:`repro.optimizer`) — XML-serialized algebraic
  plans that travel between peers, being resolved, reduced and re-optimized
  at every hop with purely local knowledge.
* **Multi-hierarchic namespaces and distributed catalogs**
  (:mod:`repro.namespace`, :mod:`repro.catalog`, :mod:`repro.peers`) —
  interest areas describe served data, drive query routing, and, through
  intensional statements, let peers reason about completeness, currency and
  latency tradeoffs (:mod:`repro.mqp.policy` picks a binding alternative
  under a query's §4.3 preference).

Everything runs on a deterministic discrete-event network simulator
(:mod:`repro.network`); baselines (:mod:`repro.routing`,
:mod:`repro.distributed`), synthetic workloads (:mod:`repro.workloads`) and
an experiment harness (:mod:`repro.harness`) support the benchmark suite.

**The supported way to use the system is** :mod:`repro.api` — clusters,
per-peer sessions, fluent query building, and future-like result handles
(see ``docs/api.md``).  The most-used names are re-exported here:

    from repro import Cluster
"""

from . import (
    algebra,
    api,
    catalog,
    distributed,
    engine,
    harness,
    mqp,
    namespace,
    network,
    optimizer,
    peers,
    routing,
    workloads,
    xmlmodel,
)
from .api import Cluster, DeltaRecord, QueryBuilder, QueryHandle, Session, Subscription
from .errors import PeerOffline, QueryCancelled, QueryTimeout, ReproError

__version__ = "1.5.0"

__all__ = [
    "__version__",
    # The public client API (the supported surface; see docs/api.md).
    "api",
    "Cluster",
    "Session",
    "QueryBuilder",
    "QueryHandle",
    "Subscription",
    "DeltaRecord",
    # The error roots callers are expected to catch.
    "ReproError",
    "QueryTimeout",
    "PeerOffline",
    "QueryCancelled",
    # Subsystem packages, paper-layer first.
    "xmlmodel",
    "namespace",
    "algebra",
    "engine",
    "optimizer",
    "catalog",
    "mqp",
    "network",
    "peers",
    "routing",
    "distributed",
    "workloads",
    "harness",
]
