"""The supported client API: clusters, sessions, fluent queries, futures.

This package is the public surface of the reproduction — the one import a
program needs to stand up a peer-to-peer network, publish data into its
distributed catalog, and ask questions with mutant query plans:

    from repro.api import Cluster

    with Cluster(namespace=ns, transport="sim") as cluster:
        seller = cluster.base_server("seller:9020", area)
        seller.publish("cds", items)
        cluster.meta_index("meta:9020")
        researcher = cluster.client("client:9020")
        cluster.connect()

        handle = researcher.query().area(area).where("price < 10").submit()
        for item in handle.result(timeout=5_000).items:
            ...

Four classes carry the model:

* :class:`Cluster` — context-managed owner of the network, its transport
  backend (``sim`` or ``aio``), topology wiring, and churn schedules;
* :class:`Session` — a per-peer handle carrying the data-lifecycle verbs
  (``publish`` / ``update`` / ``retract`` / ``announce`` / ``register``)
  and the query entry points (``query(...)``, ``subscribe(...)``);
* :class:`QueryBuilder` — fluent construction compiling to the exact
  :class:`~repro.algebra.plan.QueryPlan` trees the MQP machinery consumes
  (with a raw-plan escape hatch);
* :class:`QueryHandle` — a future-like result: ``result(timeout=...)``,
  ``result(deadline=...)`` (graceful degradation to a
  :class:`DegradedResult` carrying the best partial answer, a completeness
  annotation, and per-hop delivery-failure provenance),
  ``partial_results()``, ``done()``, iteration over streamed partials,
  per-item streaming via ``items()`` (chunk-by-chunk when
  ``repro.perf.flags.streaming_results`` is on), and ``cancel()`` —
  raising :class:`~repro.errors.QueryTimeout` /
  :class:`~repro.errors.PeerOffline` /
  :class:`~repro.errors.QueryCancelled` instead of ever returning ``None``.

A query can also *stand* instead of answering once:
``session.subscribe(...)`` (or the
``subscribe()`` terminals on :class:`QueryBuilder` / :class:`QueryHandle`)
returns a :class:`Subscription` whose ``deltas()`` feed the mutation verbs
``Session.update`` / ``Session.retract`` drive — see
``docs/subscriptions.md``.

Everything here is transport-agnostic: the same program produces the same
logical outcome whether messages travel by reference on the deterministic
simulator or over real localhost TCP sockets.  See ``docs/api.md``.
"""

from ..errors import APIError, PeerOffline, QueryCancelled, QueryTimeout
from ..mqp import QueryPreferences
from ..peers import DeltaRecord, QueryResult
from .cluster import Cluster
from .handle import DegradedResult, DeliveryFailure, QueryHandle
from .query import QueryBuilder
from .session import Session
from .subscription import AuthorityConflict, Subscription

__all__ = [
    "Cluster",
    "Session",
    "QueryBuilder",
    "QueryHandle",
    "QueryResult",
    "DegradedResult",
    "DeliveryFailure",
    "Subscription",
    "DeltaRecord",
    "AuthorityConflict",
    "QueryPreferences",
    "APIError",
    "QueryTimeout",
    "PeerOffline",
    "QueryCancelled",
]
