"""Clusters: one object that owns the network, transport, topology and churn.

Standing up a scenario used to mean hand-wiring a ``Network``, a transport
backend, role peers, catalog registration, overlay neighbour knowledge and
a churn schedule — in that order, in every harness and example.  A
:class:`Cluster` owns that composition:

    with Cluster(namespace=ns, transport="sim") as cluster:
        seller = cluster.base_server("seller:9020", area)
        seller.publish("cds", items)
        index = cluster.index_server("index-or:9020", state_area)
        meta = cluster.meta_index("meta:9020")
        client = cluster.client("client:9020")
        cluster.connect()                      # catalog registration + client seeding
        handle = client.query().area(area).where("price < 10").submit()
        print(handle.result().items)

The cluster is context-managed: leaving the ``with`` block closes the
transport (sockets, loops) exactly once, on every backend.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

from ..catalog import ServerRole
from ..errors import APIError
from ..namespace import InterestArea, MultiHierarchicNamespace
from ..network import (
    ChurnPlan,
    ChurnProfile,
    FaultPlan,
    LatencyModel,
    Network,
    NetworkNode,
    Topology,
    Transport,
    build_transport,
    schedule_churn,
)
from ..peers import (
    BaseServer,
    ClientPeer,
    IndexServer,
    MetaIndexServer,
    QueryPeer,
    register_offline,
    register_online,
    seed_with_meta_index,
)
from .session import Session

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from ..catalogtier import ShardMap
    from ..network import NetworkMetrics

__all__ = ["Cluster"]


class Cluster:
    """Context-managed owner of a network, its transport, and its wiring.

    ``faults`` and ``reliable`` configure the fabric every peer of this
    cluster shares: a :class:`~repro.network.faults.FaultPlan` to inject
    link faults, and whether query traffic is acknowledged and retransmitted
    (``reliable=True``) or sent fire-and-forget, as in the paper.  Two
    clusters in one process never see each other's choice.
    """

    def __init__(
        self,
        transport: "Transport | str | None" = None,
        *,
        namespace: MultiHierarchicNamespace | None = None,
        latency: LatencyModel | None = None,
        notify_unreachable: bool = False,
        unreachable_delay_ms: float = 5.0,
        topology: Topology | None = None,
        faults: FaultPlan | None = None,
        reliable: bool = False,
    ) -> None:
        if transport is None:
            transport = build_transport("sim")
        elif isinstance(transport, str):
            transport = build_transport(transport)
        self.network = Network(
            latency=latency,
            notify_unreachable=notify_unreachable,
            unreachable_delay_ms=unreachable_delay_ms,
            transport=transport,
            faults=faults,
            reliable=reliable,
        )
        self.namespace = namespace
        self.topology = topology
        self.churn_plans: list[ChurnPlan] = []
        self._sessions: dict[str, Session] = {}
        self._join_order: list[str] = []

    # -- membership --------------------------------------------------------- #

    def join(self, peer: QueryPeer) -> Session:
        """Register an already-constructed peer and return its session."""
        self.network.register(peer)
        session = Session(self, peer)
        self._sessions[peer.address] = session
        self._join_order.append(peer.address)
        return session

    def add(self, node: NetworkNode) -> NetworkNode:
        """Register a non-:class:`QueryPeer` node (baseline strategies).

        The node shares the cluster's network and lifecycle but gets no
        session — sessions speak the paper's catalog/MQP protocol.
        """
        self.network.register(node)
        return node

    def base_server(self, address: str, area: InterestArea) -> Session:
        """Add a base server holding data within ``area``."""
        return self.join(BaseServer(address, self._require_namespace(), area))

    def index_server(
        self, address: str, area: InterestArea, authoritative: bool = True
    ) -> Session:
        """Add an index server covering ``area``."""
        return self.join(
            IndexServer(address, self._require_namespace(), area, authoritative=authoritative)
        )

    def meta_index(
        self,
        address: str,
        area: InterestArea | None = None,
        authoritative: bool = True,
    ) -> Session:
        """Add a meta-index server (defaults to covering the whole namespace)."""
        return self.join(
            MetaIndexServer(
                address, self._require_namespace(), interest_area=area,
                authoritative=authoritative,
            )
        )

    def client(self, address: str, area: InterestArea | None = None) -> Session:
        """Add a query-issuing client peer."""
        return self.join(ClientPeer(address, self._require_namespace(), interest_area=area))

    def session(self, address: str) -> Session:
        """The session wrapping the peer registered under ``address``."""
        try:
            return self._sessions[address]
        except KeyError:
            raise APIError(f"no session for address {address!r} in this cluster") from None

    def sessions(self) -> list[Session]:
        """Every session, in join order."""
        return [self._sessions[address] for address in self._join_order]

    def peers(self) -> list[QueryPeer]:
        """Every session's peer, in join order."""
        return [session.peer for session in self.sessions()]

    # -- catalog wiring ------------------------------------------------------- #

    def connect(self, online: bool = False, seed_clients: bool = True) -> int:
        """Wire the distributed catalog across every joined peer (§3.3).

        Registration follows the covering-indexer policy, in join order.
        With ``online=True`` the protocol runs as real messages (and the
        network is driven until the acknowledgements settle); otherwise
        catalogs are populated directly.  Pure clients are then seeded with
        the meta-index servers — their out-of-band bootstrap knowledge —
        unless ``seed_clients`` is false.  Returns the registration count.
        """
        peers = self.peers()
        if online:
            count = register_online(peers)
            self.network.run_until_idle()
        else:
            count = register_offline(peers)
        if seed_clients:
            self.seed_clients()
        return count

    def seed_clients(self) -> None:
        """Give pure-client peers their out-of-band meta-index knowledge."""
        clients = [session.peer for session in self.sessions() if _is_pure_client(session.peer)]
        metas = [session.peer for session in self.sessions() if _is_meta_index(session.peer)]
        seed_with_meta_index(clients, metas)

    def join_catalog_tier(self, shard_map: "ShardMap") -> None:
        """Hand every joined peer the sharded catalog tier's shard map.

        Call before :meth:`connect` so registrations fan out to whole
        replica groups.  Peers joining later can be joined individually via
        :meth:`repro.peers.QueryPeer.join_catalog_tier`.
        """
        for peer in self.peers():
            peer.join_catalog_tier(shard_map)

    def catalog_tier_stats(self) -> dict[str, object]:
        """Aggregate catalog-tier counters across every joined peer.

        Returns shard/replica-group structure, summed answer-cache
        counters over the replica servers, and the failover/reconciliation
        totals — the same numbers the scale-out report's ``catalog_tier``
        block carries, exposed for API consumers.
        """
        peers = self.peers()
        replicas = [peer.replicas for peer in peers]
        maps = [each.shard_map for each in replicas if each.shard_map is not None]
        if not maps:
            return {"enabled": False}
        shard_map = maps[0]
        # Every catalog caches its answers; the tier's block counts the
        # replica servers' only.
        caches = [
            peer.catalog.answer_cache
            for peer in peers
            if shard_map.group_of(peer.address) is not None
        ]
        hits = sum(cache.hits for cache in caches)
        misses = sum(cache.misses for cache in caches)
        total = hits + misses
        return {
            "enabled": True,
            "shards": shard_map.shards,
            "groups": [list(group.members) for group in shard_map.groups],
            "answer_cache": {
                "hits": hits,
                "misses": misses,
                "hit_rate": round(hits / total, 4) if total else 0.0,
                "invalidations": sum(cache.invalidations for cache in caches),
                "evictions": sum(cache.evictions for cache in caches),
            },
            "tier_failovers": sum(each.tier_failovers for each in replicas),
            "reconciliations": sum(each.reconciliations for each in replicas),
            "recon_entries_adopted": sum(each.recon_entries_adopted for each in replicas),
            "recon_conflicts": sum(len(each.recon_conflicts) for each in replicas),
        }

    def wire_topology(
        self,
        topology: Topology | None = None,
        exclude: Iterable[str] = (),
    ) -> None:
        """Teach overlay neighbours each other's catalog entries.

        For every edge of the topology whose endpoints are both joined
        peers (and not excluded), each endpoint learns the other's server
        entry — so mid-route binding and candidate choice reflect the
        overlay shape.  Clients are typically excluded: seeding them with a
        handful of random neighbours would masquerade as a complete answer.
        """
        if topology is None:
            topology = self.topology
        if topology is None:
            raise APIError("no topology attached to this cluster")
        self.topology = topology
        excluded = set(exclude)
        by_address = {address: session.peer for address, session in self._sessions.items()}
        for first, second in sorted(topology.edges()):
            if first in excluded or second in excluded:
                continue
            if first in by_address and second in by_address:
                by_address[first].learn_about(by_address[second].server_entry())
                by_address[second].learn_about(by_address[first].server_entry())

    def configure_peers(self, max_hops: int) -> None:
        """Apply processing policy uniformly across every joined peer."""
        for peer in self.peers():
            peer.processor.max_hops = max_hops

    # -- churn ------------------------------------------------------------------ #

    def schedule_churn(
        self,
        addresses: Sequence[str] | None = None,
        profile: "ChurnProfile | str" = "moderate",
        window_ms: tuple[float, float] = (100.0, 4_000.0),
        seed: int = 13,
        regions: dict[str, str] | None = None,
    ) -> ChurnPlan:
        """Schedule a churn plan (leaves, crashes, rejoins) on the clock.

        ``addresses`` defaults to every joined peer.  ``regions`` (address →
        region key) enables correlated profiles to fail whole regions at
        once.  The plan is recorded on :attr:`churn_plans` for reporting.
        """
        if addresses is None:
            addresses = list(self._join_order)
        plan = schedule_churn(
            self.network, list(addresses), profile, window_ms=window_ms, seed=seed, regions=regions
        )
        self.churn_plans.append(plan)
        return plan

    # -- lifecycle ---------------------------------------------------------------- #

    @property
    def now(self) -> float:
        """Current simulated time in milliseconds."""
        return self.network.now

    @property
    def metrics(self) -> "NetworkMetrics":
        """The network's traffic metrics and per-query traces."""
        return self.network.metrics

    def run(self, until: float | None = None) -> None:
        """Run the scenario (until idle, or until the given simulated time)."""
        self.network.run(until=until)

    def run_until_idle(self) -> None:
        """Run until no scheduled work remains."""
        self.network.run_until_idle()

    def close(self) -> None:
        """Release transport resources (sockets, loops).  Idempotent."""
        self.network.close()

    def __enter__(self) -> "Cluster":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- internals ------------------------------------------------------------------ #

    def _require_namespace(self) -> MultiHierarchicNamespace:
        if self.namespace is None:
            raise APIError(
                "this cluster has no namespace; pass namespace=... to Cluster() "
                "or construct peers yourself and cluster.join() them"
            )
        return self.namespace

    def __repr__(self) -> str:
        return (
            f"Cluster(sessions={len(self._sessions)}, now={self.now:.1f}ms, "
            f"transport={self.network.transport.name})"
        )


def _is_pure_client(peer: QueryPeer) -> bool:
    return peer.roles == {ServerRole.CLIENT}


def _is_meta_index(peer: QueryPeer) -> bool:
    return ServerRole.META_INDEX in peer.roles
