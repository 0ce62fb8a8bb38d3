"""The harness: topology × workload × churn × routing, one spec per run.

This module composes the parametric pieces — topology generators
(:mod:`repro.network.topology`), churn profiles
(:mod:`repro.network.failures`), the MQP pipeline with its evaluation cache
(:class:`repro.mqp.processor.MQPProcessor`) — into named, seeded scenarios
of ten to 1,000+ peers, runs them on the deterministic simulator, and
reduces the outcome to a JSON-ready report
(:func:`repro.harness.report.scenario_report`).  The paper's strategy
comparison (:func:`repro.harness.experiment.compare_routing_strategies`) is
four such specs differing only in ``routing``.

A scenario is fully described by a :class:`~repro.harness.spec.ScaleoutSpec`;
the CLI (:mod:`repro.harness.cli`) is a thin argument parser over this module.
Scenario construction and query issuance go through the public client API
(:mod:`repro.api`): a :class:`~repro.api.Cluster` owns the network,
transport, topology wiring and churn schedule, and MQP queries are issued
through per-peer :class:`~repro.api.Session` handles — the harness is a
consumer of the same surface external callers use.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

from ..algebra import PlanBuilder
from ..api import Cluster
from ..catalogtier import ShardMap, shard_of_cell
from ..namespace import (
    CategoryPath,
    InterestArea,
    InterestAreaURN,
    InterestCell,
    MultiHierarchicNamespace,
)
from ..network import (
    CHURN_PROFILES,
    ChurnPlan,
    LatencyModel,
    Network,
    Topology,
    Transport,
    build_topology,
)
from ..peers import QueryPeer
from ..routing import (
    BaselinePeer,
    GnutellaPeer,
    NapsterIndexServer,
    NapsterPeer,
    RoutingIndexPeer,
)
from ..workloads import (
    GarageSaleConfig,
    GarageSaleWorkload,
    GeneExpressionConfig,
    GeneExpressionWorkload,
    QueryWorkload,
    item_cell,
    query_plan_for,
)
from ..workloads.adversarial import (
    FlashCrowdSchedule,
    flash_crowd_schedule,
    lying_area_swaps,
    poison_catalog,
    select_free_riders,
    stale_crash_set,
    zipf_query_ranks,
)
from ..workloads.distributions import make_rng
from ..xmlmodel import XMLElement
from .report import scenario_report
from .spec import ROUTING_KINDS, WORKLOAD_KINDS, ScaleoutSpec

__all__ = [
    "ScaleoutSpec",
    "ScaleoutScenario",
    "WORKLOAD_KINDS",
    "ROUTING_KINDS",
    "build_scaleout_scenario",
    "schedule_queries",
    "schedule_mutations",
    "run_scaleout",
    "run_scenario",
    "GNUTELLA_HORIZON",
    "ROUTING_INDEX_WANTED",
]

GNUTELLA_HORIZON = 3
"""Hops a Gnutella baseline query floods before its TTL runs out."""

ROUTING_INDEX_WANTED = 10
"""Answers a routing-index baseline query asks for at least (more when the
ground truth holds more, so the stop condition never caps recall)."""

_CELL_FIELDS = {
    "garage-sale": GarageSaleWorkload.CELL_FIELDS,
    "gene-expression": GeneExpressionWorkload.CELL_FIELDS,
}


@dataclass
class _DataPeer:
    """One data-serving peer of either workload, strategy-agnostic."""

    address: str
    area: InterestArea
    items: list[XMLElement] = field(default_factory=list)


@dataclass
class _Query:
    """One generated query with its ground truth."""

    area: InterestArea
    expected: int


@dataclass
class ScaleoutScenario:
    """A built (but not yet run) scale-out scenario.

    ``cluster`` owns the network/transport lifecycle; ``network`` is kept
    as a direct alias for reporting code.
    """

    spec: ScaleoutSpec
    cluster: Cluster
    network: Network
    namespace: MultiHierarchicNamespace
    topology: Topology
    data_peers: list[_DataPeer]
    queries: list[_Query]
    churn_plan: ChurnPlan | None = None
    # Strategy-specific handles:
    client: QueryPeer | BaselinePeer | None = None
    index_servers: list[QueryPeer] = field(default_factory=list)
    meta_index: QueryPeer | None = None
    napster_index: NapsterIndexServer | None = None
    registrations: int = 0
    # Adversarial state (populated when the spec's knobs are non-default):
    flash_schedule: FlashCrowdSchedule | None = None
    free_riders: list[str] = field(default_factory=list)
    stale_crashed: list[str] = field(default_factory=list)
    poisoned_entries: int = 0
    # Continuous-query state (populated when spec.subscribers > 0):
    subscriber_addresses: list[str] = field(default_factory=list)
    subscription_ids: list[str] = field(default_factory=list)
    hot_publishers: list[str] = field(default_factory=list)
    # Catalog-tier state (populated when spec.catalog_shards > 0):
    shard_map: ShardMap | None = None
    replica_outages: list[str] = field(default_factory=list)

    @property
    def total_peers(self) -> int:
        """Every node registered on the network."""
        return len(self.network.addresses())


# --------------------------------------------------------------------------- #
# Workload population
# --------------------------------------------------------------------------- #


def _garage_sale_population(spec: ScaleoutSpec) -> tuple[
    MultiHierarchicNamespace, list[_DataPeer], list[_Query]
]:
    workload = GarageSaleWorkload(
        GarageSaleConfig(sellers=spec.peers, mean_items_per_seller=6.0, seed=spec.seed)
    )
    namespace = workload.namespace
    peers = [
        _DataPeer(seller.address, seller.area, list(seller.items))
        for seller in workload.sellers
    ]
    generator = QueryWorkload(namespace, seed=spec.seed + 1, price_ceiling_range=None)
    queries = _with_ground_truth(
        [query_spec.area for query_spec in generator.batch(spec.queries)],
        lambda area: workload.ground_truth_count(area, None),
    )
    return namespace, peers, queries


def _gene_expression_population(spec: ScaleoutSpec) -> tuple[
    MultiHierarchicNamespace, list[_DataPeer], list[_Query]
]:
    workload = GeneExpressionWorkload(
        GeneExpressionConfig(
            extra_repositories=max(0, spec.peers - 3),
            records_per_cell=2,
            seed=spec.seed,
        )
    )
    namespace = workload.namespace
    peers = [
        _DataPeer(repository.address, repository.area, list(repository.records))
        for repository in workload.repositories
    ]
    # The canonical Figure 1 query always leads the batch.
    areas = [workload.mammalian_cardiac_query_area()]
    generator = QueryWorkload(
        namespace, location_level=3, category_level=1, seed=spec.seed + 1, price_ceiling_range=None
    )
    areas.extend(query_spec.area for query_spec in generator.batch(max(0, spec.queries - 1)))
    queries = _with_ground_truth(areas, lambda area: len(workload.matching_records(area)))
    return namespace, peers, queries


def _with_ground_truth(
    areas: list[InterestArea], count: Callable[[InterestArea], int]
) -> list[_Query]:
    """One query per area, asking the workload's oracle once per distinct area
    (a batch repeats its popular areas)."""
    expected: dict[InterestArea, int] = {}
    queries: list[_Query] = []
    for area in areas:
        if area not in expected:
            expected[area] = count(area)
        queries.append(_Query(area, expected[area]))
    return queries


_POPULATIONS = {
    "garage-sale": _garage_sale_population,
    "gene-expression": _gene_expression_population,
}


# --------------------------------------------------------------------------- #
# Strategy-specific network construction
# --------------------------------------------------------------------------- #


def _region(cell: InterestCell) -> tuple[str, ...] | None:
    """The depth-2 prefix of ``cell``'s first dimension (``None`` above it).

    Both built-in namespaces put their meaningful fan-out there — states for
    Location, major clades for Organism — so a region is what one
    authoritative index server covers and what a correlated failure takes
    down together.
    """
    segments = cell.coordinate(0).segments
    return tuple(segments[:2]) if len(segments) >= 2 else None


def _index_areas(data_peers: list[_DataPeer]) -> list[InterestArea]:
    """One authoritative index area, ``[region, *]``, per populated :func:`_region`
    (the per-state indexes of the seed scenarios)."""
    regions = {region for peer in data_peers for region in map(_region, peer.area) if region}
    return [
        InterestArea([InterestCell((CategoryPath(list(region)), CategoryPath()))])
        for region in sorted(regions)
    ]


def _build_mqp_network(spec: ScaleoutSpec, scenario: ScaleoutScenario) -> None:
    cluster = scenario.cluster

    for data_peer in scenario.data_peers:
        session = cluster.base_server(data_peer.address, data_peer.area)
        session.publish("items", data_peer.items)

    if spec.catalog_shards > 0:
        scenario.shard_map = _build_catalog_tier(spec, scenario)
    else:
        for position, area in enumerate(_index_areas(scenario.data_peers)):
            scenario.index_servers.append(
                cluster.index_server(f"index-{position:02d}:9020", area).peer
            )

    scenario.meta_index = cluster.meta_index("meta-index:9020").peer
    client = cluster.client("client:9020")
    scenario.client = client.peer

    # Every peer shares the one shard map by reference *before* connect():
    # the registration policy consults it to fan registrations out to whole
    # replica groups, and replica peers attach their answer caches on join.
    if scenario.shard_map is not None:
        cluster.join_catalog_tier(scenario.shard_map)

    # Catalog registration (covering-indexer policy) + client bootstrap.
    scenario.registrations = cluster.connect()

    # The overlay shapes out-of-band discovery among *serving* peers:
    # neighbours know each other's catalog entries, so mid-route binding
    # and candidate choice reflect the topology.  The client stays seeded
    # with the meta-index only — binding a namespace-wide area against a
    # handful of random neighbours would masquerade as a complete answer.
    cluster.wire_topology(scenario.topology, exclude=(client.address,))

    cluster.configure_peers(max_hops=spec.max_hops)


def _place_index_areas(areas: list[InterestArea], shards: int) -> list[InterestArea | None]:
    """What each shard owns: the union of the index areas hashed onto it
    (``None`` where nothing landed)."""
    owned: list[InterestArea | None] = [None] * shards
    for area in areas:
        shard = shard_of_cell(next(iter(area)), shards)  # index areas are single-cell
        placed = owned[shard]
        owned[shard] = area if placed is None else placed.union(area)
    return owned


def _build_catalog_tier(spec: ScaleoutSpec, scenario: ScaleoutScenario) -> ShardMap:
    """Stand up the sharded index layer: one replica group per shard.

    Each populated region's index area (see :func:`_index_areas`) is
    placed on a shard by hashing its single cell; a shard's replicas are
    authoritative over the union of the areas placed on it, and the shard
    map records that union as what the group owns.  A shard nothing was
    placed on still gets its replica servers — covering the namespace top
    non-authoritatively, so they participate in routing without claiming
    authority they cannot back (and without MOAS-style overlap conflicts) —
    and owns nothing in the map.
    """
    cluster = scenario.cluster
    owned_by_shard = _place_index_areas(
        _index_areas(scenario.data_peers), spec.catalog_shards
    )
    members_by_shard: list[list[str]] = []
    for shard, owned in enumerate(owned_by_shard):
        members = [
            f"index-s{shard}r{replica}:9020" for replica in range(spec.catalog_replicas)
        ]
        shard_area = owned if owned is not None else scenario.namespace.top_area()
        for member in members:
            scenario.index_servers.append(
                cluster.index_server(member, shard_area, authoritative=owned is not None).peer
            )
        members_by_shard.append(members)
    return ShardMap.build(members_by_shard, owned_by_shard)


def _build_baseline_network(spec: ScaleoutSpec, scenario: ScaleoutScenario) -> None:
    """Gnutella, Napster or routing-index: data peers plus a client.

    Baseline peers speak their own protocols, not the paper's catalog/MQP
    one, so they join the cluster as plain nodes (no sessions).  Their
    set-up traffic (Napster publications, routing-index adverts) is flushed
    before any query is measured.
    """
    cluster = scenario.cluster
    make: Callable[[str], BaselinePeer]
    if spec.routing == "napster":
        scenario.napster_index = NapsterIndexServer("central-index:9020")
        cluster.add(scenario.napster_index)
        make = partial(NapsterPeer, index_address=scenario.napster_index.address)
    elif spec.routing == "gnutella":
        make = partial(GnutellaPeer, topology=scenario.topology)
    else:
        make = partial(RoutingIndexPeer, namespace=scenario.namespace, topology=scenario.topology)
    fields = _CELL_FIELDS[spec.workload]
    peers = []
    for data_peer in scenario.data_peers:
        peer = make(data_peer.address)
        cluster.add(peer)
        for item in data_peer.items:
            peer.add_items(item_cell(item, fields), [item])
        peers.append(peer)
    scenario.client = make("client:9020")
    cluster.add(scenario.client)
    for peer in [*peers, scenario.client]:
        if isinstance(peer, RoutingIndexPeer):
            peer.advertise()
    cluster.run_until_idle()


# --------------------------------------------------------------------------- #
# Building and running
# --------------------------------------------------------------------------- #


def build_scaleout_scenario(
    spec: ScaleoutSpec,
    transport: "Transport | str | None" = None,
) -> ScaleoutScenario:
    """Stand up the full scenario: population, overlay, strategy, churn.

    ``transport`` selects the delivery backend (``"sim"``, ``"aio"``, or an
    instance) — it is a *run* parameter, deliberately not part of the spec:
    the same spec must produce a byte-identical report on every backend, so
    the report's scenario block cannot mention the transport.
    """
    spec.validate()
    namespace, data_peers, queries = _POPULATIONS[spec.workload](spec)

    addresses = [peer.address for peer in data_peers] + ["client:9020"]
    topology = build_topology(spec.topology, addresses, seed=spec.seed)

    # Failure detection (and therefore plan rerouting) is an MQP capability;
    # the baselines experience churn as silent message loss.
    fault_plan = spec.fault_plan()
    cluster = Cluster(
        transport if transport is not None else "sim",
        namespace=namespace,
        latency=LatencyModel(seed=spec.seed),
        notify_unreachable=(spec.routing == "mqp"),
        topology=topology,
        faults=fault_plan if fault_plan.active else None,
        reliable=spec.reliable,
    )
    scenario = ScaleoutScenario(
        spec=spec,
        cluster=cluster,
        network=cluster.network,
        namespace=namespace,
        topology=topology,
        data_peers=data_peers,
        queries=queries,
    )

    if spec.routing == "mqp":
        _build_mqp_network(spec, scenario)
    else:
        _build_baseline_network(spec, scenario)

    if spec.subscribers > 0:
        _arm_subscribers(spec, scenario)

    _apply_adversary(spec, scenario)

    profile = CHURN_PROFILES[spec.churn]
    if profile.churn_fraction > 0.0:
        churned = [peer.address for peer in data_peers]
        scenario.churn_plan = cluster.schedule_churn(
            churned,
            profile,
            window_ms=spec.churn_window_ms,
            seed=spec.seed + 2,
            regions=_regions_of(scenario) if profile.correlated else None,
        )
    return scenario


# --------------------------------------------------------------------------- #
# Adversarial workloads (repro.workloads.adversarial)
# --------------------------------------------------------------------------- #


def _regions_of(scenario: ScaleoutScenario) -> dict[str, str]:
    """Address → the :func:`_region` of its first cell that has one, for
    correlated churn (``"?"`` for a peer with none)."""
    regions: dict[str, str] = {}
    for peer in scenario.data_peers:
        region = next(filter(None, map(_region, peer.area)), None)
        regions[peer.address] = "/".join(region) if region else "?"
    return regions


def _apply_adversary(spec: ScaleoutSpec, scenario: ScaleoutScenario) -> None:
    """Apply the spec's adversarial knobs to the built scenario.

    Each knob draws from its own derived seed so switching one adversary on
    never perturbs another's decisions (the cells of an experiment grid stay
    comparable across knob combinations).
    """
    addresses = [peer.address for peer in scenario.data_peers]

    if spec.query_mix == "zipf":
        ranks = zipf_query_ranks(
            make_rng(spec.seed + 4), len(scenario.queries), spec.queries
        )
        scenario.queries = [scenario.queries[rank] for rank in ranks]
    elif spec.query_mix == "flash-crowd":
        scenario.flash_schedule = flash_crowd_schedule(
            make_rng(spec.seed + 4),
            spec.queries,
            len(scenario.queries),
            start_ms=0.0,  # relative to the schedule start; resolved on issue
            interval_ms=spec.query_interval_ms,
        )
        scenario.queries = [
            scenario.queries[rank] for rank in scenario.flash_schedule.ranks
        ]

    if spec.free_rider_fraction > 0.0:
        scenario.free_riders = select_free_riders(
            make_rng(spec.seed + 5), addresses, spec.free_rider_fraction
        )
        for address in scenario.free_riders:
            scenario.cluster.session(address).peer.processor.free_ride = True

    if spec.catalog_mode == "stale":
        scenario.stale_crashed = stale_crash_set(make_rng(spec.seed + 6), addresses)
        for address in scenario.stale_crashed:
            # Silent death before the first query, with every catalog entry
            # left in place: the network routes on stale authority.
            scenario.network.node(address).go_offline()
    elif spec.catalog_mode == "lying":
        swaps = lying_area_swaps(make_rng(spec.seed + 7), addresses)
        scenario.poisoned_entries = sum(
            poison_catalog(peer.catalog, swaps) for peer in scenario.cluster.peers()
        )


_MAX_HOT_PUBLISHERS = 8
"""Cap on the publisher set mutation rounds drive (reported, not silent)."""


def _arm_subscribers(spec: ScaleoutSpec, scenario: ScaleoutScenario) -> None:
    """Stand up standing-query clients over the workload's query areas.

    Each subscriber watches one of the generated query areas (cycled), so
    the delta feeds exercise the same namespace regions the one-shot
    queries do.
    """
    cluster = scenario.cluster
    areas = [query.area for query in scenario.queries]
    for position in range(spec.subscribers):
        address = f"subscriber-{position:03d}:9020"
        cluster.client(address)
        scenario.subscriber_addresses.append(address)
    cluster.seed_clients()  # the late joiners need their meta-index bootstrap
    subscribed_indices: set[int] = set()
    for position, address in enumerate(scenario.subscriber_addresses):
        index = position % len(areas)
        subscribed_indices.add(index)
        plan = PlanBuilder.urn(str(InterestAreaURN.for_area(areas[index]))).display(address)
        subscription = cluster.session(address).subscribe(plan)
        scenario.subscription_ids.append(subscription.sub_id)
    cluster.run_until_idle()  # let the subscribe fan-out settle before queries fire
    scenario.hot_publishers = [
        peer.address
        for peer in scenario.data_peers
        if any(peer.area.overlaps(areas[index]) for index in subscribed_indices)
    ][:_MAX_HOT_PUBLISHERS]


def schedule_mutations(scenario: ScaleoutScenario) -> int:
    """Schedule the spec's publisher mutation rounds on the clock.

    Each round, every hot publisher upserts a copy of its first item — a
    keyed item classifies as an ``update`` delta, an unkeyed one as an
    ``insert`` — so armed subscriptions see one delta per overlapping
    publisher per round.  Rounds go ``query_interval_ms`` apart,
    interleaving with the query schedule.  Returns the number of
    scheduled mutation events.
    """
    spec = scenario.spec
    if spec.mutation_rounds == 0 or not scenario.hot_publishers:
        return 0
    cluster = scenario.cluster
    network = scenario.network
    items_by_address = {peer.address: peer.items for peer in scenario.data_peers}
    start = network.now
    scheduled = 0
    for round_number in range(spec.mutation_rounds):
        at = start + (round_number + 1) * spec.query_interval_ms
        for address in scenario.hot_publishers:
            items = items_by_address[address]
            if not items:
                continue

            def mutate(address=address, item=items[0]) -> None:
                session = cluster.session(address)
                if session.online:  # churn may have taken the publisher down
                    session.update("items", [item.copy()])

            network.schedule_at(at, mutate)
            scheduled += 1
    return scheduled


def _schedule_replica_outage(scenario: ScaleoutScenario) -> None:
    """Crash ``catalog_outages`` replicas of group 0 mid-schedule, then rejoin.

    The victims are the group's *preferred* members — the ones shard-aware
    routing tries first — so the crash forces real failovers, not reads
    that would have skipped the dead replica anyway.  The crash lands a
    third of the way through the query schedule (queries in flight), the
    rejoin two thirds through (reconciliation races the tail queries).
    """
    spec = scenario.spec
    if spec.catalog_outages == 0 or scenario.shard_map is None:
        return
    network = scenario.network
    group = scenario.shard_map.group(0)
    victims = list(group.preferred_order()[: spec.catalog_outages])
    scenario.replica_outages = victims
    span = len(scenario.queries) * spec.query_interval_ms
    start = network.now
    for victim in victims:

        def crash(address=victim) -> None:
            node = network.node(address)
            if node.online:
                node.go_offline()

        def rejoin(address=victim) -> None:
            node = network.node(address)
            if not node.online:
                node.go_online()

        network.schedule_at(start + span / 3.0, crash)
        network.schedule_at(start + 2.0 * span / 3.0, rejoin)


def _issue_mqp_query(scenario: ScaleoutScenario, query: _Query, label: str) -> str:
    assert isinstance(scenario.client, QueryPeer)
    session = scenario.cluster.session(scenario.client.address)
    plan = query_plan_for(query.area, session.address, _CELL_FIELDS[scenario.spec.workload])
    # Explicit id: the default ids come from a process-global counter, and
    # their width leaks into serialized plan sizes (and thus transfer
    # times), breaking run-to-run determinism within one process.
    handle = (
        session.query(plan)
        .prefer(scenario.spec.prefer)
        .expecting(query.expected)
        .labelled(label)
        .submit()
    )
    return handle.query_id


def _issue_baseline_query(scenario: ScaleoutScenario, query: _Query, label: str) -> str:
    client = scenario.client
    if isinstance(client, GnutellaPeer):
        query_id = client.issue_query(query.area, horizon=GNUTELLA_HORIZON, query_id=label)
    elif isinstance(client, RoutingIndexPeer):
        query_id = client.issue_query(
            query.area, wanted=max(ROUTING_INDEX_WANTED, query.expected), query_id=label
        )
    else:
        assert isinstance(client, NapsterPeer)
        query_id = client.issue_query(query.area, query_id=label)
    scenario.network.metrics.trace(query_id).expected_answers = query.expected
    return query_id


def run_scaleout(
    spec: ScaleoutSpec, transport: "Transport | str | None" = None
) -> dict[str, object]:
    """Build a scenario, run its query schedule under churn, return the report.

    Queries are issued ``query_interval_ms`` apart so they interleave with
    the churn window instead of racing ahead of it; the scenario then runs
    to quiescence.  Everything in the returned report is derived from
    seeded state, so the same spec always yields the same document — on
    every transport backend (``transport`` picks one of
    :data:`~repro.network.TRANSPORT_KINDS`; simulated time stays the
    coordination authority, so the ``aio`` backend's real sockets change
    wall-clock cost but not the report).
    """
    return run_scenario(spec, transport)[1]


def run_scenario(
    spec: ScaleoutSpec, transport: "Transport | str | None" = None
) -> tuple[ScaleoutScenario, dict[str, object]]:
    """:func:`run_scaleout`, handing back the scenario it ran beside the report
    (its peers, catalogs and raw network metrics outlive the run).

    The build allocates a large heap of long-lived objects and almost no
    cyclic garbage, so the cyclic collector is paused around it, and the
    built scenario is frozen (``gc.freeze``) before the collector resumes:
    no pass walks the population, in set-up or in the run.  The caller's
    collector is handed back as it was found, and a caller's own freeze is
    never undone.
    """
    freeze = gc.get_freeze_count() == 0
    collecting = gc.isenabled()
    gc.disable()
    try:
        scenario = build_scaleout_scenario(spec, transport=transport)
        if freeze:
            gc.freeze()
    finally:
        if collecting:
            gc.enable()
    try:
        with scenario.cluster as cluster:
            query_ids = schedule_queries(scenario)
            schedule_mutations(scenario)
            _schedule_replica_outage(scenario)
            cluster.run_until_idle()

            for query_id in query_ids:
                trace = cluster.metrics.trace(query_id)
                if trace.completed_at is None:
                    trace.completed_at = cluster.now

            return scenario, scenario_report(scenario, query_ids)
    finally:
        if freeze:
            gc.unfreeze()


def schedule_queries(scenario: ScaleoutScenario) -> list[str]:
    """Schedule the spec's query fire events on the scenario's clock.

    Queries go ``query_interval_ms`` apart, starting from "now" (building
    may already have advanced the clock with publish/advertise traffic).
    The returned list fills with query ids as the fire events execute
    during the subsequent run.  Shared by :func:`run_scaleout` and the
    transport benchmark so both time the same schedule.
    """
    spec = scenario.spec
    network = scenario.network
    issue = _issue_mqp_query if spec.routing == "mqp" else _issue_baseline_query
    query_ids: list[str] = []
    start = network.now
    for position, query in enumerate(scenario.queries):
        if scenario.flash_schedule is not None:
            # Flash crowds keep their own cadence: steady background load,
            # then the burst members packed into the burst window.
            at = start + scenario.flash_schedule.times_ms[position]
        else:
            at = start + position * spec.query_interval_ms
        label = f"{spec.name}-q{position}"

        def fire(query=query, label=label) -> None:
            query_ids.append(issue(scenario, query, label))

        network.schedule_at(at, fire)
    return query_ids
