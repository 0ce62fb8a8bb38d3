"""The paper's two comparisons: four routing strategies, and Figure 3.

The strategy comparison (§1/§3: catalog-routed MQPs against Gnutella-style
broadcast, a Napster-style central index and routing indices) is one
:class:`~repro.harness.scaleout.ScaleoutSpec` run once per ``routing`` —
the same population, overlay, latency seed, clock and query schedule under
every strategy, built and run by the one harness.  The Figure 3 CD query
(mutant query plans against coordinator-based execution) joins three
hand-placed sources and has no spec to ride, so its two runners live here.
"""

from __future__ import annotations

from dataclasses import replace

from ..algebra import PlanBuilder
from ..api import Cluster
from ..distributed import CoordinatorClient, CoordinatorServer, SubordinateServer
from ..errors import QueryTimeout
from ..mqp import QueryPreferences
from ..network import LatencyModel, Network, Transport
from ..workloads import CDWorkload, FORSALE_URN, TRACKLIST_URN
from .scaleout import GNUTELLA_HORIZON, ROUTING_KINDS, ScaleoutSpec, run_scenario

__all__ = [
    "compare_routing_strategies",
    "run_cd_query_mqp",
    "run_cd_query_coordinator",
]

_STRATEGY_LABELS = {
    "mqp": "mqp-catalog",
    "gnutella": f"gnutella(h={GNUTELLA_HORIZON})",
    "napster": "napster-central",
    "routing-index": "routing-index",
}
"""Row label of each ``routing`` kind in the comparison table."""


# --------------------------------------------------------------------------- #
# Cross-strategy comparison (EXP-ROUTING)
# --------------------------------------------------------------------------- #


def compare_routing_strategies(
    spec: ScaleoutSpec, transport: "Transport | str | None" = None
) -> list[dict[str, object]]:
    """Run ``spec`` under every routing strategy; one ``traffic`` row each.

    ``spec.routing`` is overridden per row; everything else — churn, link
    faults, topology, workload, seed — applies to all four alike.  The
    Napster row also carries the load on its central server (frames it
    sent plus queries that visited it), the bottleneck the paper argues
    against.
    """
    rows: list[dict[str, object]] = []
    for routing in ROUTING_KINDS:
        scenario, report = run_scenario(replace(spec, routing=routing), transport)
        traffic = report["traffic"]
        assert isinstance(traffic, dict)
        row: dict[str, object] = {"strategy": _STRATEGY_LABELS[routing], **traffic}
        if scenario.napster_index is not None:
            central = scenario.napster_index.address
            metrics = scenario.network.metrics
            row["central_server_messages"] = float(
                metrics.messages_by_sender.get(central, 0)
                + sum(1 for trace in metrics.traces.values() if central in trace.visited)
            )
        rows.append(row)
    return rows


# --------------------------------------------------------------------------- #
# Figure 3 CD query: MQP versus coordinator execution (EXP-MQP-VS-COORD)
# --------------------------------------------------------------------------- #


def run_cd_query_mqp(
    cd_workload: CDWorkload, latency: LatencyModel | None = None
) -> tuple[dict[str, float], set[str]]:
    """Execute the Figure 3 query with mutant query plans.

    Returns the network metric summary and the CD titles found.
    """
    namespace = cd_workload.namespace
    cluster = Cluster(namespace=namespace, latency=latency)
    area = cd_workload.portland_cd_area()

    sellers = []
    for seller in cd_workload.sellers:
        session = cluster.base_server(seller.address, area)
        session.publish("cds", seller.items, urn=FORSALE_URN)
        sellers.append(session)

    tracklist = cluster.base_server("tracklist:9020", namespace.top_area())
    tracklist.publish("tracklistings", cd_workload.track_listings, urn=TRACKLIST_URN)

    index_server = cluster.index_server("index-portland:9020", area)
    client = cluster.client("client:9020")

    # No meta-index in this scenario: the client bootstraps off the Portland
    # index server, and knows the track-listing service out of band (CDDB).
    cluster.connect(seed_clients=False)
    client.learn_about(index_server)
    client.learn_about(tracklist)
    tracklist_entry = tracklist.peer.catalog.named_resources[TRACKLIST_URN]
    for session in (client, index_server, *sellers):
        session.peer.catalog.register_named_resource(tracklist_entry)

    expected = cd_workload.expected_matches()
    handle = client.submit(
        cd_workload.figure3_plan(client.address),
        QueryPreferences(),
        expected_answers=len(expected),
    )
    cluster.run_until_idle()
    found: set[str] = set()
    try:
        # On the idle network this returns the complete answer or, when the
        # plan degraded (e.g. hop budget exhausted at scale), the latest
        # partial — the same answers the pre-API harness counted.
        result = handle.result()
    except QueryTimeout:
        result = None  # nothing was ever delivered
    if result is not None:
        for item in result.items:
            for title_node in item.iter_tag("title"):
                if title_node.text:
                    found.add(title_node.text)
    return cluster.metrics.summary(), found & expected if expected else found


def run_cd_query_coordinator(
    cd_workload: CDWorkload, latency: LatencyModel | None = None
) -> tuple[dict[str, float], set[str]]:
    """Execute the same query with a coordinator and subordinate servers."""
    network = Network(latency=latency)
    coordinator = CoordinatorServer("coordinator:9020")
    network.register(coordinator)

    subordinate_urls = []
    for seller in cd_workload.sellers:
        subordinate = SubordinateServer(seller.address)
        network.register(subordinate)
        subordinate.add_collection("/cds", seller.items)
        subordinate_urls.append((seller.address, "/cds"))
    tracklist = SubordinateServer("tracklist:9020")
    network.register(tracklist)
    tracklist.add_collection("/tracklistings", cd_workload.track_listings)

    client = CoordinatorClient("client:9020", coordinator.address)
    network.register(client)

    # The coordinator model ships a fully concrete plan: the client (or the
    # coordinator's global catalog) already knows every URL.
    cheap = PlanBuilder.url(subordinate_urls[0][0], subordinate_urls[0][1])
    union = cheap
    if len(subordinate_urls) > 1:
        union = cheap.union(
            *[PlanBuilder.url(url, path) for url, path in subordinate_urls[1:]]
        )
    cheap_selected = union.select(f"price < {cd_workload.config.max_price:g}")
    joined = cheap_selected.join(
        PlanBuilder.url(tracklist.address, "/tracklistings"), on=("//title", "//CD/title")
    )
    with_favorites = joined.join(
        PlanBuilder.data(cd_workload.favorite_songs, name="favorite-songs"),
        on=("//song", "//favorite/song"),
    )
    plan = with_favorites.display(client.address)

    expected = cd_workload.expected_matches()
    query_id = client.issue_query(plan)
    network.metrics.trace(query_id).expected_answers = len(expected)
    network.run_until_idle()
    found: set[str] = set()
    for item in client.results_for(query_id):
        for title_node in item.iter_tag("title"):
            if title_node.text:
                found.add(title_node.text)
    return network.metrics.summary(), found & expected if expected else found
