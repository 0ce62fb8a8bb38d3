"""A larger garage-sale marketplace: strategy comparison and §4.3 preferences.

Run with::

    python examples/garage_sale_marketplace.py

Opens with the public client API (``repro.api``): a small marketplace
cluster where one seller crashes mid-deployment, showing how a
:class:`~repro.api.QueryHandle` degrades loudly to a *partial* answer
instead of silently losing results.  Then generates a synthetic
marketplace (sellers with Zipf-skewed city and category specialties) as
one scenario spec, runs it under catalog-routed mutant query plans,
Gnutella-style broadcast, a Napster-style central index, and routing
indices, and prints the comparison table.  Finally it shows the §4.3
choice between complete, current and fast answers for a replicated
deployment: the binding alternative each preference makes a server bind.
"""

from __future__ import annotations

from repro.api import Cluster, QueryPreferences
from repro.catalog import (
    Binder,
    Catalog,
    CollectionRef,
    IntensionalStatement,
    ServerEntry,
    ServerRole,
)
from repro.harness import ScaleoutSpec, compare_routing_strategies, format_table
from repro.mqp import PolicyManager
from repro.workloads import GarageSaleConfig, GarageSaleWorkload


def fluent_api_with_partial_answers() -> None:
    """One fluent query surviving a seller crash (degrading to a partial answer)."""
    workload = GarageSaleWorkload(GarageSaleConfig(sellers=6, mean_items_per_seller=8, seed=7))
    namespace = workload.namespace
    with Cluster(namespace=namespace, notify_unreachable=True) as cluster:
        sessions = []
        for seller in workload.sellers:
            session = cluster.base_server(seller.address, seller.area)
            session.publish("items", seller.items)
            sessions.append(session)
        cluster.meta_index("meta-index:9020")
        buyer = cluster.client("buyer:9020")
        cluster.connect()

        # One seller drops off the network without notice.
        crashed = sessions[0]
        crashed.crash()

        # Query all sporting goods: the Dallas seller still answers, the
        # crashed Paris seller cannot — the plan reroutes around the
        # failure and the answer degrades to a *partial* result, loudly
        # flagged on the handle instead of silently shrinking.
        area = namespace.area(["*", "SportingGoods"])
        # The namespace is also the paper's category service (§3.1): "what
        # are the immediate subcategories of SportingGoods?"
        kinds = namespace.dimension("Merchandise").children("SportingGoods")
        print("Sporting goods cover:", ", ".join(path.label for path in kinds))
        expected = workload.ground_truth_count(area, None)
        handle = (
            buyer.query()
            .area(area)
            .where("category contains 'SportingGoods'")
            .expecting(expected)
            .submit()
        )
        result = handle.result(timeout=120_000)
        print(
            f"Sporting-goods query with {crashed.address} crashed: "
            f"{result.count}/{expected} items, partial={result.partial}, "
            f"recall {handle.trace().recall:.2f}\n"
        )


def strategy_comparison() -> None:
    # One spec, run once per routing strategy: the same sellers, overlay,
    # link latencies and query schedule under all four.
    spec = ScaleoutSpec(name="marketplace", topology="random", peers=20,
                        workload="garage-sale", queries=5, seed=7)
    print(f"Marketplace: {spec.peers} sellers on a {spec.topology} overlay, {spec.queries} queries\n")
    rows = compare_routing_strategies(spec)
    print(
        format_table(
            rows,
            ["strategy", "messages", "bytes", "mean_peers_per_query", "mean_latency_ms", "mean_recall"],
            title="Routing strategy comparison",
        )
    )


def preference_choice() -> None:
    workload = GarageSaleWorkload(GarageSaleConfig(sellers=4, seed=7))
    namespace = workload.namespace
    portland = namespace.area(["USA/OR/Portland", "*"])
    catalog = Catalog("client")
    for address in ("archive:9020", "mirror-a:9020", "mirror-b:9020"):
        catalog.register_server(
            ServerEntry(address, ServerRole.BASE, portland, collections=[CollectionRef(address, "/items")])
        )
    catalog.register_statement(
        IntensionalStatement.parse(
            "base[(USA.OR.Portland,*)]@archive:9020 >= base[(USA.OR.Portland,*)]@mirror-a:9020{30}"
        )
    )
    catalog.register_statement(
        IntensionalStatement.parse(
            "base[(USA.OR.Portland,*)]@archive:9020 >= base[(USA.OR.Portland,*)]@mirror-b:9020{30}"
        )
    )
    binding = Binder(catalog).bind_area(namespace.area(["USA/OR/Portland", "Music/CDs"]))
    policy = PolicyManager()

    rows = []
    for prefer in QueryPreferences.VALID:
        alternative = policy.choose_alternative(binding, QueryPreferences(prefer=prefer))
        rows.append(
            {
                "prefer": prefer,
                "servers": alternative.server_count,
                "staleness_min": alternative.max_delay_minutes,
            }
        )
    print()
    print(format_table(rows, title="Complete / current / fast answers (section 4.3)"))


def main() -> None:
    fluent_api_with_partial_answers()
    strategy_comparison()
    preference_choice()


if __name__ == "__main__":
    main()
