"""Standing query: a five-peer garage sale keeps a subscriber up to date.

Run with::

    python examples/standing_query.py            # deterministic simulator
    python examples/standing_query.py aio        # same run over real TCP sockets

The cluster is the quickstart's: two Portland CD sellers, an Oregon index
server, a global meta-index and a client.  Instead of asking once, the
client *subscribes* to "CDs under $10 in Portland" (see
``docs/subscriptions.md``): the plan stays armed at the sellers, and every
``update`` or ``retract`` there pushes a classified delta — ``insert``,
``update`` or ``retract`` against the subscriber's predicate — back to it.
The run then shows the one-shot handle beside the feed (items streamed,
partial pieces, a cancelled query), and churn on both ends: a seller that
leaves and rejoins, and a subscriber that leaves, misses a delta and gets
it replayed on rejoin.  A last, reliable cluster has two index servers both
claim authority over Oregon: the seller arms the subscription once and the
subscriber is told of the conflict.  The output is identical on either
transport.
"""

from __future__ import annotations

import sys

from repro.api import Cluster
from repro.namespace import garage_sale_namespace
from repro.xmlmodel import XMLElement, text_element


def cd(title: str, price: float) -> XMLElement:
    item = XMLElement("item")
    item.set("id", title)  # the key update() and retract() match on
    item.extend([
        text_element("title", title),
        text_element("price", price),
        text_element("city", "USA/OR/Portland"),
        text_element("category", "Music/CDs"),
    ])
    return item


def titles(items) -> str:
    return ", ".join(sorted(item.child_text("title") for item in items)) or "-"


def main(transport: str = "sim") -> None:
    namespace = garage_sale_namespace()
    portland_cds = namespace.area(["USA/OR/Portland", "Music/CDs"])

    with Cluster(namespace=namespace, transport=transport) as cluster:
        seller1 = cluster.base_server("seller1:9020", portland_cds)
        seller2 = cluster.base_server("seller2:9020", portland_cds)
        cluster.index_server("index-or:9020", namespace.area(["USA/OR", "*"]))
        cluster.meta_index("meta-index:9020")
        client = cluster.client("client:9020")

        seller1.publish("cds", [cd("Abbey Road", 8), cd("Kind of Blue", 12)])
        seller2.publish("cds", [cd("Blue Train", 6), cd("Giant Steps", 14)])
        cluster.connect()

        def cheap_cds():
            return client.query().area(portland_cds).where("price < 10")

        # Arm the standing query at every seller holding Portland CDs; its
        # deltas carry the titles only.
        subscription = cheap_cds().project([("title", "title")]).subscribe()
        cluster.run()
        print("Subscribed:", subscription.sub_id, " conflicts:", subscription.conflicts())

        # Three mutations, three kinds of delta for *this* predicate.
        seller1.update("cds", [cd("Blue in Green", 4)])  # new and cheap: insert
        seller1.update("cds", [cd("Blue in Green", 5)])  # still cheap: update
        removed = seller2.retract("cds", predicate="price < 10")  # gone: retract
        print("Retracted at seller2:", titles(removed))
        cluster.run_until_idle()
        print("Waiting to be read:", subscription.lag())
        for delta in subscription.deltas(limit=3):
            print(f"  {delta.kind:<8} from {delta.publisher}: {titles(delta.items)}")
        print("Read:", len(subscription.delivered()), " still waiting:", subscription.lag())

        # A snapshot re-runs the subscribed plan once; it agrees with the feed.
        print("Snapshot:", titles(subscription.snapshot(timeout=60_000).items))

        # A one-shot query beside the feed, its items streamed as they arrive.
        seller2.update("cds", [cd("Blue Train", 6)])
        cluster.run_until_idle()
        handle = cheap_cds().submit()
        print("\nOne-shot done before waiting:", handle.done())
        print("Items streamed:", titles(handle.items(timeout=60_000)))
        print("Done:", handle.done(), " partial pieces:", len(handle.partial_results()))
        either = client.query().area(portland_cds).where("price < 5 or not (price < 13)")
        print("Under $5 or $13 and up:", titles(either.submit().result(timeout=60_000).items))
        late = client.handle(handle.query_id)
        print("A late handle sees:", [("partial" if r.partial else "complete") for r in late])
        doomed = cheap_cds().submit()
        doomed.cancel()
        cluster.run_until_idle()
        print("A cancelled query:", doomed.cancelled())
        print("Feed meanwhile:", [delta.kind for delta in subscription.deltas()])

        # Seller2 states what it holds (§4.2), then leaves and comes back.
        seller2.announce(
            "base[(USA.OR.Portland,Music.CDs)]@seller2:9020 >= "
            "base[(USA.OR.Portland,Music.CDs)]@seller1:9020{15}"
        )
        seller2.leave()
        cluster.run_until_idle()
        print("\nWith seller2 gone:", titles(cheap_cds().submit().result(timeout=60_000).items))
        seller2.rejoin()
        cluster.run_until_idle()
        print("With seller2 back:", titles(cheap_cds().submit().result(timeout=60_000).items))

        # A crashed seller answers nothing; a deadline degrades, never times out.
        seller2.crash()
        degraded = cheap_cds().expecting(3).submit().result(deadline=2_000)
        print(f"With seller2 crashed: {titles(degraded.items)} "
              f"(completeness {degraded.completeness:.2f}, {degraded.reason})")
        seller2.rejoin()
        cluster.run_until_idle()

        # The subscriber leaves; a delta published meanwhile is replayed on rejoin.
        client.leave()
        cluster.run_until_idle()
        seller1.update("cds", [cd("Kind of Blue", 9)])  # now cheap: insert
        cluster.run_until_idle()
        client.rejoin()
        cluster.run_until_idle()
        for delta in subscription.deltas():
            print(f"Replayed after rejoin: {delta.kind} {titles(delta.items)}")
        subscription.unsubscribe()
        cluster.run_until_idle()
        armed = subscription.sub_id in seller1.peer.subscriptions.armed
        print("Unsubscribed; still armed at seller1:", armed)

        # A one-shot handle promoted to a standing query, used as a context
        # manager: it tears itself down on exit.
        with handle.subscribe() as scoped:
            cluster.run_until_idle()
            seller2.update("cds", [cd("Moanin'", 7)])
            print("Scoped feed:", [delta.kind for delta in scoped.deltas(timeout=5_000)])
        cluster.run_until_idle()
        print("Scoped feed active after exit:", scoped.active)


def conflicting_authorities(transport: str) -> None:
    """Two index servers both claim authority over Oregon (MOAS-style): the
    seller arms the subscription once and tells the subscriber about the
    other claimant instead of delivering every delta twice."""
    namespace = garage_sale_namespace()
    portland_cds = namespace.area(["USA/OR/Portland", "Music/CDs"])
    oregon = namespace.area(["USA/OR", "*"])

    with Cluster(namespace=namespace, transport=transport, reliable=True) as cluster:
        seller = cluster.base_server("seller1:9020", portland_cds)
        seller.publish("cds", [cd("Abbey Road", 8)])
        cluster.index_server("index-a:9020", oregon, authoritative=True)
        cluster.index_server("index-b:9020", oregon, authoritative=True)
        cluster.meta_index("meta-index:9020")
        client = cluster.client("client:9020")
        cluster.connect(online=True)  # the §3.3 registration protocol, as messages
        seller.register("index-a:9020", "index-b:9020")  # catalogued by both
        cluster.run_until_idle()

        subscription = client.subscribe(client.query().area(portland_cds).where("price < 10"))
        cluster.run_until_idle()
        for conflict in subscription.conflicts():
            print(f"\nConflict at {conflict['publisher']}: {' and '.join(conflict['authorities'])}")
        seller.update("cds", [cd("Blue in Green", 4)])
        print("One update, deltas:", [delta.kind for delta in subscription.deltas(timeout=5_000)])


if __name__ == "__main__":
    transport = sys.argv[1] if len(sys.argv) > 1 else "sim"
    main(transport)
    conflicting_authorities(transport)
