"""The trie-backed catalog index vs. the linear-scan oracle.

The index must be *indistinguishable* from the linear scans of
``tests/oracles/catalog_scan.py`` — same entries, same order, byte for
byte — including under churn: randomized
register → forget/prune → rejoin sequences exercise the incremental
maintenance paths (bucket refcounts, branch pruning, role buckets) that a
build-once index would never hit.
"""

from __future__ import annotations

import random

import pytest

from repro.catalog import (
    Catalog,
    CatalogLevel,
    CollectionRef,
    IntensionalStatement,
    NamedResourceEntry,
    ServerEntry,
    ServerRole,
    canonical_address,
)

from oracles.catalog_scan import scan_covering, scan_overlapping, scan_statements, scan_with_roles

ROLES = [ServerRole.BASE] * 6 + [ServerRole.INDEX, ServerRole.META_INDEX, ServerRole.CLIENT]


def _random_area(namespace, rng):
    locations = namespace.dimensions[0].categories()
    merchandise = namespace.dimensions[1].categories()
    cells = [
        [rng.choice(locations), rng.choice(merchandise)]
        for _ in range(rng.choice([1, 1, 1, 2]))
    ]
    return namespace.area(*cells)


def _random_entry(namespace, rng, address):
    role = rng.choice(ROLES)
    return ServerEntry(
        address,
        role,
        _random_area(namespace, rng),
        authoritative=rng.random() < 0.5,
        collections=[CollectionRef(address, "/items")] if role is ServerRole.BASE else [],
    )


def _assert_equivalent(catalog, namespace, rng, checks=12):
    """Every lookup flavour must match the linear oracle, order included."""
    role_filters = (
        None,
        (ServerRole.BASE,),
        (ServerRole.INDEX, ServerRole.META_INDEX),
        (ServerRole.CLIENT,),
    )
    for _ in range(checks):
        area = _random_area(namespace, rng)
        for roles in role_filters:
            assert catalog.servers_overlapping(area, roles=roles) == scan_overlapping(
                catalog, area, roles
            )
            assert catalog.servers_covering(area, roles=roles) == scan_covering(
                catalog, area, roles
            )
            if roles is not None:
                assert catalog.servers_with_roles(roles) == scan_with_roles(catalog, roles)
        assert catalog.authoritative_servers(area) == [
            entry
            for entry in scan_covering(catalog, area, (ServerRole.INDEX, ServerRole.META_INDEX))
            if entry.authoritative
        ]
        assert catalog.collections_overlapping(area) == sorted(
            collection
            for entry in scan_overlapping(catalog, area, (ServerRole.BASE,))
            for collection in entry.collections
        )
        for level in (CatalogLevel.BASE, CatalogLevel.INDEX):
            assert catalog.statements_for(level, area) == scan_statements(catalog, level, area)


class TestChurnEquivalence:
    @pytest.mark.parametrize("seed", [3, 17, 4040])
    def test_randomized_register_prune_rejoin(self, namespace, seed):
        rng = random.Random(seed)
        catalog = Catalog("churn-test")
        addresses = [f"peer-{index:03d}:9020" for index in range(60)]

        # Phase 1: initial registration flood (with duplicate statements).
        for address in addresses:
            catalog.register_server(_random_entry(namespace, rng, address))
        for index in range(0, len(addresses), 7):
            statement = IntensionalStatement.parse(
                f"base[(USA.OR,*)]@{addresses[index]} >= base[(USA.OR,*)]@{addresses[(index + 1) % len(addresses)]}"
            )
            catalog.register_statement(statement)
            catalog.register_statement(statement)
        _assert_equivalent(catalog, namespace, rng)

        # Phase 2: churn — leave/crash (forget or prune), then rejoin with a
        # *different* area (the merge path) or the same one.
        for _ in range(120):
            action = rng.random()
            address = rng.choice(addresses)
            if action < 0.35:
                catalog.forget_server(address)
            elif action < 0.6:
                catalog.prune_server(address)
            else:
                catalog.register_server(_random_entry(namespace, rng, address))
        _assert_equivalent(catalog, namespace, rng)

        # Phase 3: everyone rejoins; the catalog is fully populated again.
        for address in addresses:
            catalog.register_server(_random_entry(namespace, rng, address))
        _assert_equivalent(catalog, namespace, rng)

class TestOrderingUnchangedVsSeed:
    def test_results_in_address_order(self, namespace):
        """The seed sorted every scan by address; the index must match."""
        catalog = Catalog("ordering")
        rng = random.Random(5)
        # Register in shuffled order so bucket order != address order.
        addresses = [f"peer-{index:03d}:9020" for index in range(40)]
        shuffled = addresses[:]
        rng.shuffle(shuffled)
        for address in shuffled:
            catalog.register_server(_random_entry(namespace, rng, address))
        area = namespace.top_area()
        result = [entry.address for entry in catalog.servers_overlapping(area)]
        assert result == sorted(result)
        assert result == [entry.address for entry in scan_overlapping(catalog, area)]
        covering = [entry.address for entry in catalog.servers_covering(area)]
        assert covering == sorted(covering)

    def test_statements_in_registration_order(self, namespace):
        catalog = Catalog("statement-order")
        texts = [
            "base[(USA.OR,*)]@c:1 >= base[(USA.OR,*)]@d:1",
            "base[(USA,*)]@a:1 = base[(USA,*)]@b:1",
            "base[(USA.OR.Portland,*)]@e:1 >= base[(USA.OR.Portland,*)]@f:1",
        ]
        for text in texts:
            catalog.register_statement(IntensionalStatement.parse(text))
        area = namespace.area(["USA/OR/Portland", "Music"])
        found = catalog.statements_for(CatalogLevel.BASE, area)
        assert [statement.to_text() for statement in found] == texts

    def test_statement_dedupe_is_set_based(self):
        catalog = Catalog("dedupe")
        statement = IntensionalStatement.parse("base[(USA,*)]@a:1 = base[(USA,*)]@b:1")
        for _ in range(5):
            catalog.register_statement(statement)
            catalog.register_statement(IntensionalStatement.parse(statement.to_text()))
        assert catalog.statements == [statement]


class TestPruneCanonicalUrls:
    def test_prune_matches_any_url_shape(self, namespace):
        catalog = Catalog("prune")
        area = namespace.area(["USA/OR/Portland", "Music/CDs"])
        catalog.register_named_resource(
            NamedResourceEntry(
                "urn:ForSale:Portland-CDs",
                [
                    CollectionRef("http://seller-a:9020/", "/cds"),
                    CollectionRef("https://seller-a:9020", "/more-cds"),
                    CollectionRef("seller-a:9020", "/yet-more"),
                    CollectionRef("http://seller-b:9020", "/keep"),
                ],
                resolver_servers=["seller-a:9020", "index:9020"],
                area=area,
            )
        )
        removed = catalog.prune_server("seller-a:9020")
        assert removed == 4  # three collections + one resolver pointer
        entry = catalog.lookup_named("urn:ForSale:Portland-CDs")
        assert [collection.url for collection in entry.collections] == ["http://seller-b:9020"]
        assert entry.resolver_servers == ["index:9020"]

    def test_canonical_address_forms(self):
        assert canonical_address("http://host:9020") == "host:9020"
        assert canonical_address("https://host:9020/") == "host:9020"
        assert canonical_address("host:9020") == "host:9020"
        assert canonical_address(" http://host:8080/ ") == "host:8080"
        # Ports distinguish peers; normalization must not erase them.
        assert canonical_address("http://host:8080") != canonical_address("http://host:9020")


class TestIndexMaintenance:
    def test_forget_then_lookup_never_sees_ghost(self, namespace):
        catalog = Catalog("ghosts")
        entry = ServerEntry(
            "ghost:9020", ServerRole.BASE, namespace.area(["USA/OR", "Music"])
        )
        catalog.register_server(entry)
        assert catalog.servers_overlapping(namespace.area(["USA/OR", "*"]))
        catalog.forget_server("ghost:9020")
        assert catalog.servers_overlapping(namespace.area(["USA/OR", "*"])) == []
        # Re-register with a disjoint area: the old trie path must be gone.
        catalog.register_server(
            ServerEntry("ghost:9020", ServerRole.BASE, namespace.area(["USA/WA", "Music"]))
        )
        assert catalog.servers_overlapping(namespace.area(["USA/OR", "*"])) == []
        assert [entry.address for entry in catalog.servers_overlapping(namespace.area(["USA/WA", "*"]))] == [
            "ghost:9020"
        ]

    def test_merge_reregistration_reindexes_union(self, namespace):
        catalog = Catalog("merge")
        catalog.register_server(
            ServerEntry("s:1", ServerRole.BASE, namespace.area(["USA/OR/Portland", "Music"]))
        )
        catalog.register_server(
            ServerEntry("s:1", ServerRole.BASE, namespace.area(["USA/WA/Seattle", "Furniture"]))
        )
        for query in (["USA/OR/Portland", "*"], ["USA/WA/Seattle", "*"]):
            found = catalog.servers_overlapping(namespace.area(query))
            assert [entry.address for entry in found] == ["s:1"]
            assert found == scan_overlapping(catalog, namespace.area(query))
