"""Tests for catalog entries, the local catalog, and routing caches."""

import pytest

from repro.catalog import (
    Catalog,
    CatalogLevel,
    CollectionRef,
    IntensionalStatement,
    NamedResourceEntry,
    RoutingCache,
    ServerEntry,
    ServerRole,
)
from repro.errors import CatalogError


@pytest.fixture()
def catalog(namespace):
    built = Catalog("test-peer")
    built.register_server(
        ServerEntry(
            "seller-a:9020",
            ServerRole.BASE,
            namespace.area(["USA/OR/Portland", "Music/CDs"]),
            collections=[CollectionRef("seller-a:9020", "/cds", "cds", 10)],
        )
    )
    built.register_server(
        ServerEntry(
            "seller-b:9020",
            ServerRole.BASE,
            namespace.area(["USA/WA/Seattle", "Furniture"]),
            collections=[CollectionRef("seller-b:9020", "/furniture", "furniture", 4)],
        )
    )
    built.register_server(
        ServerEntry("index-or:9020", ServerRole.INDEX, namespace.area(["USA/OR", "*"]), authoritative=True)
    )
    built.register_server(
        ServerEntry("meta:9020", ServerRole.META_INDEX, namespace.top_area(), authoritative=True)
    )
    return built


class TestEntries:
    def test_collection_ref_validation(self):
        with pytest.raises(CatalogError):
            CollectionRef("")
        assert str(CollectionRef("http://10.3.4.5", "/data[id=245]")) == "(http://10.3.4.5, /data[id=245])"

    def test_server_entry_overlap_and_cover(self, namespace):
        entry = ServerEntry("s:1", ServerRole.BASE, namespace.area(["USA/OR", "Furniture"]))
        assert entry.overlaps(namespace.area(["USA/OR/Portland", "*"]))
        assert entry.covers(namespace.area(["USA/OR/Portland", "Furniture/Chairs"]))
        assert not entry.covers(namespace.area(["USA/WA", "Furniture"]))

    def test_named_resource_merge(self, namespace):
        first = NamedResourceEntry("urn:ForSale:Portland-CDs", [CollectionRef("a:1", "/cds")])
        second = NamedResourceEntry(
            "urn:ForSale:Portland-CDs",
            [CollectionRef("b:1", "/cds")],
            resolver_servers=["index:1"],
            area=namespace.area(["USA/OR/Portland", "Music/CDs"]),
        )
        first.merge(second)
        assert len(first.collections) == 2
        assert first.resolver_servers == ["index:1"]
        assert first.area is not None
        with pytest.raises(CatalogError):
            first.merge(NamedResourceEntry("urn:Other:name"))


class TestCatalog:
    def test_servers_overlapping_by_role(self, catalog, namespace):
        portland_cds = namespace.area(["USA/OR/Portland", "Music/CDs"])
        bases = catalog.servers_overlapping(portland_cds, roles=(ServerRole.BASE,))
        assert [entry.address for entry in bases] == ["seller-a:9020"]
        indexers = catalog.servers_overlapping(portland_cds, roles=(ServerRole.INDEX, ServerRole.META_INDEX))
        assert {entry.address for entry in indexers} == {"index-or:9020", "meta:9020"}

    def test_authoritative_servers_must_cover(self, catalog, namespace):
        assert {entry.address for entry in catalog.authoritative_servers(namespace.area(["USA/OR", "Music"]))} == {
            "index-or:9020",
            "meta:9020",
        }
        assert {entry.address for entry in catalog.authoritative_servers(namespace.area(["USA/WA", "Music"]))} == {
            "meta:9020"
        }

    def test_collections_overlapping(self, catalog, namespace):
        collections = catalog.collections_overlapping(namespace.area(["USA/OR/Portland", "*"]))
        assert [collection.path for collection in collections] == ["/cds"]

    def test_reregistration_merges_areas(self, catalog, namespace):
        catalog.register_server(
            ServerEntry("seller-a:9020", ServerRole.BASE, namespace.area(["USA/OR/Eugene", "Music/CDs"]))
        )
        merged = catalog.servers["seller-a:9020"]
        assert merged.overlaps(namespace.area(["USA/OR/Eugene", "*"]))
        assert merged.overlaps(namespace.area(["USA/OR/Portland", "*"]))

    def test_named_resources(self, catalog):
        catalog.register_named_resource(
            NamedResourceEntry("urn:ForSale:Portland-CDs", [CollectionRef("seller-a:9020", "/cds")])
        )
        assert catalog.lookup_named("urn:ForSale:Portland-CDs") is not None
        assert catalog.lookup_named("urn:Missing:name") is None

    def test_statements_for(self, catalog, namespace):
        statement = IntensionalStatement.parse(
            "base[(USA.OR.Portland,*)]@seller-a:9020 = base[(USA.OR.Portland,*)]@seller-b:9020"
        )
        catalog.register_statement(statement)
        catalog.register_statement(statement)  # duplicate ignored
        assert len(catalog.statements) == 1
        found = catalog.statements_for(CatalogLevel.BASE, namespace.area(["USA/OR/Portland", "Music/CDs"]))
        assert found == [statement]
        assert catalog.statements_for(CatalogLevel.BASE, namespace.area(["USA/WA", "*"])) == []

    def test_forget(self, catalog):
        assert "seller-b:9020" in catalog.known_addresses()
        catalog.forget_server("seller-b:9020")
        assert "seller-b:9020" not in catalog.known_addresses()
        assert "seller-b:9020" not in catalog.servers

    def test_size_counts_everything(self, catalog):
        size_before = catalog.size()
        catalog.register_named_resource(NamedResourceEntry("urn:A:b", [CollectionRef("x:1")]))
        assert catalog.size() == size_before + 1


class TestRoutingCache:
    def test_remember_and_lookup_cover(self, namespace):
        cache = RoutingCache(capacity=4)
        cache.remember(namespace.area(["USA/OR", "*"]), "index-or:9020")
        hits = cache.lookup(namespace.area(["USA/OR/Portland", "Music/CDs"]))
        assert [hit.server for hit in hits] == ["index-or:9020"]
        assert cache.hits == 1

    def test_most_specific_entry_first(self, namespace):
        cache = RoutingCache()
        cache.remember(namespace.top_area(), "meta:9020")
        cache.remember(namespace.area(["USA/OR", "*"]), "index-or:9020")
        best, *_ = cache.lookup(namespace.area(["USA/OR/Portland", "*"]))
        assert best.server == "index-or:9020"

    def test_lru_eviction(self, namespace):
        cache = RoutingCache(capacity=2)
        cache.remember(namespace.area(["USA/OR", "*"]), "a:1")
        cache.remember(namespace.area(["USA/WA", "*"]), "b:1")
        cache.remember(namespace.area(["USA/CA", "*"]), "c:1")
        assert len(cache) == 2
        assert cache.lookup(namespace.area(["USA/OR/Portland", "*"])) == []

    def test_forget_server(self, namespace):
        cache = RoutingCache()
        cache.remember(namespace.area(["USA/OR", "*"]), "index-or:9020")
        cache.forget_server("index-or:9020")
        assert len(cache) == 0

    def test_hits_and_misses(self, namespace):
        cache = RoutingCache()
        cache.lookup(namespace.top_area())
        cache.remember(namespace.top_area(), "meta:9020")
        cache.lookup(namespace.top_area())
        assert cache.hits == 1 and cache.misses == 1

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            RoutingCache(capacity=0)

    def test_forget_server_canonicalizes_addresses(self, namespace):
        # Regression: an entry cached under a non-canonical address used to
        # survive forget_server (and keep routing at a pruned server).
        cache = RoutingCache()
        cache.remember(namespace.area(["USA/OR", "*"]), "http://index-or:9020/")
        cache.forget_server("index-or:9020")
        assert len(cache) == 0
        cache.remember(namespace.area(["USA/OR", "*"]), "index-or:9020")
        cache.forget_server("https://index-or:9020")
        assert len(cache) == 0

    def test_eviction_order_respects_lookup_recency(self, namespace):
        cache = RoutingCache(capacity=2)
        cache.remember(namespace.area(["USA/OR", "*"]), "a:1")
        cache.remember(namespace.area(["USA/WA", "*"]), "b:1")
        # A hit refreshes a:1, so the next insert evicts b:1 instead.
        assert cache.lookup(namespace.area(["USA/OR/Portland", "*"]))
        cache.remember(namespace.area(["USA/CA", "*"]), "c:1")
        assert cache.lookup(namespace.area(["USA/WA/Seattle", "*"])) == []
        hits = cache.lookup(namespace.area(["USA/OR/Portland", "*"]))
        assert [hit.server for hit in hits] == ["a:1"]

    def test_specificity_tie_break_is_address_order(self, namespace):
        cache = RoutingCache()
        area = namespace.area(["USA/OR", "*"])
        cache.remember(area, "b:1")
        cache.remember(area, "a:1")
        hits = cache.lookup(namespace.area(["USA/OR/Portland", "*"]))
        assert [hit.server for hit in hits] == ["a:1", "b:1"]

    def test_forget_frees_capacity_before_eviction(self, namespace):
        cache = RoutingCache(capacity=2)
        cache.remember(namespace.area(["USA/OR", "*"]), "a:1")
        cache.remember(namespace.area(["USA/WA", "*"]), "b:1")
        cache.forget_server("a:1")
        cache.remember(namespace.area(["USA/CA", "*"]), "c:1")
        # forget freed the slot, so the oldest survivor was not evicted.
        hits = cache.lookup(namespace.area(["USA/WA/Seattle", "*"]))
        assert [hit.server for hit in hits] == ["b:1"]
        assert cache.lookup(namespace.area(["USA/OR/Portland", "*"])) == []
