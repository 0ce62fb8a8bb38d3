"""The trie-backed catalog index vs. the linear-scan oracle.

The index must be *indistinguishable* from the linear scans of
``tests/oracles/catalog_scan.py`` — same entries, same order, byte for
byte — including under churn: randomized
register → forget/prune → rejoin sequences exercise the incremental
maintenance paths (bucket refcounts, branch pruning, role buckets) that a
build-once index would never hit.  A catalog builds its indexes on the
first lookup that needs them, so the same answers must come back wherever
that first lookup falls, and a catalog nobody reads must build none.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import repro
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
from repro.harness import scaleout
from repro.harness.cli import SCENARIOS
from repro.mqp.processor import MQPProcessor
from repro.namespace import encode_interest_area

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

    def test_merged_collections_keep_their_order_under_every_hash_seed(self):
        """A merged entry lists the known collections, then the new ones.

        Collection order feeds binding (the sources of a bound URN and the
        first collection of a server), so it must not follow the hash seed.
        """
        code = (
            "from repro.catalog import Catalog, CollectionRef, ServerEntry, ServerRole\n"
            "from repro.namespace import garage_sale_namespace\n"
            "namespace = garage_sale_namespace()\n"
            "catalog = Catalog('merge')\n"
            "for city, paths in (('USA/OR', ['/a', '/b']), ('USA/WA', ['/c', '/a'])):\n"
            "    catalog.register_server(ServerEntry(\n"
            "        's:1', ServerRole.BASE, namespace.area([city, 'Music']),\n"
            "        collections=[CollectionRef('s:1', path) for path in paths]))\n"
            "print(' '.join(ref.path for ref in catalog.servers['s:1'].collections))\n"
        )
        source = str(Path(repro.__file__).resolve().parents[1])
        for hash_seed in range(1, 7):
            env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=source)
            done = subprocess.run(
                [sys.executable, "-c", code],
                env=env, capture_output=True, text=True, timeout=60, check=True,
            )
            assert done.stdout.split() == ["/a", "/b", "/c"], hash_seed


class TestAnswerCacheEquivalence:
    """Every catalog answers a repeated lookup from its cache.  Interleaved
    with every kind of write, each answer must still be the linear scan's."""

    ROLE_FILTERS = (None, (ServerRole.BASE,), (ServerRole.INDEX, ServerRole.META_INDEX))

    @pytest.mark.parametrize("seed", [5, 23, 907])
    def test_interleaved_writes_and_repeated_lookups(self, namespace, seed):
        rng = random.Random(seed)
        catalog = Catalog("interleaved")
        addresses = [f"peer-{index:02d}:9020" for index in range(24)]
        queries = [_random_area(namespace, rng) for _ in range(6)]  # few, so lookups repeat
        writes = {"register": 0, "merge": 0, "forget": 0, "prune": 0, "statement": 0}
        for _ in range(600):
            action, address = rng.random(), rng.choice(addresses)
            if action < 0.2:
                entry = _random_entry(namespace, rng, address)
                existing = catalog.servers.get(address)
                merges = existing is not None and not entry.covers(existing.area)
                writes["merge" if merges else "register"] += 1
                catalog.register_server(entry)
            elif action < 0.27:
                writes["forget"] += 1
                catalog.forget_server(address)
            elif action < 0.34:
                writes["prune"] += 1
                catalog.prune_server(address)
            elif action < 0.4:
                writes["statement"] += 1
                lhs, rhs = rng.choice(queries), rng.choice(queries)
                catalog.register_statement(
                    IntensionalStatement.parse(
                        f"base[{encode_interest_area(lhs)}]@{address} >= "
                        f"base[{encode_interest_area(rhs)}]@{rng.choice(addresses)}"
                    )
                )
            else:
                query = rng.choice(queries)
                area = query if rng.random() < 0.5 else namespace.area(*_cells(query))
                roles = rng.choice(self.ROLE_FILTERS)
                assert catalog.servers_overlapping(area, roles) == scan_overlapping(catalog, area, roles)
                assert catalog.servers_covering(area, roles) == scan_covering(catalog, area, roles)
                for level in (CatalogLevel.BASE, CatalogLevel.INDEX):
                    assert catalog.statements_for(level, area) == scan_statements(catalog, level, area)
        cache = catalog.answer_cache
        assert all(writes.values()), writes
        assert cache.hits > 100 and cache.misses > 100 and cache.invalidations > 0

    def test_an_answer_is_a_fresh_list(self, namespace):
        catalog = Catalog("fresh")
        area = namespace.area(["USA/OR", "*"])
        catalog.register_server(ServerEntry("s:1", ServerRole.BASE, area))
        first = catalog.servers_overlapping(area)
        first.clear()  # a caller's list is its own: the cached answer is untouched
        assert [entry.address for entry in catalog.servers_overlapping(area)] == ["s:1"]
        assert catalog.answer_cache.hits == 1


def _lookups(catalog, areas):
    """Every lookup a catalog answers, over ``areas``."""
    indexing = (ServerRole.INDEX, ServerRole.META_INDEX)
    found = []
    for area in areas:
        for roles in (None, (ServerRole.BASE,), indexing):
            found.append(catalog.servers_overlapping(area, roles))
            found.append(catalog.servers_covering(area, roles))
        found.append(catalog.authoritative_servers(area))
        found.append(catalog.collections_overlapping(area))
        for level in (CatalogLevel.BASE, CatalogLevel.INDEX):
            found.append(catalog.statements_for(level, area))
    for roles in ((ServerRole.BASE,), indexing, (ServerRole.CLIENT,)):
        found.append(catalog.servers_with_roles(roles))
    return found


def _scans(catalog, areas):
    """What :func:`_lookups` must return, by linear scan."""
    indexing = (ServerRole.INDEX, ServerRole.META_INDEX)
    found = []
    for area in areas:
        for roles in (None, (ServerRole.BASE,), indexing):
            found.append(scan_overlapping(catalog, area, roles))
            found.append(scan_covering(catalog, area, roles))
        found.append([entry for entry in scan_covering(catalog, area, indexing) if entry.authoritative])
        found.append(sorted(
            collection
            for entry in scan_overlapping(catalog, area, (ServerRole.BASE,))
            for collection in entry.collections
        ))
        for level in (CatalogLevel.BASE, CatalogLevel.INDEX):
            found.append(scan_statements(catalog, level, area))
    for roles in ((ServerRole.BASE,), indexing, (ServerRole.CLIENT,)):
        found.append(scan_with_roles(catalog, roles))
    return found


def _random_writes(namespace, rng, count, areas):
    """``count`` seeded writes as (method name, argument) pairs; the
    statements' left-hand sides are drawn from ``areas``, so they apply."""
    addresses = [f"peer-{index:02d}:9020" for index in range(20)]
    statements = [
        IntensionalStatement.parse(
            f"{level}[{encode_interest_area(rng.choice(areas))}]@{rng.choice(addresses)} "
            f">= {level}[{encode_interest_area(_random_area(namespace, rng))}]@{rng.choice(addresses)}"
        )
        for level in ("base", "index", "base", "index", "base", "base")
    ]
    writes = []
    for _ in range(count):
        action, address = rng.random(), rng.choice(addresses)
        if action < 0.5:
            writes.append(("register_server", _random_entry(namespace, rng, address)))
        elif action < 0.7:
            writes.append(("register_statement", rng.choice(statements)))  # repeats, too
        elif action < 0.85:
            writes.append(("forget_server", address))
        else:
            writes.append(("prune_server", address))
    return writes


class TestFirstReadAnywhere:
    """A catalog builds its indexes on the first lookup, then maintains them.

    Wherever that first lookup falls in a run of writes — before any, after
    every k-th, or only at the end with more writes after it — every answer
    must be the linear scan's and that of a twin catalog read after every
    write.
    """

    @pytest.mark.parametrize("seed", [2, 31, 977])
    @pytest.mark.parametrize("first_read", ["before-any-write", "every-kth-write", "at-the-end"])
    def test_reads_match_the_scan_and_an_always_read_twin(self, namespace, seed, first_read):
        rng = random.Random(seed)
        areas = [_random_area(namespace, rng) for _ in range(4)] + [namespace.top_area()]
        writes = _random_writes(namespace, rng, 240, areas)
        ends = (len(writes) // 2, len(writes))  # the first read "at the end" is the first end
        every = rng.choice([3, 5, 7])
        reads = {
            "before-any-write": {0, *ends},
            "every-kth-write": {*range(every, len(writes) + 1, every), *ends},
            "at-the-end": set(ends),
        }[first_read]
        lazy, twin = Catalog("lazy"), Catalog("twin")
        merges = 0
        for step, (method, argument) in enumerate([(None, None), *writes]):
            if method is not None:
                if method == "register_server":
                    existing = lazy.servers.get(argument.address)
                    merges += existing is not None and not argument.covers(existing.area)
                getattr(lazy, method)(argument)
                getattr(twin, method)(argument)
            expected = _lookups(twin, areas)
            assert expected == _scans(twin, areas)
            if step == min(reads):
                assert not lazy.indexed
            if step in reads:
                assert _lookups(lazy, areas) == expected, step
                assert lazy.indexed
        assert lazy.servers == twin.servers and lazy.statements == twin.statements
        assert merges and len(lazy.statements) < sum(m == "register_statement" for m, _ in writes)
        assert any(twin.statements_for(level, area) for level in CatalogLevel for area in areas)

    def test_a_catalog_built_with_contents_answers(self, namespace):
        rng = random.Random(8)
        areas = [_random_area(namespace, rng) for _ in range(6)]
        filled = Catalog("filled")
        for method, argument in _random_writes(namespace, rng, 80, areas):
            getattr(filled, method)(argument)
        built = Catalog("built", servers=dict(filled.servers), statements=list(filled.statements))
        assert _lookups(built, areas) == _scans(filled, areas)
        statement = filled.statements[0]
        built.register_statement(statement)  # already held: deduplicated
        assert built.statements == filled.statements


class TestUnreadCatalogs:
    """Only a peer that binds or routes a plan reads its catalog, so only
    those catalogs hold an index; the rest are only ever registered into."""

    def test_only_catalogs_that_bind_or_route_build_an_index(self, monkeypatch):
        spec = replace(SCENARIOS["thousand-peers"], peers=60, churn="none")
        indexed_after_set_up: list[str] = []
        build = scaleout.build_scaleout_scenario

        def build_and_census(*args, **kwargs):
            scenario = build(*args, **kwargs)
            indexed_after_set_up.extend(
                peer.address for peer in scenario.cluster.peers() if peer.catalog.indexed
            )
            return scenario

        readers: set[str] = set()

        def recording(method):
            def wrapper(self, *args, **kwargs):
                readers.add(self.address)
                return method(self, *args, **kwargs)
            return wrapper

        monkeypatch.setattr(scaleout, "build_scaleout_scenario", build_and_census)
        monkeypatch.setattr(MQPProcessor, "_bind_urns", recording(MQPProcessor._bind_urns))
        monkeypatch.setattr(MQPProcessor, "_route", recording(MQPProcessor._route))
        scenario, _ = scaleout.run_scenario(spec)

        assert indexed_after_set_up == []
        peers = list(scenario.cluster.peers())
        assert len(peers) == 64
        indexed = {peer.address for peer in peers if peer.catalog.indexed}
        assert indexed == readers == {
            scenario.client.address,
            scenario.meta_index.address,
            *(peer.address for peer in scenario.index_servers),
        }


def _cells(area):
    return [[str(coordinate) for coordinate in cell.coordinates] for cell in area]
