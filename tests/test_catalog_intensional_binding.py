"""Tests for intensional statements and the binder (paper §4 Examples 1-3)."""

import pytest

from repro.catalog import (
    Binder,
    Catalog,
    CatalogLevel,
    CollectionRef,
    IntensionalStatement,
    Relation,
    ServerEntry,
    ServerHolding,
    ServerRole,
)
from repro.errors import IntensionalStatementError


class TestIntensionalStatements:
    def test_parse_equality_statement(self, namespace):
        text = "base[(USA.OR.Portland,*)]@R = base[(USA.OR.Portland,*)]@S"
        statement = IntensionalStatement.parse(text)
        assert statement.relation is Relation.EQUALS
        assert statement.lhs.server == "R"
        assert statement.rhs_servers() == ["S"]
        assert statement.to_text() == text

    def test_parse_superset_with_delay(self):
        text = "base[(USA.OR.Portland,*)]@R >= base[(USA.OR.Portland,*)]@S{30}"
        statement = IntensionalStatement.parse(text)
        assert statement.relation is Relation.SUPERSET
        assert statement.rhs[0].delay_minutes == 30
        assert statement.max_rhs_delay == 30
        assert IntensionalStatement.parse(statement.to_text()) == statement

    def test_parse_index_union_statement(self):
        text = (
            "index[(USA.OR,SportingGoods.GolfClubs)]@R = "
            "base[(USA.OR,SportingGoods.GolfClubs)]@S | "
            "base[(USA.OR,SportingGoods.GolfClubs)]@T | "
            "base[(USA.OR,SportingGoods.GolfClubs)]@U"
        )
        statement = IntensionalStatement.parse(text)
        assert statement.lhs.level is CatalogLevel.INDEX
        assert statement.rhs_servers() == ["S", "T", "U"]

    def test_applies_to_requires_level_and_cover(self, namespace):
        statement = IntensionalStatement.parse(
            "base[(USA.OR,*)]@R = base[(USA.OR,*)]@S"
        )
        assert statement.applies_to(CatalogLevel.BASE, namespace.area(["USA/OR/Portland", "Music"]))
        assert not statement.applies_to(CatalogLevel.INDEX, namespace.area(["USA/OR", "*"]))
        assert not statement.applies_to(CatalogLevel.BASE, namespace.area(["USA/WA", "*"]))

    def test_malformed_statements_rejected(self):
        with pytest.raises(IntensionalStatementError):
            IntensionalStatement.parse("nonsense")
        with pytest.raises(IntensionalStatementError):
            IntensionalStatement.parse("base[(USA,*)]@R ~ base[(USA,*)]@S")
        with pytest.raises(IntensionalStatementError):
            ServerHolding(CatalogLevel.BASE, None, "")  # type: ignore[arg-type]


def _catalog_with(namespace, entries, statements=()):
    catalog = Catalog("M")
    for address, area in entries:
        catalog.register_server(
            ServerEntry(
                address,
                ServerRole.BASE,
                area,
                collections=[CollectionRef(address, "/data", "data")],
            )
        )
    for statement in statements:
        catalog.register_statement(statement)
    return catalog


class TestBinderExample1:
    """Example 1: R and S are equal over Portland sporting goods."""

    def test_equality_statement_yields_single_server_alternatives(self, namespace):
        portland_recreation = namespace.area(["USA/OR/Portland", "SportingGoods"])
        oregon_sg = namespace.area(["USA/OR", "SportingGoods"])
        statement = IntensionalStatement.parse(
            "base[(USA.OR.Portland,SportingGoods)]@R:9020 = "
            "base[(USA.OR.Portland,SportingGoods)]@S:9020"
        )
        catalog = _catalog_with(
            namespace, [("R:9020", portland_recreation), ("S:9020", oregon_sg)], [statement]
        )
        binding = Binder(catalog).bind_area(
            namespace.area(["USA/OR/Portland", "SportingGoods/GolfClubs"])
        )
        assert binding is not None
        assert set(binding.default.servers) == {"R:9020", "S:9020"}
        single_server = [alt for alt in binding.alternatives if alt.server_count == 1]
        assert {alt.servers[0] for alt in single_server} == {"R:9020", "S:9020"}
        assert binding.fewest_servers().server_count == 1

    def test_without_statement_both_servers_needed(self, namespace):
        portland = namespace.area(["USA/OR/Portland", "SportingGoods"])
        oregon = namespace.area(["USA/OR", "SportingGoods"])
        catalog = _catalog_with(namespace, [("R:9020", portland), ("S:9020", oregon)])
        binding = Binder(catalog).bind_area(
            namespace.area(["USA/OR/Portland", "SportingGoods/GolfClubs"])
        )
        assert len(binding.alternatives) == 1
        assert binding.fewest_servers().server_count == 2


class TestBinderExample2:
    """Example 2: an index server covers exactly the base records at S, T, U."""

    def test_index_statement_offers_route_or_direct(self, namespace):
        area = namespace.area(["USA/OR", "SportingGoods/GolfClubs"])
        statement = IntensionalStatement.parse(
            "index[(USA.OR,SportingGoods.GolfClubs)]@R:9020 = "
            "base[(USA.OR,SportingGoods.GolfClubs)]@S:9020 | "
            "base[(USA.OR,SportingGoods.GolfClubs)]@T:9020 | "
            "base[(USA.OR,SportingGoods.GolfClubs)]@U:9020"
        )
        catalog = _catalog_with(
            namespace,
            [("S:9020", area), ("T:9020", area), ("U:9020", area)],
            [statement],
        )
        binding = Binder(catalog).bind_area(namespace.area(["USA/OR/Portland", "SportingGoods/GolfClubs"]))
        descriptions = [alt.description for alt in binding.alternatives]
        assert any("route to index server R:9020" in desc for desc in descriptions)
        route = next(alt for alt in binding.alternatives if "route" in alt.description)
        assert not route.is_concrete
        assert route.servers == ["R:9020"]
        # The "directly to all of S, T and U" choice coincides with the default
        # union alternative (same source set), so it appears exactly once.
        direct = binding.default
        assert set(direct.servers) == {"S:9020", "T:9020", "U:9020"}
        assert direct.is_concrete


class TestBinderExample3:
    """Example 3 / §4.3: containment with a delay factor."""

    def test_superset_with_delay_gives_fast_stale_vs_slow_current(self, namespace):
        portland = namespace.area(["USA/OR/Portland", "*"])
        statement = IntensionalStatement.parse(
            "base[(USA.OR.Portland,*)]@R:9020 >= base[(USA.OR.Portland,*)]@S:9020{30}"
        )
        catalog = _catalog_with(namespace, [("R:9020", portland), ("S:9020", portland)], [statement])
        binding = Binder(catalog).bind_area(namespace.area(["USA/OR/Portland", "Music/CDs"]))
        fast = binding.fewest_servers()
        current = binding.most_current()
        assert fast.server_count == 1 and fast.servers == ["R:9020"]
        assert fast.max_delay_minutes == 30
        assert current.max_delay_minutes == 0
        assert current.server_count == 2

    def test_unknown_area_returns_none(self, namespace):
        catalog = _catalog_with(namespace, [])
        assert Binder(catalog).bind_area(namespace.area(["France", "*"])) is None
