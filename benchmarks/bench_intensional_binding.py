"""EXP-INTENSIONAL — intensional statements prune redundant servers (§4 Examples 1-3).

Without intensional statements the binder must contact the union of every
overlapping base server; with equality / containment statements it can
choose an alternative that contacts fewer servers while remaining complete.
The series sweeps the replication factor (how many mirrors each primary
has) and reports servers contacted per query with and without statements.
"""

from __future__ import annotations

import pytest

from repro.catalog import (
    Binder,
    Catalog,
    CollectionRef,
    IntensionalStatement,
    ServerEntry,
    ServerRole,
)
from repro.harness import format_table
from repro.namespace import encode_interest_area, garage_sale_namespace
from conftest import emit


def _catalog_with_mirrors(replication: int, with_statements: bool):
    namespace = garage_sale_namespace()
    area = namespace.area(["USA/OR/Portland", "Music/CDs"])
    catalog = Catalog("M")
    encoded = encode_interest_area(area)
    primaries = []
    for index in range(3):
        primary = f"primary{index}:9020"
        primaries.append(primary)
        catalog.register_server(
            ServerEntry(primary, ServerRole.BASE, area, collections=[CollectionRef(primary, "/cds")])
        )
        for mirror_index in range(replication):
            mirror = f"mirror{index}-{mirror_index}:9020"
            catalog.register_server(
                ServerEntry(mirror, ServerRole.BASE, area, collections=[CollectionRef(mirror, "/cds")])
            )
            if with_statements:
                catalog.register_statement(
                    IntensionalStatement.parse(
                        f"base[{encoded}]@{primary} >= base[{encoded}]@{mirror}{{10}}"
                    )
                )
    return namespace, area, catalog


@pytest.mark.parametrize("replication", [1, 2, 4])
def test_statements_reduce_servers_contacted(benchmark, replication):
    namespace, area, catalog_with = _catalog_with_mirrors(replication, with_statements=True)
    _, _, catalog_without = _catalog_with_mirrors(replication, with_statements=False)
    query = namespace.area(["USA/OR/Portland", "Music/CDs"])

    def bind_with_statements():
        return Binder(catalog_with).bind_area(query)

    binding_with = benchmark(bind_with_statements)
    binding_without = Binder(catalog_without).bind_area(query)

    rows = [
        {
            "catalog": "without statements",
            "alternatives": len(binding_without.alternatives),
            "servers_in_best": binding_without.fewest_servers().server_count,
            "servers_in_default": binding_without.default.server_count,
        },
        {
            "catalog": "with statements",
            "alternatives": len(binding_with.alternatives),
            "servers_in_best": binding_with.fewest_servers().server_count,
            "servers_in_default": binding_with.default.server_count,
        },
    ]
    emit(f"EXP-INTENSIONAL  Replication factor {replication}", format_table(rows))
    assert binding_with.fewest_servers().server_count < binding_without.fewest_servers().server_count
    assert binding_with.default.server_count == binding_without.default.server_count


def test_redundancy_example1(benchmark):
    """Example 1: with R = S over the query area, one server suffices."""
    namespace = garage_sale_namespace()
    portland_rec = namespace.area(["USA/OR/Portland", "SportingGoods"])
    oregon_sg = namespace.area(["USA/OR", "SportingGoods"])
    catalog = Catalog("M")
    catalog.register_server(
        ServerEntry("R:9020", ServerRole.BASE, portland_rec, collections=[CollectionRef("R:9020", "/data")])
    )
    catalog.register_server(
        ServerEntry("S:9020", ServerRole.BASE, oregon_sg, collections=[CollectionRef("S:9020", "/data")])
    )
    catalog.register_statement(
        IntensionalStatement.parse(
            "base[(USA.OR.Portland,SportingGoods)]@R:9020 = base[(USA.OR.Portland,SportingGoods)]@S:9020"
        )
    )
    query = namespace.area(["USA/OR/Portland", "SportingGoods/GolfClubs"])

    binding = benchmark(lambda: Binder(catalog).bind_area(query))
    emit(
        "EXP-INTENSIONAL  Example 1 binding",
        "\n".join(f"{alt.description}: servers={alt.servers}" for alt in binding.alternatives),
    )
    assert binding.fewest_servers().server_count == 1
