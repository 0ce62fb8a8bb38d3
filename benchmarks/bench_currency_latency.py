"""EXP-CURRENCY — completeness / currency / latency tradeoffs under a time budget (§4.3).

A replicated deployment (one fresh primary, one 30-minute-stale mirror per
the paper's example) is bound under different time budgets and preferences.
The table reports, per (budget, preference), the predicted latency, the
staleness bound, and the completeness of the chosen option — the
measurable version of §4.3's "fast but possibly stale versus complete and
current" choice.
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
from repro.mqp import QueryPreferences
from repro.namespace import garage_sale_namespace
from repro.qos import TradeoffPlanner
from conftest import emit


@pytest.fixture(scope="module")
def binding():
    namespace = garage_sale_namespace()
    portland = namespace.area(["USA/OR/Portland", "*"])
    catalog = Catalog("M")
    for address in ("R:9020", "S:9020", "T:9020"):
        catalog.register_server(
            ServerEntry(address, ServerRole.BASE, portland, collections=[CollectionRef(address, "/data")])
        )
    catalog.register_statement(
        IntensionalStatement.parse(
            "base[(USA.OR.Portland,*)]@R:9020 >= base[(USA.OR.Portland,*)]@S:9020{30}"
        )
    )
    catalog.register_statement(
        IntensionalStatement.parse(
            "base[(USA.OR.Portland,*)]@R:9020 >= base[(USA.OR.Portland,*)]@T:9020{30}"
        )
    )
    return Binder(catalog).bind_area(namespace.area(["USA/OR/Portland", "Music/CDs"]))


def test_budget_preference_matrix(benchmark, binding):
    planner = TradeoffPlanner(per_server_latency_ms=60, base_latency_ms=40)
    budgets = [120, 200, 400, None]
    preferences = ["complete", "current", "fast"]

    def choose_all():
        rows = []
        for budget in budgets:
            for prefer in preferences:
                option = planner.choose(
                    binding, QueryPreferences(target_time_ms=budget, prefer=prefer)
                )
                rows.append(
                    {
                        "budget_ms": budget if budget is not None else "none",
                        "prefer": prefer,
                        "latency_ms": option.predicted_latency_ms,
                        "staleness_min": option.staleness_minutes,
                        "completeness": option.completeness,
                        "servers": option.alternative.server_count,
                    }
                )
        return rows

    rows = benchmark(choose_all)
    emit("EXP-CURRENCY  Chosen option per (budget, preference)", format_table(rows))
    by_key = {(row["budget_ms"], row["prefer"]): row for row in rows}
    # Unbounded budget + "current" gives a complete, fully current answer.
    unbounded_current = by_key[("none", "current")]
    assert unbounded_current.get("staleness_min") == 0 and unbounded_current["completeness"] == 1.0
    # A tight budget with "complete" preference accepts staleness or partiality
    # to stay within the budget.
    tight_complete = by_key[(120, "complete")]
    assert tight_complete["latency_ms"] <= 120
    assert tight_complete["staleness_min"] > 0 or tight_complete["completeness"] < 1.0
    # "fast" always picks the lowest-latency option available.
    assert by_key[("none", "fast")]["latency_ms"] <= unbounded_current["latency_ms"]


def test_latency_grows_with_servers_visited(benchmark, binding):
    planner = TradeoffPlanner(per_server_latency_ms=60, base_latency_ms=40)

    def analyze():
        return sorted(planner.options(binding), key=lambda option: option.alternative.server_count)

    options = benchmark(analyze)
    emit(
        "EXP-CURRENCY  Latency versus servers visited",
        format_table(
            [
                {
                    "servers": option.alternative.server_count,
                    "latency_ms": option.predicted_latency_ms,
                    "staleness_min": option.staleness_minutes,
                    "completeness": option.completeness,
                }
                for option in options
            ]
        ),
    )
    latencies = [option.predicted_latency_ms for option in options]
    assert latencies == sorted(latencies)
