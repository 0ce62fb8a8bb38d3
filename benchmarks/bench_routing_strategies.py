"""EXP-ROUTING — catalog routing versus central index, broadcast, and routing indices.

The measurable version of the paper's §1/§3 claims: "centralized index
servers don't scale with the number of clients; query broadcasting wastes
network bandwidth and hurts result quality".  One garage-sale spec is run
under all four values of ``routing``; the table reports messages, bytes,
peers contacted, latency and recall, and a second series sweeps the
Gnutella horizon to show the bandwidth/recall tradeoff broadcast faces.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.harness import (
    ROUTING_KINDS, ScaleoutSpec, build_scaleout_scenario, compare_routing_strategies,
    format_table, run_scaleout,
)
from conftest import emit

SPEC = ScaleoutSpec(name="exp-routing", topology="random", peers=16, workload="garage-sale",
                    queries=6)
COLUMNS = ["strategy", "messages", "bytes", "mean_messages_per_query", "mean_peers_per_query",
           "mean_latency_ms", "mean_recall"]


def test_strategy_comparison_table(benchmark):
    mqp_report = benchmark.pedantic(
        lambda: run_scaleout(replace(SPEC, routing="mqp")), rounds=1, iterations=1
    )
    rows = compare_routing_strategies(SPEC)
    emit(
        "EXP-ROUTING  Strategy comparison (same spec, four values of `routing`)",
        format_table(rows, COLUMNS),
    )
    by_routing = dict(zip(ROUTING_KINDS, rows))
    mqp, gnutella = by_routing["mqp"], by_routing["gnutella"]
    assert mqp["messages"] < gnutella["messages"]
    assert mqp["mean_peers_per_query"] < gnutella["mean_peers_per_query"]
    assert mqp["mean_recall"] == pytest.approx(1.0)
    assert mqp == {"strategy": "mqp-catalog", **mqp_report["traffic"]}


def _flood(horizon: int) -> dict[str, float]:
    """The spec's queries broadcast one after another at ``horizon``."""
    scenario = build_scaleout_scenario(replace(SPEC, routing="gnutella"))
    with scenario.cluster as cluster:
        for query in scenario.queries:
            query_id = scenario.client.issue_query(query.area, horizon=horizon)
            cluster.metrics.trace(query_id).expected_answers = query.expected
            cluster.run_until_idle()
        return cluster.metrics.summary()


def test_gnutella_horizon_sweep(benchmark):
    """Broadcast's tradeoff: recall needs a large horizon, messages explode with it."""
    horizons = (1, 2, 3, 5)
    summaries = benchmark.pedantic(
        lambda: [_flood(horizon) for horizon in horizons], rounds=1, iterations=1
    )
    rows = [
        {"horizon": horizon, "messages": summary["messages"],
         "mean_recall": summary["mean_recall"], "mean_peers": summary["mean_peers_per_query"]}
        for horizon, summary in zip(horizons, summaries)
    ]
    emit("EXP-ROUTING  Gnutella horizon sweep", format_table(rows))
    for narrower, wider in zip(rows, rows[1:]):
        assert narrower["messages"] <= wider["messages"]
        assert narrower["mean_recall"] <= wider["mean_recall"] + 1e-9
    assert rows[0]["messages"] < rows[-1]["messages"]
