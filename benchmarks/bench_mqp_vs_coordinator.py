"""EXP-MQP-VS-COORD — mutant query plans versus coordinator execution and semi-joins.

The paper ([PM02a], §2) positions MQPs as trading pipelining/parallelism
for robustness and reduced coordination.  For the Figure 3 join query the
table compares messages, bytes moved, and simulated latency under (a) MQP
execution and (b) a coordinator that pushes selections and collects every
partial result centrally; a second table adds the classical two-site
shipping comparison (ship-whole-relation vs semi-join vs the MQP-style
pre-reduced partial result).
"""

from __future__ import annotations

import pytest

from repro.distributed import estimate_full_ship, estimate_semijoin
from repro.engine import QueryEngine
from repro.algebra import PlanBuilder
from repro.harness import format_table, run_cd_query_coordinator, run_cd_query_mqp
from repro.workloads import CDWorkload, CDWorkloadConfig
from repro.xmlmodel import serialized_size
from conftest import emit


@pytest.mark.parametrize("sellers", [2, 4])
def test_mqp_vs_coordinator(benchmark, sellers):
    workload = CDWorkload(CDWorkloadConfig(sellers=sellers, cds_per_seller=15, seed=29))
    expected = workload.expected_matches()

    def run_both():
        return run_cd_query_mqp(workload), run_cd_query_coordinator(workload)

    (mqp_summary, mqp_found), (coord_summary, coord_found) = benchmark.pedantic(
        run_both, rounds=1, iterations=1
    )
    rows = [
        {"strategy": "mqp", **{k: mqp_summary[k] for k in ("messages", "bytes", "mean_latency_ms", "mean_recall")}},
        {
            "strategy": "coordinator",
            **{k: coord_summary[k] for k in ("messages", "bytes", "mean_latency_ms", "mean_recall")},
        },
    ]
    emit(f"EXP-MQP-VS-COORD  Figure-3 query, {sellers} sellers", format_table(rows))
    assert mqp_found == expected and coord_found == expected
    assert mqp_summary["messages"] < coord_summary["messages"]


def test_two_site_shipping_comparison(benchmark):
    """Ship-whole vs semi-join vs MQP partial-result shipping for one join."""
    workload = CDWorkload(CDWorkloadConfig(sellers=1, cds_per_seller=40, seed=31))
    cds = workload.sellers[0].items
    listings = workload.track_listings

    def compute():
        cheap = QueryEngine().evaluate(
            PlanBuilder.data(cds, name="cds").select(f"price < {workload.config.max_price:g}").build()
        )
        mqp_partial_bytes = sum(serialized_size(item) for item in cheap)
        semijoin = estimate_semijoin(cheap, listings, "//title", "//CD/title")
        return mqp_partial_bytes, semijoin

    mqp_partial_bytes, semijoin = benchmark(compute)
    rows = [
        {"strategy": "ship whole track-listing relation", "bytes_moved": estimate_full_ship(listings)},
        {"strategy": "semi-join (keys + matches)", "bytes_moved": semijoin.total_bytes},
        {"strategy": "mqp partial result (reduced CDs)", "bytes_moved": mqp_partial_bytes},
    ]
    emit("EXP-MQP-VS-COORD  Two-site shipping comparison", format_table(rows))
    assert semijoin.total_bytes < estimate_full_ship(listings)
