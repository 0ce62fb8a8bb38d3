"""FIG-3 / FIG-4 — the Portland-CDs mutant query, end to end.

Reproduces the running example: the Figure 3 plan (favourite songs ⋈ track
listings ⋈ cheap Portland CDs) travels the simulated network, URNs are
resolved to seller URLs (Figure 4a), selections are pushed through the
union, and each seller reduces its part of the plan (Figure 4b) until the
fully evaluated result reaches the client.  The report shows the hop
sequence and the per-query traffic; the benchmark times the whole
end-to-end execution.
"""

from __future__ import annotations

import pytest

from repro.harness import run_cd_query_mqp
from repro.workloads import CDWorkload, CDWorkloadConfig
from conftest import emit


@pytest.mark.parametrize("sellers", [2, 4])
def test_figure3_cd_query_end_to_end(benchmark, sellers):
    workload = CDWorkload(CDWorkloadConfig(sellers=sellers, cds_per_seller=12, seed=17))
    expected = workload.expected_matches()

    def run():
        return run_cd_query_mqp(workload)

    summary, found = benchmark(run)
    emit(
        f"FIG-3/4  Portland-CDs query with {sellers} sellers",
        "\n".join(
            [
                f"expected_matches={len(expected)} found={len(found)}",
                f"messages={summary['messages']:.0f} bytes={summary['bytes']:.0f}",
                f"peers_visited={summary['mean_peers_per_query']:.1f} "
                f"latency_ms={summary['mean_latency_ms']:.1f}",
            ]
        ),
    )
    assert found == expected
    assert summary["mean_recall"] == pytest.approx(1.0)


def test_figure4_resolution_and_reduction_steps(benchmark):
    """Counts the mutation steps of Figure 4: URN bindings and sub-plan reductions."""
    from repro.catalog import Catalog, CollectionRef, NamedResourceEntry
    from repro.mqp import MQPProcessor, MutantQueryPlan
    from repro.workloads import FORSALE_URN, TRACKLIST_URN

    workload = CDWorkload(CDWorkloadConfig(sellers=2, seed=17))
    namespace = workload.namespace

    index_catalog = Catalog("index")
    for seller in workload.sellers:
        index_catalog.register_named_resource(
            NamedResourceEntry(FORSALE_URN, [CollectionRef(seller.address, "/cds")])
        )
    index_catalog.register_named_resource(
        NamedResourceEntry(TRACKLIST_URN, [CollectionRef("tracklist:9020", "/tracklistings")])
    )
    processors = {"index-portland:9020": MQPProcessor("index-portland:9020", index_catalog, namespace)}
    for seller in workload.sellers:
        processors[seller.address] = MQPProcessor(
            seller.address, Catalog(seller.address), namespace, collections={"/cds": seller.items}
        )
    processors["tracklist:9020"] = MQPProcessor(
        "tracklist:9020",
        Catalog("tracklist"),
        namespace,
        collections={"/tracklistings": workload.track_listings},
    )

    def run_hops():
        mqp = MutantQueryPlan(workload.figure3_plan("client:9020"))
        hops = ["index-portland:9020"] + [s.address for s in workload.sellers] + ["tracklist:9020"]
        bindings = reductions = 0
        for hop in hops:
            result = processors[hop].process(mqp, now=0.0)
            bindings += result.bound_urns
            reductions += result.evaluated_subplans
            mqp = MutantQueryPlan.deserialize(result.mqp.serialize())
        return bindings, reductions, mqp

    bindings, reductions, final = benchmark(run_hops)
    emit(
        "FIG-4  Mutation steps",
        f"urn_bindings={bindings} subplan_reductions={reductions} "
        f"fully_evaluated={final.is_fully_evaluated()} result_items={len(final.plan.result().children) if final.is_fully_evaluated() else 0}",
    )
    assert bindings == 2
    assert reductions >= 2
    assert final.is_fully_evaluated()
