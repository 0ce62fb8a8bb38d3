"""FIG-2 — the per-server MQP processing pipeline.

Times one pass through the Figure 2 pipeline (parse the incoming XML plan,
resolve URNs against the catalog, re-optimize, evaluate the locally
evaluable sub-plans, serialize the mutated plan) on a server that holds the
relevant data, for growing collection sizes.  The series shows how the
per-hop cost is dominated by evaluation + (re)serialization of embedded
partial results — the "their size matters" point of §2.
"""

from __future__ import annotations

import pytest

from repro.algebra import PlanBuilder
from repro.catalog import Catalog, CollectionRef, NamedResourceEntry
from repro.mqp import MQPProcessor, MutantQueryPlan, ProcessingAction
from repro.namespace import garage_sale_namespace
from repro.workloads import GarageSaleConfig, GarageSaleWorkload
from conftest import emit


def _server_with_items(item_count: int):
    namespace = garage_sale_namespace()
    workload = GarageSaleWorkload(
        GarageSaleConfig(sellers=1, mean_items_per_seller=item_count, seed=3)
    )
    items = workload.all_items()[:item_count]
    catalog = Catalog("server")
    catalog.register_named_resource(
        NamedResourceEntry("urn:ForSale:Portland-CDs", [CollectionRef("server:9020", "/items")])
    )
    processor = MQPProcessor("server:9020", catalog, namespace, collections={"/items": items})
    return processor, items


def _incoming_plan_document():
    plan = (
        PlanBuilder.urn("urn:ForSale:Portland-CDs")
        .select("price < 100")
        .display("client:9020")
    )
    return MutantQueryPlan(plan).serialize()


@pytest.mark.parametrize("item_count", [10, 50, 200])
def test_pipeline_single_hop(benchmark, item_count):
    processor, items = _server_with_items(item_count)
    document = _incoming_plan_document()

    def one_hop():
        mqp = MutantQueryPlan.deserialize(document)
        result = processor.process(mqp, now=0.0)
        return result, mqp.serialize()

    (result, outgoing) = benchmark(one_hop)
    emit(
        f"FIG-2  One pipeline pass (items={item_count})",
        f"action={result.action.value} bound_urns={result.bound_urns} "
        f"evaluated={result.evaluated_subplans} outgoing_bytes={len(outgoing)}",
    )
    assert result.action in (ProcessingAction.DELIVER, ProcessingAction.FORWARD)
    assert result.bound_urns == 1


def test_pipeline_stage_breakdown(benchmark):
    """Times only parse + serialize to separate wire-format cost from evaluation."""
    processor, items = _server_with_items(100)
    document = _incoming_plan_document()
    mqp = MutantQueryPlan.deserialize(document)
    processor.process(mqp, now=0.0)
    evaluated_document = mqp.serialize()

    def parse_and_serialize():
        return MutantQueryPlan.deserialize(evaluated_document).serialize()

    round_tripped = benchmark(parse_and_serialize)
    emit(
        "FIG-2  Wire-format cost after reduction",
        f"evaluated_plan_bytes={len(evaluated_document)} roundtrip_bytes={len(round_tripped)}",
    )
    assert len(round_tripped) == len(evaluated_document)
