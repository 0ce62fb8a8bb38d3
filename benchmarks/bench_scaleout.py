"""SCALE-OUT — a popular query's plans through one hot server at 1,000 peers.

A server remembers what it has reduced until its next local write
(:class:`repro.engine.memo.EvaluationMemo`, owned by
:class:`repro.mqp.processor.MQPProcessor`): sub-plan evaluation, statistics
collection and result serialization are done once per distinct sub-plan
shape instead of once per plan.

This benchmark builds the real thousand-peer garage-sale population, takes
one data-holding peer whose catalog reflects that scale, and pushes a
stream of same-shaped (unique-id) plans through ``process`` — the first
evaluates, the rest replay.  The gated number is the stream's absolute
plans/second; there is one path through a hop, so no ratio against another.

``REPRO_BENCH_QUICK=1`` shrinks the population and repetition counts for CI
smoke runs.
"""

from __future__ import annotations

import time

import pytest

import benchjson
from repro.algebra import PlanBuilder
from repro.catalog import CollectionRef, NamedResourceEntry
from repro.harness.scaleout import ScaleoutSpec, build_scaleout_scenario
from repro.mqp import MutantQueryPlan
from repro.xmlmodel import serialize_xml
from conftest import emit

QUICK = benchjson.quick_mode()
BENCH = "scaleout"
PEERS = 200 if QUICK else 1000
BATCH_SIZE = 16 if QUICK else 64
REPEATS = 2 if QUICK else 5

FORSALE_URN = "urn:ForSale:ScaleoutBench"


@pytest.fixture(scope="module")
def hot_server():
    """A data-holding peer inside the 1,000-peer scenario.

    The paper insists roles are not fixed, so the busiest index server also
    serves the union of its region's items as a named collection — giving
    the pipeline both a large catalog (binding, routing scans) and real
    evaluation work (select + statistics over the collection).
    """
    spec = ScaleoutSpec(
        name="bench", topology="scale-free", peers=PEERS, workload="garage-sale",
        churn="none", queries=1,
    )
    scenario = build_scaleout_scenario(spec)
    index = max(
        scenario.index_servers,
        key=lambda server: (len(server.catalog.servers), server.address),
    )
    items = [
        item
        for peer in scenario.data_peers
        for item in peer.items
        if index.interest_area.overlaps(
            scenario.namespace.area([item.child_text("city") or "*", "*"])
        )
    ]
    index.processor.add_collection("/items", items)
    index.catalog.register_named_resource(
        NamedResourceEntry(FORSALE_URN, [CollectionRef(index.address, "/items")])
    )
    return index.processor, len(items)


def _plan_documents(processor, count: int) -> list[str]:
    """Same-shaped plans with unique query ids — a popular query."""
    documents = []
    for _ in range(count):
        plan = (
            PlanBuilder.urn(FORSALE_URN)
            .select("price < 120")
            .display("client:9020")
        )
        documents.append(MutantQueryPlan(plan).serialize())
    return documents


def _run_stream(processor, documents, uncached: bool = False):
    """One ``process`` per plan, from a cold cache; ``uncached`` keeps it cold."""
    processor.evaluations.clear()
    results = []
    for document in documents:
        if uncached:
            processor.evaluations.clear()
        results.append(processor.process(MutantQueryPlan.deserialize(document), now=0.0))
    return results


def test_stream_throughput(hot_server):
    """A repeated-shape stream: one evaluation, then replays."""
    processor, item_count = hot_server
    documents = _plan_documents(processor, BATCH_SIZE)
    best, hits_before = float("inf"), processor.evaluations.hits
    for _ in range(REPEATS):
        started = time.perf_counter()
        _run_stream(processor, documents)
        best = min(best, time.perf_counter() - started)
    assert processor.evaluations.hits - hits_before == REPEATS * (BATCH_SIZE - 1)
    emit(
        f"SCALE-OUT  A repeated-shape stream through one hot server ({PEERS} peers)",
        f"stream={BATCH_SIZE} items={item_count} {BATCH_SIZE / best:,.0f} plans/s "
        f"(1 evaluation, {BATCH_SIZE - 1} replays)",
    )
    benchjson.record_metric(
        BENCH, "plans_per_sec", BATCH_SIZE / best, unit="plans/s", compare=True,
        peers=PEERS, batch_size=BATCH_SIZE, items=item_count,
    )


def test_batched_results_match_unbatched(hot_server):
    """A replay must not change any plan's outcome: cached equals uncached."""
    processor, _ = hot_server
    documents = _plan_documents(processor, 8)
    solo = _run_stream(processor, documents, uncached=True)
    together = _run_stream(processor, documents)
    for lone, grouped in zip(solo, together):
        assert lone.action == grouped.action
        assert lone.bound_urns == grouped.bound_urns
        assert lone.evaluated_subplans == grouped.evaluated_subplans
        assert lone.mqp.is_fully_evaluated() == grouped.mqp.is_fully_evaluated()
        if lone.mqp.is_fully_evaluated():
            assert serialize_xml(lone.mqp.plan.result()) == serialize_xml(
                grouped.mqp.plan.result()
            )


def test_uncached_stream(benchmark, hot_server):
    processor, _ = hot_server
    documents = _plan_documents(processor, BATCH_SIZE)
    results = benchmark(_run_stream, processor, documents, uncached=True)
    assert len(results) == BATCH_SIZE


def test_cached_stream(benchmark, hot_server):
    processor, _ = hot_server
    documents = _plan_documents(processor, BATCH_SIZE)
    results = benchmark(_run_stream, processor, documents)
    assert len(results) == BATCH_SIZE


if __name__ == "__main__":
    raise SystemExit(benchjson.run_as_script(__file__))
