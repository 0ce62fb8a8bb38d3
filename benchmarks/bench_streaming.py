"""STREAMING — the pull-based query engine in absolute numbers.

Three figures, measured at the thousand-peer configuration's hot collection
(the same population :mod:`bench_scaleout` builds):

* **Time-to-first-result** — a pull-based Select hands its first item over
  after touching a handful of input items (``first_result_us_streamed``,
  gated within ``check_regression.py``'s band of the committed value).
* **Bounded memory** — pipeline breakers stay within their
  ``max_buffered_items`` budget and fully streaming operators buffer
  nothing (``peak_buffered_items`` is the engine's own accounting).
* **Throughput** — items per second draining a Select + Project pipeline
  end to end (``streamed_items_per_sec``, gated the same way).

An end-to-end chunked-delivery figure (wall-clock to the first streamed
item at a client across the network, chunk frames included) is recorded as
context, not gated: it depends on the latency model's draw order.

``REPRO_BENCH_QUICK=1`` shrinks the population for CI smoke runs.
"""

from __future__ import annotations

import time

import pytest

import benchjson
from repro.algebra import PlanBuilder
from repro.algebra.expressions import parse_predicate
from repro.algebra.operators import OrderBy, Project, Select, URLRef, VerbatimData
from repro.catalog import CollectionRef, NamedResourceEntry
from repro.engine import QueryEngine
from repro.harness.scaleout import ScaleoutSpec, build_scaleout_scenario
from repro.perf import overrides
from conftest import emit

QUICK = benchjson.quick_mode()
BENCH = "streaming"
PEERS = 200 if QUICK else 1000
REPEATS = 3 if QUICK else 5

FORSALE_URN = "urn:ForSale:StreamingBench"


@pytest.fixture(scope="module")
def hot_collection():
    """The busiest index server's item union inside the big population."""
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
    return index, items


def _select_plan(items):
    return Select(VerbatimData.from_items(items, copy_items=False), parse_predicate("price < 120"))


def _pipeline_plan(items):
    node = Select(VerbatimData.from_items(items, copy_items=False), parse_predicate("price < 120"))
    return Project(node, [("title", "title"), ("price", "price")])


def _best(runner, repeats: int = REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        runner()
        best = min(best, time.perf_counter() - started)
    return best


def test_time_to_first_result(hot_collection):
    """Gate: wall time until a streamed Select hands over its first item."""
    _, items = hot_collection
    plan = _select_plan(items)

    def first_streamed():
        return next(QueryEngine().stream(plan))

    streamed = _best(first_streamed)
    emit(
        f"STREAMING  Time to first result ({PEERS} peers, {len(items)} items)",
        f"streamed={streamed * 1e6:,.0f}us",
    )
    benchjson.record_metric(
        BENCH, "first_result_us_streamed", streamed * 1e6, unit="us", direction="lower",
        compare=True, peers=PEERS, items=len(items),
    )


def test_bounded_memory(hot_collection):
    """Gate: buffers stay inside the operator budget (and streams buffer 0)."""
    _, items = hot_collection
    select_engine = QueryEngine(max_buffered_items=8)
    for _ in select_engine.stream(_select_plan(items)):
        pass
    select_peak = select_engine.peak_buffered_items

    budget = len(items)
    breaker_engine = QueryEngine(max_buffered_items=budget)
    breaker_plan = OrderBy(VerbatimData.from_items(items, copy_items=False), "price")
    for _ in breaker_engine.stream(breaker_plan):
        pass
    breaker_peak = breaker_engine.peak_buffered_items

    within = 1.0 if (select_peak == 0 and breaker_peak <= budget) else 0.0
    emit(
        f"STREAMING  Peak buffered items ({len(items)} input items)",
        f"select_peak={select_peak} (budget 8) "
        f"order_by_peak={breaker_peak} (budget {budget}) within_budget={within == 1.0}",
    )
    context = {"peers": PEERS, "items": len(items), "breaker_budget": budget}
    benchjson.record_metric(
        BENCH, "select_peak_buffered_items", select_peak, unit="count", direction="lower", **context
    )
    benchjson.record_metric(
        BENCH,
        "breaker_peak_buffered_items",
        breaker_peak,
        unit="count",
        direction="lower",
        **context,
    )
    benchjson.record_metric(
        BENCH,
        "peak_buffer_within_budget",
        within,
        unit="bool",
        compare=True,
        gate_min=1.0,
        **context,
    )
    assert within == 1.0


def test_streamed_throughput(hot_collection):
    """Gate: items per second draining a Select + Project pipeline."""
    _, items = hot_collection
    plan = _pipeline_plan(items)

    def drain():
        return len(QueryEngine().evaluate(plan))

    produced = drain()
    streamed = _best(drain, repeats=3 * REPEATS)
    emit(
        f"STREAMING  End-to-end drain throughput ({len(items)} items)",
        f"streamed={produced / streamed:,.0f} items/s",
    )
    benchjson.record_metric(
        BENCH, "streamed_items_per_sec", produced / streamed, unit="items/s", compare=True,
        peers=PEERS, items=len(items), produced=produced,
    )


def test_chunked_delivery_across_the_network(hot_collection):
    """Context figure: wall-clock to the first item at a *client*, chunked.

    Runs the full stack — MQP pipeline, serialization, simulated network —
    once with single-frame delivery and once with chunked delivery, timing
    how long until the client can see the first / the complete answer.
    Recorded without a gate: the figure mixes engine, codec, and
    event-queue costs, so it tracks the trajectory rather than gating it.
    """
    from repro.api import Cluster
    from repro.namespace import garage_sale_namespace

    index, items = hot_collection
    namespace = garage_sale_namespace()

    def run(streaming: bool) -> tuple[float, int]:
        with overrides(streaming_results=streaming):
            with Cluster("sim", namespace=namespace) as cluster:
                server = cluster.base_server("server:9020", namespace.top_area())
                server.publish("items", items)
                cluster.meta_index("meta:9020")
                client = cluster.client("client:9020")
                cluster.connect()
                plan = (
                    PlanBuilder.url("server:9020", "/items")
                    .select("price < 120")
                    .display("client:9020")
                )
                started = time.perf_counter()
                handle = client.query(plan).submit()
                first = next(iter(handle.items(timeout=10_000_000)))
                elapsed = time.perf_counter() - started
                del first
                result = handle.result(timeout=10_000_000)
                return elapsed, result.count

    chunked_first, chunked_count = run(streaming=True)
    framed_first, framed_count = run(streaming=False)
    assert chunked_count == framed_count
    ratio = framed_first / chunked_first
    emit(
        f"STREAMING  First item at the client ({framed_count} answer items)",
        f"single-frame={framed_first * 1e3:,.1f}ms chunked={chunked_first * 1e3:,.1f}ms "
        f"ratio={ratio:.2f}x",
    )
    benchjson.record_metric(
        BENCH,
        "client_first_item_speedup_chunked",
        ratio,
        unit="x",
        answer_items=framed_count,
        peers=PEERS,
    )


def test_leaf_resolution_through_the_processor(hot_collection):
    """The budgeted engine behind MQPProcessor resolves URL leaves too."""
    index, items = hot_collection
    engine = QueryEngine(
        resolver=index.processor._resolve_local_leaf, max_buffered_items=len(items) + 1
    )
    url_plan = Select(URLRef(index.address, "/items"), parse_predicate("price < 120"))
    drained = sum(1 for _ in engine.stream(url_plan))
    assert drained > 0


if __name__ == "__main__":
    raise SystemExit(benchjson.run_as_script(__file__))
