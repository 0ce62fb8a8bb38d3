"""EXP-OPT — what the MQP-specific optimizations buy (§2, §6).

Three ablations, each reported as bytes that must be shipped with the
mutated plan (the quantity §2 says "matters"):

* selection pushdown through the seller union (Figure 4a) versus shipping
  unfiltered seller data;
* absorption: pre-joining a local pair when the statistics say the result
  is no larger than the original input;
* deferment: declining to evaluate an exploding join locally.
"""

from __future__ import annotations


from repro.algebra import PlanBuilder, VerbatimData, plan_wire_size
from repro.engine import CostModel, QueryEngine
from repro.harness import format_table
from repro.mqp import MQPProcessor, MutantQueryPlan, PolicyManager
from repro.catalog import Catalog
from repro.namespace import garage_sale_namespace
from repro.optimizer import Optimizer, RewriteEngine, absorption_rule, standard_rules
from repro.workloads import GarageSaleConfig, GarageSaleWorkload
from repro.xmlmodel import XMLElement, text_element
from conftest import emit


def make_item(title: str, price: float, seller: str = "seller:9020") -> XMLElement:
    """A minimal garage-sale item bundle for the ablation plans."""
    return XMLElement(
        "item",
        {"id": f"{seller}-{title}"},
        [
            text_element("title", title),
            text_element("price", price),
            text_element("seller", seller),
        ],
    )


def _seller_collections(sellers: int, items_per_seller: int):
    workload = GarageSaleWorkload(
        GarageSaleConfig(sellers=sellers, mean_items_per_seller=items_per_seller, seed=37)
    )
    return [seller.items for seller in workload.sellers]


def test_selection_pushdown_reduces_shipped_bytes(benchmark):
    """Figure 4(a)/(b): push the selection to the seller and reduce there,
    versus resolving the seller's URL to its raw (unfiltered) collection."""
    collections = _seller_collections(sellers=4, items_per_seller=20)

    def remote_urls():
        return [PlanBuilder.url(f"seller{index}:9020", "/items") for index in range(1, len(collections))]

    def pushed_size():
        filtered = QueryEngine().evaluate(
            PlanBuilder.data(collections[0], name="seller0").select("price < 20").build()
        )
        union = PlanBuilder.data(filtered, name="seller0-reduced")
        for remote in remote_urls():
            union = union.union(remote)
        return plan_wire_size(union.display("client:9020"))

    def unpushed_size():
        union = PlanBuilder.data(collections[0], name="seller0-raw")
        for remote in remote_urls():
            union = union.union(remote)
        return plan_wire_size(union.select("price < 20").display("client:9020"))

    with_pushdown = benchmark(pushed_size)
    without_pushdown = unpushed_size()
    emit(
        "EXP-OPT  Selection pushdown (Figure 4a)",
        format_table(
            [
                {"variant": "select pushed to seller", "plan_bytes_shipped": with_pushdown},
                {"variant": "no pushdown (raw collection shipped)", "plan_bytes_shipped": without_pushdown},
            ]
        ),
    )
    assert with_pushdown < without_pushdown


def test_absorption_reduces_partial_result_size(benchmark):
    """(A join X) join B -> (A join B) join X when |A join B| <= |A|."""
    a_items = [make_item(f"title-{index}", 5, seller=f"s{index}") for index in range(30)]
    b_items = [make_item("title-0", 5), make_item("title-1", 5)]

    def build_plan():
        return (
            PlanBuilder.data(a_items, name="A")
            .join(PlanBuilder.url("remote:9020", "/x"), on=("//seller", "//seller"))
            .join(PlanBuilder.data(b_items, name="B"), on=("//title", "//title"))
            .plan()
        )

    def absorbed_size():
        plan = build_plan()
        rule = absorption_rule(lambda leaf: isinstance(leaf, VerbatimData), CostModel())
        rewritten = RewriteEngine(standard_rules() + [rule]).rewrite_plan(plan).plan
        evaluable = rewritten.evaluable_subplans()
        for node in evaluable:
            rewritten.substitute_result(node, QueryEngine().evaluate(node))
        return plan_wire_size(rewritten)

    def baseline_size():
        plan = build_plan()
        rewritten = RewriteEngine(standard_rules()).rewrite_plan(plan).plan
        for node in rewritten.evaluable_subplans():
            rewritten.substitute_result(node, QueryEngine().evaluate(node))
        return plan_wire_size(rewritten)

    absorbed = benchmark(absorbed_size)
    baseline = baseline_size()
    emit(
        "EXP-OPT  Absorption rewrite",
        format_table(
            [
                {"variant": "with absorption (pre-join A x B)", "plan_bytes_shipped": absorbed},
                {"variant": "without absorption", "plan_bytes_shipped": baseline},
            ]
        ),
    )
    assert absorbed < baseline


def test_deferment_avoids_exploding_results(benchmark):
    """Deferment declines to evaluate a join whose output exceeds its inputs."""
    items = [make_item(f"t{index}", 5, seller="same-seller") for index in range(25)]
    namespace = garage_sale_namespace()

    def run(enable_deferment: bool):
        processor = MQPProcessor(
            "here:9020",
            Catalog("here"),
            namespace,
            collections={"/items": items},
            optimizer=Optimizer(CostModel(join_selectivity=1.0)),
            policy=PolicyManager(enable_deferment=enable_deferment),
        )
        plan = (
            PlanBuilder.url("here:9020", "/items")
            .join(PlanBuilder.url("here:9020", "/items"), on=("//seller", "//seller"))
            .join(PlanBuilder.url("remote:9020", "/other"), on=("//title", "//title"))
            .display("client:9020")
        )
        mqp = MutantQueryPlan(plan)
        processor.process(mqp, now=0.0)
        return mqp.wire_size()

    deferred = benchmark(lambda: run(True))
    eager = run(False)
    emit(
        "EXP-OPT  Deferment",
        format_table(
            [
                {"variant": "with deferment", "plan_bytes_shipped": deferred},
                {"variant": "eager evaluation", "plan_bytes_shipped": eager},
            ]
        ),
    )
    assert deferred < eager
