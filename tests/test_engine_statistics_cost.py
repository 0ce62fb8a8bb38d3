"""Tests for collection statistics and the cost model."""

import pytest

from repro.algebra import PlanBuilder, URNRef
from repro.engine import CollectionStatistics, CostModel
from tests.conftest import make_item


@pytest.fixture()
def items():
    return [make_item(f"cd-{index}", price=5 + index, seller=f"s{index % 2}") for index in range(10)]


class TestStatistics:
    def test_annotation_roundtrip(self):
        stats = CollectionStatistics(cardinality=10, bytes=1234)
        annotations = stats.to_annotations()
        assert annotations == {"stats.cardinality": "10", "stats.bytes": "1234"}
        assert CollectionStatistics.from_annotations(annotations) == stats

    def test_from_annotations_absent(self):
        assert CollectionStatistics.from_annotations({}) is None


class TestCostModel:
    def test_select_reduces_cardinality(self, items):
        model = CostModel()
        base = PlanBuilder.data(items).build()
        selected = PlanBuilder.data(items).select("price < 10").build()
        assert model.estimate(selected).cardinality < model.estimate(base).cardinality

    def test_join_estimate_uses_selectivity(self, items):
        model = CostModel(join_selectivity=0.1)
        plan = PlanBuilder.data(items).join(PlanBuilder.data(items), on=("title", "title")).build()
        estimate = model.estimate(plan)
        assert estimate.cardinality == pytest.approx(10 * 10 * 0.1)

    def test_unknown_leaf_uses_annotations_when_present(self):
        model = CostModel()
        leaf = URNRef("urn:ForSale:Portland-CDs")
        default_estimate = model.estimate(leaf)
        annotated = URNRef("urn:ForSale:Portland-CDs")
        stats = {"stats.cardinality": "5000", "stats.bytes": "1000000"}
        for key, value in stats.items():
            annotated.annotate(key, value)
        annotated_estimate = model.estimate(annotated)
        assert annotated_estimate.cardinality > default_estimate.cardinality

    def test_topn_caps_cardinality(self, items):
        model = CostModel()
        plan = PlanBuilder.data(items).top_n(3, "price").build()
        assert model.estimate(plan).cardinality == pytest.approx(3)

    def test_aggregate_produces_single_row(self, items):
        model = CostModel()
        plan = PlanBuilder.data(items).count().build()
        assert model.estimate(plan).cardinality == pytest.approx(1.0)

    def test_reduces_plan_size_for_selective_operator(self, items):
        model = CostModel()
        shrinking = PlanBuilder.data(items).select("price < 6").build()
        assert model.reduces_plan_size(shrinking)

    def test_exploding_join_flagged_for_deferment(self, items):
        model = CostModel(join_selectivity=1.0)
        exploding = PlanBuilder.data(items).join(PlanBuilder.data(items), on=("seller", "seller")).build()
        assert not model.reduces_plan_size(exploding)

    def test_cost_estimates_are_additive(self, items):
        model = CostModel()
        inner = PlanBuilder.data(items).select("price < 10")
        outer = inner.project([("title", "t")])
        assert model.estimate(outer.build()).cost >= model.estimate(inner.build()).cost
