"""Tests for the coordinator baseline, semi-joins, and workloads."""

import pytest

from repro.algebra import PlanBuilder
from repro.distributed import (
    CoordinatorClient,
    CoordinatorServer,
    SubordinateServer,
    estimate_full_ship,
    estimate_semijoin,
)
from repro.network import Network
from repro.workloads import (
    CDWorkload,
    CDWorkloadConfig,
    GarageSaleConfig,
    GarageSaleWorkload,
    GeneExpressionConfig,
    GeneExpressionWorkload,
    QueryWorkload,
    zipf_weights,
)
from repro.xmlmodel import element, text_element
from tests.conftest import make_item


class TestCoordinator:
    def test_coordinator_executes_distributed_selection_and_join(self):
        network = Network()
        coordinator = CoordinatorServer("coord:1")
        network.register(coordinator)
        seller = SubordinateServer("seller:1")
        seller.add_collection("/cds", [make_item("Abbey Road", 8), make_item("Boxed Set", 40)])
        network.register(seller)
        listings = SubordinateServer("tracklist:1")
        listings.add_collection(
            "/tl", [element("CD", {}, text_element("title", "Abbey Road"), text_element("song", "s1"))]
        )
        network.register(listings)
        client = CoordinatorClient("client:1", "coord:1")
        network.register(client)

        plan = (
            PlanBuilder.url("seller:1", "/cds")
            .select("price < 10")
            .join(PlanBuilder.url("tracklist:1", "/tl"), on=("//title", "//CD/title"))
            .display("client:1")
        )
        query_id = client.issue_query(plan)
        network.run_until_idle()
        results = client.results_for(query_id)
        assert len(results) == 1
        assert coordinator.queries_completed == 1
        assert network.metrics.messages_by_kind["subquery"] == 2

    def test_coordinator_handles_fully_local_plan(self, cd_items):
        network = Network()
        coordinator = CoordinatorServer("coord:1")
        client = CoordinatorClient("client:1", "coord:1")
        network.register(coordinator)
        network.register(client)
        plan = PlanBuilder.data(cd_items, name="cds").select("price < 10").display("client:1")
        query_id = client.issue_query(plan)
        network.run_until_idle()
        assert len(client.results_for(query_id)) == 3


class TestSemiJoin:
    def test_semijoin_cheaper_for_selective_join(self):
        left = [make_item(f"t{i}", 5) for i in range(3)]
        right = [make_item(f"t{i}", 9) for i in range(100)]
        estimate = estimate_semijoin(left, right, "//title", "//title")
        assert estimate.matching_items == 3
        assert estimate.total_bytes < estimate_full_ship(right)

    def test_semijoin_degenerates_when_everything_matches(self):
        left = [make_item(f"t{i}", 5) for i in range(50)]
        right = [make_item(f"t{i}", 9) for i in range(50)]
        estimate = estimate_semijoin(left, right, "//title", "//title")
        assert estimate.matching_items == 50
        assert estimate.total_bytes > estimate_full_ship(right) * 0.9


class TestWorkloads:
    def test_zipf_weights_sum_to_one_and_decrease(self):
        weights = zipf_weights(10, skew=1.0)
        assert sum(weights) == pytest.approx(1.0)
        assert all(weights[i] >= weights[i + 1] for i in range(9))

    def test_garage_sale_determinism_and_locality(self):
        first = GarageSaleWorkload(GarageSaleConfig(sellers=10, seed=3))
        second = GarageSaleWorkload(GarageSaleConfig(sellers=10, seed=3))
        assert [s.address for s in first.sellers] == [s.address for s in second.sellers]
        assert len(first.all_items()) == len(second.all_items())
        for seller in first.sellers:
            for item in seller.items:
                assert item.child_text("city") == str(seller.city)
                assert item.child_text("category").startswith(str(seller.cell.coordinate(1)))

    def test_garage_sale_ground_truth(self, namespace):
        workload = GarageSaleWorkload(GarageSaleConfig(sellers=10, seed=3))
        area = workload.namespace.top_area()
        assert workload.ground_truth_count(area) == len(workload.all_items())
        cheap = workload.ground_truth_count(area, max_price=50)
        assert 0 < cheap <= len(workload.all_items())

    def test_gene_expression_figure1_groups(self):
        workload = GeneExpressionWorkload(GeneExpressionConfig(records_per_cell=2))
        assert len(workload.repositories) == 3
        query = workload.mammalian_cardiac_query_area()
        overlaps = {repo.name: repo.area.overlaps(query) for repo in workload.repositories}
        relevant = {name for name, overlap in overlaps.items() if overlap}
        irrelevant = {name for name, overlap in overlaps.items() if not overlap}
        assert relevant == {"Rodent connective/muscle lab", "Human atlas project"}
        assert irrelevant == {"Fly neural lab"}
        assert len(workload.matching_records(query)) > 0

    def test_gene_expression_ground_truth_is_the_record_by_record_cover_test(self):
        """The oracle tests a cell once per distinct (organism, cellType) text:
        same records, same order, as asking the namespace about every record."""
        from repro.namespace import InterestCell

        workload = GeneExpressionWorkload(
            GeneExpressionConfig(records_per_cell=2, extra_repositories=12, seed=5)
        )
        organisms, cell_types = workload.namespace.dimensions
        for area in (
            workload.mammalian_cardiac_query_area(),
            workload.namespace.top_area(),
            workload.repositories[-1].area,
        ):
            reference = [
                record
                for repository in workload.repositories
                for record in repository.records
                if area.covers_cell(InterestCell((
                    organisms.approximate(record.child_text("organism")),
                    cell_types.approximate(record.child_text("cellType")),
                )))
            ]
            matched = workload.matching_records(area)
            assert len(matched) == len(reference) > 0
            assert all(a is b for a, b in zip(matched, reference))

    def test_cd_workload_has_answerable_query(self):
        workload = CDWorkload(CDWorkloadConfig(sellers=2, seed=5))
        assert len(workload.expected_matches()) >= 1
        plan = workload.figure3_plan("client:9020")
        assert plan.target == "client:9020"
        assert len(plan.urn_refs()) == 2

    def test_query_workload_batch(self, namespace):
        generator = QueryWorkload(namespace, seed=1)
        queries = generator.batch(20)
        assert len(queries) == 20
        assert all(query.area for query in queries)
        assert any(query.max_price is not None for query in queries)
        assert QueryWorkload(namespace, seed=1).batch(20)[0].area == queries[0].area
