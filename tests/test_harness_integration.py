"""Integration tests for the experiment harness (cross-strategy comparisons)."""

from dataclasses import replace

import pytest

from repro.algebra import serialize_plan
from repro.harness import (
    ScaleoutSpec,
    build_scaleout_scenario,
    compare_routing_strategies,
    format_summary,
    format_table,
    run_cd_query_coordinator,
    run_cd_query_mqp,
    run_scaleout,
)
from repro.namespace import garage_sale_namespace, gene_expression_namespace
from repro.peers import BaseServer
from repro.workloads import (
    CDWorkload,
    CDWorkloadConfig,
    GarageSaleWorkload,
    GeneExpressionWorkload,
    query_plan_for,
)

SPEC = ScaleoutSpec(name="strategies", topology="random", peers=10, workload="garage-sale",
                    queries=3, seed=2)


class TestScenarioStructure:
    def test_scenario_structure(self):
        scenario = build_scaleout_scenario(SPEC)
        with scenario.cluster as cluster:
            base_servers = [peer for peer in cluster.peers() if isinstance(peer, BaseServer)]
        assert len(base_servers) == len(scenario.data_peers) == SPEC.peers
        assert scenario.meta_index is not None
        assert scenario.registrations >= SPEC.peers

    def test_query_plan_for_writes_what_the_two_builders_it_replaced_wrote(self):
        # Pinned from the commit that still had query_plan_for(QuerySpec, ...)
        # in the harness and _gene_query_plan in scaleout.py.
        garage = garage_sale_namespace()
        area = garage.area(["USA/OR/Portland", "Furniture"], ["USA/WA", "*"])
        fields = GarageSaleWorkload.CELL_FIELDS
        select = (
            "((city contains 'USA/OR/Portland') and (category contains 'Furniture'))"
            " or (city contains 'USA/WA')"
        )
        urn = '<urn name="urn:InterestArea:(USA.OR.Portland,Furniture)+(USA.WA,*)"/>'
        wrap = '<mqp><display target="client:9020">{}</display></mqp>'.format
        assert serialize_plan(query_plan_for(area, "client:9020", fields)) == wrap(
            f'<select predicate="{select}">{urn}</select>'
        )
        priced = query_plan_for(area, "client:9020", fields, max_price=50)
        assert priced.target == "client:9020" and len(priced.urn_refs()) == 1
        assert serialize_plan(priced) == wrap(
            f'<select predicate="({select}) and (price &lt; 50)">{urn}</select>'
        )
        assert serialize_plan(query_plan_for(garage.top_area(), "client:9020", fields)) == wrap(
            '<urn name="urn:InterestArea:(*,*)"/>'
        )
        genes = gene_expression_namespace()
        area = genes.area(["Coelomata/Deuterostomia/Mammalia", "Muscle/Cardiac"], ["*", "Neural"])
        plan = query_plan_for(area, "client:9020", GeneExpressionWorkload.CELL_FIELDS)
        assert serialize_plan(plan) == wrap(
            '<select predicate="(cellType contains \'Neural\') or ((organism contains '
            "'Coelomata/Deuterostomia/Mammalia') and (cellType contains 'Muscle/Cardiac'))\">"
            '<urn name="urn:InterestArea:(*,Neural)+(Coelomata.Deuterostomia.Mammalia,Muscle.Cardiac)"/>'
            "</select>"
        )


class TestStrategyComparison:
    @pytest.fixture(scope="class")
    def by_strategy(self):
        return {row["strategy"]: row for row in compare_routing_strategies(SPEC)}

    def test_all_strategies_present(self, by_strategy):
        assert set(by_strategy) == {
            "mqp-catalog", "gnutella(h=3)", "napster-central", "routing-index"
        }
        assert by_strategy["napster-central"]["central_server_messages"] > 0
        assert all(row["queries"] == SPEC.queries for row in by_strategy.values())

    def test_catalog_routing_uses_fewer_messages_than_broadcast(self, by_strategy):
        assert 0 < by_strategy["mqp-catalog"]["messages"] < by_strategy["gnutella(h=3)"]["messages"]

    def test_catalog_routing_contacts_fewer_peers_than_broadcast(self, by_strategy):
        assert (
            by_strategy["mqp-catalog"]["mean_peers_per_query"]
            < by_strategy["gnutella(h=3)"]["mean_peers_per_query"]
        )

    def test_catalog_routing_recall_is_complete(self, by_strategy):
        assert by_strategy["mqp-catalog"]["mean_recall"] == pytest.approx(1.0)

    @pytest.mark.parametrize("transport", ["sim", "aio"])
    def test_mqp_row_is_the_traffic_block_of_the_same_spec(self, transport):
        # One harness: the comparison's row is run_scaleout's report, not a
        # second way of running the same network.
        row = compare_routing_strategies(replace(SPEC, churn="light"), transport)[0]
        traffic = run_scaleout(replace(SPEC, churn="light", routing="mqp"), transport)["traffic"]
        assert row == {"strategy": "mqp-catalog", **traffic}


class TestCDComparison:
    def test_mqp_and_coordinator_agree_on_answers(self):
        workload = CDWorkload(CDWorkloadConfig(sellers=2, seed=5))
        expected = workload.expected_matches()
        mqp_summary, mqp_found = run_cd_query_mqp(workload)
        coord_summary, coord_found = run_cd_query_coordinator(workload)
        assert mqp_found == expected
        assert coord_found == expected
        assert mqp_summary["mean_recall"] == pytest.approx(1.0)
        # MQPs avoid the per-subordinate round trips of the coordinator model.
        assert mqp_summary["messages"] < coord_summary["messages"]


class TestReportFormatting:
    def test_format_table_alignment(self):
        rows = [{"strategy": "mqp", "messages": 12.0}, {"strategy": "gnutella", "messages": 112.0}]
        text = format_table(rows, ["strategy", "messages"], title="Routing")
        assert "Routing" in text
        assert "strategy" in text.splitlines()[1]
        assert "112.00" in text

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([], title="Empty")

    def test_format_summary(self):
        text = format_summary({"messages": 10.0, "recall": 1.0})
        assert "messages" in text and "recall" in text
