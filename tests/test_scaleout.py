"""Scale-out subsystem: topology generators, batched processing, the CLI."""

from __future__ import annotations

import json
from dataclasses import fields, replace

import pytest

from repro.algebra import PlanBuilder
from repro.catalog import Catalog, CollectionRef, NamedResourceEntry
from repro.engine import EvaluationMemo, QueryEngine
from repro.errors import SimulationError
from repro.harness.cli import SCENARIOS, build_parser, main
from repro.harness.scaleout import (
    ScaleoutSpec,
    build_scaleout_scenario,
    run_scaleout,
    schedule_queries,
)
from repro.mqp import MQPProcessor, MutantQueryPlan
from repro.namespace import garage_sale_namespace
from repro.network import TOPOLOGY_KINDS, build_topology
from repro.xmlmodel import element, text_element


def _addresses(count: int) -> list[str]:
    return [f"peer{position:04d}:9020" for position in range(count)]


class TestTopologyGenerators:
    @pytest.mark.parametrize("kind", TOPOLOGY_KINDS)
    def test_connected_and_complete(self, kind):
        addresses = _addresses(120)
        topology = build_topology(kind, addresses, seed=7)
        assert topology.addresses == sorted(addresses)
        assert topology.is_connected()

    @pytest.mark.parametrize("kind", ["scale-free", "small-world", "random", "hierarchical"])
    def test_deterministic_per_seed(self, kind):
        addresses = _addresses(200)
        first = build_topology(kind, addresses, seed=7)
        second = build_topology(kind, addresses, seed=7)
        assert sorted(first.graph.edges) == sorted(second.graph.edges)

    @pytest.mark.parametrize("kind", ["scale-free", "small-world", "random"])
    def test_seed_changes_graph(self, kind):
        addresses = _addresses(200)
        first = build_topology(kind, addresses, seed=7)
        second = build_topology(kind, addresses, seed=8)
        assert sorted(first.graph.edges) != sorted(second.graph.edges)

    def test_scale_free_has_hubs(self):
        topology = build_topology("scale-free", _addresses(1000), seed=7)
        # Preferential attachment: the biggest hub dwarfs the mean degree.
        assert topology.max_degree() >= 5 * topology.average_degree()

    def test_hierarchical_tiers(self):
        addresses = _addresses(100)
        topology = build_topology("hierarchical", addresses, seed=7, core_size=4)
        # The core is fully meshed and carries the PoP/leaf attachments.
        for core_node in addresses[:4]:
            assert topology.degree(core_node) >= 3
        assert topology.is_connected()

    def test_thousand_peer_construction(self):
        topology = build_topology("scale-free", _addresses(1200), seed=3)
        assert topology.graph.number_of_nodes() == 1200
        assert topology.is_connected()

    def test_star_topology_center(self):
        addresses = _addresses(10)
        topology = build_topology("star", addresses)
        assert topology.degree(addresses[0]) == 9

    def test_unknown_kind_rejected(self):
        with pytest.raises(SimulationError):
            build_topology("torus", _addresses(10))

    def test_summary_shape(self):
        summary = build_topology("small-world", _addresses(50), seed=1).summary()
        assert {"nodes", "edges", "average_degree", "max_degree", "connected"} <= set(summary)


def _make_item(title: str, price: float) -> "element":
    return element(
        "item",
        {"id": title},
        text_element("title", title),
        text_element("price", price),
        text_element("city", "USA/OR/Portland"),
        text_element("category", "Music/CDs"),
    )


@pytest.fixture()
def data_processor():
    namespace = garage_sale_namespace()
    items = [_make_item(f"cd{position}", 5.0 + position) for position in range(30)]
    catalog = Catalog("server")
    catalog.register_named_resource(
        NamedResourceEntry("urn:ForSale:Test", [CollectionRef("server:9020", "/items")])
    )
    return MQPProcessor("server:9020", catalog, namespace, collections={"/items": items})


def _documents(count: int) -> list[str]:
    return [
        MutantQueryPlan(
            PlanBuilder.urn("urn:ForSale:Test").select("price < 20").display("client:9020")
        ).serialize()
        for _ in range(count)
    ]


class TestBatchedProcessing:
    def test_batch_matches_sequential(self, data_processor):
        documents = _documents(6)
        sequential = [
            data_processor.process(MutantQueryPlan.deserialize(document))
            for document in documents
        ]
        batched = data_processor.process_batch(
            [MutantQueryPlan.deserialize(document) for document in documents]
        )
        assert len(batched) == 6
        for lone, grouped in zip(sequential, batched):
            assert lone.action == grouped.action
            assert lone.bound_urns == grouped.bound_urns
            assert lone.evaluated_subplans == grouped.evaluated_subplans
            assert len(lone.mqp.plan.result().children) == len(
                grouped.mqp.plan.result().children
            )

    def test_batch_amortizes_evaluation(self, data_processor):
        data_processor.process_batch(
            [MutantQueryPlan.deserialize(document) for document in _documents(8)]
        )
        # 8 identical plans, 1 evaluation, 7 memo hits.
        assert data_processor.eval_memo_hits == 7
        assert data_processor.batches_processed == 1

    def test_reused_context_counts_hit_deltas(self, data_processor):
        from repro.mqp import BatchContext

        context = BatchContext()
        data_processor.process_batch(
            [MutantQueryPlan.deserialize(d) for d in _documents(8)], context=context
        )
        data_processor.process_batch(
            [MutantQueryPlan.deserialize(d) for d in _documents(8)], context=context
        )
        # 7 hits in the first batch, all 8 in the second — not 7 + (7+8).
        assert data_processor.eval_memo_hits == 15

    def test_category_path_rejects_bare_string(self):
        from repro.errors import NamespaceError
        from repro.namespace import CategoryPath

        with pytest.raises(NamespaceError):
            CategoryPath("usa")

    def test_batched_results_serialize_identically(self, data_processor):
        documents = _documents(2)
        solo = data_processor.process(MutantQueryPlan.deserialize(documents[0]))
        [grouped] = data_processor.process_batch([MutantQueryPlan.deserialize(documents[1])])
        solo_xml = solo.mqp.plan.result()
        grouped_xml = grouped.mqp.plan.result()
        assert len(solo_xml.children) == len(grouped_xml.children)


class TestEvaluationMemo:
    def test_memo_replays_items_for_identical_plans(self):
        items = [_make_item(f"cd{position}", 10.0) for position in range(5)]
        memo = EvaluationMemo()
        plan = PlanBuilder.data(items, name="cds").select("price < 20").build()
        engine = QueryEngine()
        key = memo.key_for(plan)
        assert memo.lookup(key) is None
        memo.store(key, engine.evaluate(plan))
        replayed = memo.lookup(memo.key_for(plan.copy()))
        assert replayed is not None
        assert [item.get("id") for item in replayed] == [f"cd{p}" for p in range(5)]
        assert memo.hits == 1 and memo.misses == 1
        assert memo.hit_rate == 0.5

    def test_memo_key_is_structural(self):
        first = PlanBuilder.urn("urn:X").select("price < 9").build()
        second = PlanBuilder.urn("urn:X").select("price < 9").build()
        third = PlanBuilder.urn("urn:X").select("price < 10").build()
        assert EvaluationMemo.key_for(first) == EvaluationMemo.key_for(second)
        assert EvaluationMemo.key_for(first) != EvaluationMemo.key_for(third)


class TestScaleoutScenarios:
    def test_spec_validation(self):
        with pytest.raises(SimulationError):
            ScaleoutSpec(topology="torus").validate()
        with pytest.raises(SimulationError):
            ScaleoutSpec(workload="weather").validate()
        with pytest.raises(SimulationError):
            ScaleoutSpec(churn="armageddon").validate()
        with pytest.raises(SimulationError):
            ScaleoutSpec(peers=2).validate()

    def test_the_spec_has_exactly_these_fields(self):
        """Every field is an option the test matrix must cover: a new one
        (or a returning one) is a reviewed decision, not a drive-by."""
        assert [each.name for each in fields(ScaleoutSpec)] == [
            "name", "topology", "peers", "workload", "churn", "routing", "queries",
            "seed", "batch", "batch_window_ms", "churn_window_ms", "query_interval_ms",
            "prefer", "max_hops",
            "query_mix", "free_rider_fraction", "catalog_mode",
            "reliable", "fault_loss", "fault_duplicate", "fault_delay", "fault_reorder",
            "fault_partition",
            "subscribers", "mutation_rounds",
            "catalog_shards", "catalog_replicas", "catalog_outages",
        ]

    def test_build_populates_all_roles(self):
        spec = ScaleoutSpec(
            name="t", topology="small-world", peers=30, workload="garage-sale",
            churn="none", queries=2,
        )
        scenario = build_scaleout_scenario(spec)
        assert len(scenario.data_peers) == 30
        assert scenario.index_servers and scenario.meta_index is not None
        assert scenario.total_peers >= 32

    def test_run_is_deterministic(self):
        spec = ScaleoutSpec(
            name="t", topology="scale-free", peers=30, workload="garage-sale",
            churn="light", queries=3, seed=9,
        )
        assert run_scaleout(spec) == run_scaleout(spec)

    def test_gene_expression_population(self):
        spec = ScaleoutSpec(
            name="t", topology="hierarchical", peers=20, workload="gene-expression",
            churn="none", queries=2,
        )
        report = run_scaleout(spec)
        assert report["population"]["data_peers"] == 20
        assert report["queries"][0]["expected"] > 0

    def test_thousand_peers_without_churn_answers_every_query_completely(self):
        """The flagship preset: 0.29 mean recall when the plan walked its
        ~190 holders one by one into ``max_hops``; every answer now."""
        spec = replace(SCENARIOS["thousand-peers"], churn="none")
        report = run_scaleout(spec)
        rows = report["queries"]
        assert len(rows) == 12
        assert [row["answers"] for row in rows] == [row["expected"] for row in rows]
        assert report["traffic"]["mean_recall"] == 1.0
        assert report["processing"]["plans_stuck"] == 0
        # One round of index -> holder -> client, whatever the fan-out.
        assert max(row["latency_ms"] for row in rows) < 500.0

    def test_an_empty_area_is_answered_complete_by_its_authority(self):
        """No source registered for a covered area is an answer, not a stuck plan."""
        spec = ScaleoutSpec(
            name="t", topology="small-world", peers=40, workload="garage-sale",
            churn="none", queries=4,
        )
        scenario = build_scaleout_scenario(spec)
        with scenario.cluster as cluster:
            query_ids = schedule_queries(scenario)
            cluster.run_until_idle()
            empty = [
                query_id for query_id, query in zip(query_ids, scenario.queries)
                if query.expected == 0
            ]
            assert empty  # the seeded query set has such areas
            for query_id in empty:
                recorded = scenario.client.results[query_id]
                assert recorded.count == 0 and not recorded.partial
            assert sum(peer.forwarding.plans_stuck for peer in cluster.peers()) == 0

    @pytest.mark.parametrize("routing", ["gnutella", "napster", "routing-index"])
    def test_baseline_strategies_run(self, routing):
        spec = ScaleoutSpec(
            name="t", topology="random", peers=12, workload="garage-sale",
            churn="none", routing=routing, queries=2,
        )
        report = run_scaleout(spec)
        assert len(report["queries"]) == 2
        assert "processing" not in report  # MQP-only section


class TestCLI:
    def test_smoke_run_writes_report(self, tmp_path, capsys):
        output = tmp_path / "report.json"
        code = main([
            "--topology", "small-world", "--peers", "24", "--workload", "garage-sale",
            "--churn", "light", "--queries", "2", "--output", str(output),
        ])
        assert code == 0
        report = json.loads(output.read_text())
        assert report["scenario"]["peers"] == 24
        assert report["scenario"]["churn"] == "light"
        assert len(report["queries"]) == 2
        printed = capsys.readouterr().out
        assert "traffic" in printed

    def test_cli_is_deterministic(self, tmp_path):
        outputs = []
        for run in range(2):
            output = tmp_path / f"r{run}.json"
            assert main([
                "--peers", "20", "--workload", "garage-sale", "--topology", "random",
                "--queries", "2", "--output", str(output),
            ]) == 0
            outputs.append(output.read_bytes())
        assert outputs[0] == outputs[1]

    def test_one_process_runs_a_spec(self, capsys):
        """There is no second way to execute a spec, so no option to pick one."""
        with pytest.raises(SystemExit) as usage:
            build_parser().parse_args(["--workers", "2"])
        assert usage.value.code == 2
        assert "unrecognized arguments: --workers" in capsys.readouterr().err

    def test_named_scenario_and_list(self, tmp_path, capsys):
        assert main(["--list"]) == 0
        assert "thousand-peers" in capsys.readouterr().out
        output = tmp_path / "smoke.json"
        assert main(["--scenario", "smoke", "--peers", "20", "--output", str(output)]) == 0
        report = json.loads(output.read_text())
        assert report["scenario"]["name"] == "smoke"
        assert report["scenario"]["peers"] == 20  # override applied
