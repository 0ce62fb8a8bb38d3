"""Scale-out subsystem: topology generators, batched processing, the CLI."""

from __future__ import annotations

import gc
import json
from dataclasses import fields, replace

import pytest

from repro.algebra import PlanBuilder
from repro.algebra.operators import VerbatimData
from repro.algebra.serialization import plan_to_xml
from repro.api import Cluster
from repro.catalog import Catalog, CollectionRef, NamedResourceEntry
from repro.engine import EvaluationMemo, QueryEngine
from repro.engine import memo as memo_caps
from repro.errors import SimulationError
from repro.harness import scaleout
from repro.harness.cli import SCENARIOS, build_parser, main
from repro.harness.scaleout import (
    ScaleoutSpec,
    build_scaleout_scenario,
    run_scaleout,
    schedule_queries,
)
from repro.mqp import MQPProcessor, MutantQueryPlan, QueryPreferences
from repro.namespace import garage_sale_namespace
from repro.namespace.interest import _cell_covers, _cell_overlaps
from repro.network import TOPOLOGY_KINDS, build_topology
from repro.peers import QueryPeer
from repro.xmlmodel import element, serialize_xml, text_element


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
        assert sorted(first.edges()) == sorted(second.edges())

    @pytest.mark.parametrize("kind", ["scale-free", "small-world", "random"])
    def test_seed_changes_graph(self, kind):
        addresses = _addresses(200)
        first = build_topology(kind, addresses, seed=7)
        second = build_topology(kind, addresses, seed=8)
        assert sorted(first.edges()) != sorted(second.edges())

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
        assert topology.number_of_nodes() == 1200
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


def _process_all(processor, documents, uncached=False):
    """One ``process`` per document; ``uncached`` forgets before each."""
    results = []
    for document in documents:
        if uncached:
            processor.evaluations.clear()
        results.append(processor.process(MutantQueryPlan.deserialize(document)))
    return results


class TestBatchedProcessing:
    def test_batch_matches_sequential(self, data_processor):
        documents = _documents(6)
        sequential = _process_all(data_processor, documents, uncached=True)
        batched = _process_all(data_processor, documents)
        assert len(batched) == 6
        for lone, grouped in zip(sequential, batched):
            assert lone.action == grouped.action
            assert lone.bound_urns == grouped.bound_urns
            assert lone.evaluated_subplans == grouped.evaluated_subplans
            assert len(lone.mqp.plan.result().children) == len(
                grouped.mqp.plan.result().children
            )

    def test_batch_amortizes_evaluation(self, data_processor):
        documents = _documents(8)
        uncached = _process_all(data_processor, documents, uncached=True)
        before = (data_processor.evaluations.hits, data_processor.evaluations.misses)
        assert before == (0, 8)
        data_processor.evaluations.clear()
        cached = _process_all(data_processor, documents)
        # 8 identical plans, 1 evaluation, 7 cache hits — and not a byte of difference.
        assert (data_processor.evaluations.hits, data_processor.evaluations.misses) == (7, 9)
        assert data_processor.subplans_evaluated == 16  # a replay still reduces the plan
        assert [serialize_xml(plan_to_xml(result.mqp.plan)) for result in cached] == [
            serialize_xml(plan_to_xml(result.mqp.plan)) for result in uncached
        ]

    def test_reused_context_counts_hit_deltas(self, data_processor):
        for _ in range(2):
            _process_all(data_processor, _documents(8))
        # 7 hits in the first round, all 8 in the second: one cache, kept between them.
        assert data_processor.evaluations.hits == 15

    def test_category_path_rejects_bare_string(self):
        from repro.errors import NamespaceError
        from repro.namespace import CategoryPath

        with pytest.raises(NamespaceError):
            CategoryPath("usa")

    def test_batched_results_serialize_identically(self, data_processor):
        fresh, replayed = _process_all(data_processor, _documents(2))
        assert data_processor.evaluations.hits == 1
        assert serialize_xml(replayed.mqp.plan.result()) == serialize_xml(fresh.mqp.plan.result())
        assert len(fresh.mqp.plan.result().children) == 15


class TestEvaluationMemo:
    def test_memo_replays_items_for_identical_plans(self):
        items = [_make_item(f"cd{position}", 10.0) for position in range(5)]
        memo = EvaluationMemo()
        plan = PlanBuilder.data(items, name="cds").select("price < 20").build()
        key = memo.key_for(plan)
        assert memo.lookup(key) is None
        result = VerbatimData.from_items(QueryEngine().evaluate(plan), tag="result")
        handed_out = memo.store(key, result)
        replayed = memo.lookup(memo.key_for(plan.copy()))
        assert replayed is not None and replayed is not result and handed_out is not result
        assert [item.get("id") for item in replayed.items] == [f"cd{p}" for p in range(5)]
        assert replayed.span is result.span  # serialized once, shared by every copy
        assert memo.hits == 1 and memo.misses == 1

    def test_memo_key_is_structural(self):
        first = PlanBuilder.urn("urn:X").select("price < 9").build()
        second = PlanBuilder.urn("urn:X").select("price < 9").build()
        third = PlanBuilder.urn("urn:X").select("price < 10").build()
        assert EvaluationMemo.key_for(first) == EvaluationMemo.key_for(second)
        assert EvaluationMemo.key_for(first) != EvaluationMemo.key_for(third)

    def test_the_cap_evicts_the_oldest_by_entries_and_by_bytes(self):
        memo = EvaluationMemo()
        for position in range(memo_caps.MAX_ENTRIES + 1):
            memo.store(f"k{position}", VerbatimData.from_items([], tag="result"))
        assert len(memo) == memo_caps.MAX_ENTRIES
        assert memo.lookup("k0") is None and memo.lookup("k1") is not None
        big = text_element("blob", "x" * (memo_caps.MAX_BYTES // 2))
        memo.store("big-1", VerbatimData.from_items([big], tag="result"))
        memo.store("big-2", VerbatimData.from_items([big], tag="result"))
        memo.store("big-3", VerbatimData.from_items([big, big], tag="result"))  # alone over the bound
        assert memo.bytes <= memo_caps.MAX_BYTES
        assert memo.lookup("big-1") is None and memo.lookup("big-3") is None
        assert memo.lookup("big-2") is not None
        memo.clear()
        assert len(memo) == 0 and memo.bytes == 0 and memo.hits == 2  # counters keep counting


def _titles(result) -> list[str]:
    return [item.get("id") for item in result.mqp.plan.result().children]


class TestEvaluationCacheInvalidation:
    """No stale hit: every local write drops what the server had reduced."""

    @pytest.fixture()
    def seller(self):
        peer = QueryPeer("server:9020", garage_sale_namespace())
        peer.publish_collection("items", [_make_item(f"cd{n}", 5.0 + n) for n in range(3)])
        peer.catalog.register_named_resource(
            NamedResourceEntry("urn:ForSale:Test", [CollectionRef("server:9020", "/items")])
        )
        return peer

    def _ask(self, peer):
        [document] = _documents(1)
        return _titles(peer.processor.process(MutantQueryPlan.deserialize(document)))

    def test_an_update_between_two_identical_plans_shows_in_the_second(self, seller):
        assert self._ask(seller) == ["cd0", "cd1", "cd2"]
        seller.update_collection("items", [_make_item("cd9", 1.0)])
        assert self._ask(seller) == ["cd0", "cd1", "cd2", "cd9"]
        assert seller.processor.evaluations.hits == 0

    def test_a_retraction_between_two_identical_plans_shows_in_the_second(self, seller):
        assert self._ask(seller) == ["cd0", "cd1", "cd2"]
        seller.retract_from_collection("items", keys=["cd1"])
        assert self._ask(seller) == ["cd0", "cd2"]

    def test_a_republication_between_two_identical_plans_shows_in_the_second(self, seller):
        assert self._ask(seller) == ["cd0", "cd1", "cd2"]
        seller.publish_collection("items", [_make_item("cd7", 2.0)])
        assert self._ask(seller) == ["cd7"]

    def test_without_a_write_the_second_is_a_replay(self, seller):
        assert self._ask(seller) == self._ask(seller) == ["cd0", "cd1", "cd2"]
        assert seller.processor.evaluations.hits == 1

    def test_a_free_rider_neither_fills_nor_reads(self, seller):
        seller.processor.free_ride = True
        [document] = _documents(1)
        seller.processor.process(MutantQueryPlan.deserialize(document))
        assert len(seller.processor.evaluations) == 0  # nothing evaluated, nothing kept
        seller.processor.free_ride = False
        self._ask(seller)
        seller.processor.free_ride = True
        ridden = seller.processor.process(MutantQueryPlan.deserialize(document))
        assert not ridden.mqp.is_fully_evaluated() and ridden.evaluated_subplans == 0
        evaluations = seller.processor.evaluations
        assert (evaluations.hits, evaluations.misses, len(evaluations)) == (0, 1, 1)

    def test_a_crash_clears_the_cache(self, seller):
        self._ask(seller)
        assert len(seller.processor.evaluations) == 1
        seller.go_offline()
        assert len(seller.processor.evaluations) == 0


_GC_SPEC = ScaleoutSpec(
    name="gc", topology="small-world", peers=12, workload="garage-sale", churn="none", queries=2,
)


class TestCollectorHandedBack:
    """``run_scenario`` pauses the cyclic collector around the build and
    freezes the built scenario for the run; the caller gets the collector
    back exactly as it was."""

    @pytest.fixture()
    def seen(self, monkeypatch):
        """What the build and the run saw of the collector."""
        seen: dict[str, object] = {}
        build, schedule = scaleout.build_scaleout_scenario, scaleout.schedule_queries

        def spied_build(*args, **kwargs):
            seen["build_collecting"] = gc.isenabled()
            return build(*args, **kwargs)

        def spied_schedule(scenario):
            seen["run_frozen"] = gc.get_freeze_count()
            return schedule(scenario)

        monkeypatch.setattr(scaleout, "build_scaleout_scenario", spied_build)
        monkeypatch.setattr(scaleout, "schedule_queries", spied_schedule)
        return seen

    def test_after_a_normal_run(self, seen):
        state = gc.isenabled(), gc.get_freeze_count()
        assert state == (True, 0)
        scaleout.run_scenario(_GC_SPEC)
        assert (gc.isenabled(), gc.get_freeze_count()) == state
        assert seen["build_collecting"] is False
        assert seen["run_frozen"] > 0

    def test_after_the_build_raises(self, monkeypatch):
        def broken_build(*args, **kwargs):
            assert not gc.isenabled()
            raise RuntimeError("build failed")

        monkeypatch.setattr(scaleout, "build_scaleout_scenario", broken_build)
        state = gc.isenabled(), gc.get_freeze_count()
        with pytest.raises(RuntimeError, match="build failed"):
            scaleout.run_scenario(_GC_SPEC)
        assert (gc.isenabled(), gc.get_freeze_count()) == state

    def test_a_disabled_collector_stays_disabled(self):
        gc.disable()
        try:
            scaleout.run_scenario(_GC_SPEC)
            assert not gc.isenabled()
            assert gc.get_freeze_count() == 0
        finally:
            gc.enable()

    def test_a_callers_freeze_is_never_undone(self):
        sentinel = [object()]
        gc.freeze()
        try:
            scaleout.run_scenario(_GC_SPEC)
            assert gc.isenabled()
            assert gc.get_freeze_count() > 0
            # Frozen objects sit in no generation the collector walks.
            assert all(tracked is not sentinel for tracked in gc.get_objects())
        finally:
            gc.unfreeze()
        assert any(tracked is sentinel for tracked in gc.get_objects())


class TestCellMemosHoldEveryRun:
    """The process-wide cell-comparison memos are sized from what runs ask:
    no preset fills one, at any of three seeds."""

    @pytest.mark.parametrize("name", SCENARIOS)
    def test_no_preset_evicts(self, name):
        for seed in (1, 2, 3):
            for memo in (_cell_covers, _cell_overlaps):
                memo.cache_clear()
            run_scaleout(replace(SCENARIOS[name], seed=seed))
            for memo in (_cell_covers, _cell_overlaps):
                info = memo.cache_info()
                assert info.misses == info.currsize < info.maxsize, (seed, memo.__name__, info)


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

    @pytest.mark.parametrize(
        "override",
        [{"prefer": "bogus"}, {"seed": -1}, {"query_interval_ms": -5.0}, {"max_hops": 0}],
        ids=["prefer", "seed", "query_interval_ms", "max_hops"],
    )
    def test_validation_rejects_what_used_to_fail_late(self, override):
        """A bad preference used to fail at the first query, a negative seed or
        interval mid-run, and ``max_hops=0`` ran and answered half the queries."""
        with pytest.raises(SimulationError):
            ScaleoutSpec(**override).validate()

    def test_the_spec_has_exactly_these_fields(self):
        """Every field is an option the test matrix must cover: a new one
        (or a returning one) is a reviewed decision, not a drive-by."""
        assert [each.name for each in fields(ScaleoutSpec)] == [
            "name", "topology", "peers", "workload", "churn", "routing", "queries",
            "seed", "churn_window_ms", "query_interval_ms", "prefer", "max_hops",
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

    def test_region_is_the_depth_two_prefix_of_the_first_dimension(self):
        namespace = garage_sale_namespace()
        assert scaleout._region(namespace.cell("USA/OR/Portland", "Music")) == ("USA", "OR")
        assert scaleout._region(namespace.cell("USA/OR", "*")) == ("USA", "OR")
        assert scaleout._region(namespace.cell("USA", "Music")) is None
        assert scaleout._region(namespace.top_cell()) is None

    def test_index_areas_and_churn_regions_share_one_region_rule(self):
        spec = ScaleoutSpec(
            name="t", topology="small-world", peers=30, workload="garage-sale",
            churn="none", queries=2,
        )
        scenario = build_scaleout_scenario(spec)
        indexed = {
            str(next(iter(peer.interest_area)).coordinate(0)) for peer in scenario.index_servers
        }
        regions = set(scaleout._regions_of(scenario).values()) - {"?"}
        assert regions and regions <= indexed
        assert indexed == {
            "/".join(region)
            for peer in scenario.data_peers
            for region in map(scaleout._region, peer.area)
            if region
        }

    def test_scenario_block_elides_knobs_at_their_dataclass_defaults(self):
        from repro.harness.report import _ELIDED_AT_DEFAULT, scenario_dict

        block = scenario_dict(ScaleoutSpec())
        assert set(block) == {each.name for each in fields(ScaleoutSpec)} - set(_ELIDED_AT_DEFAULT)
        assert scenario_dict(ScaleoutSpec(free_rider_fraction=0.25))["free_rider_fraction"] == 0.25

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


class TestLeafHopEquivalence:
    """The leaf hop is a shortcut, not a behaviour: forced off, so that every
    plan takes the full pipeline, it leaves every report byte-identical."""

    @pytest.mark.parametrize(
        "name, transport",
        [
            ("thousand-peers", "sim"),
            ("flash-crowd", "sim"),
            ("sharded-catalog", "sim"),
            ("free-riders", "sim"),
            ("lying-catalog", "sim"),
            ("sharded-catalog", "aio"),
        ],
    )
    def test_the_full_pipeline_writes_the_same_report(self, name, transport, monkeypatch):
        spec = SCENARIOS[name]
        if name == "thousand-peers":
            spec = replace(spec, churn="none", peers=200)
        taken = []
        is_leaf_hop = MQPProcessor._is_leaf_hop

        def counting(processor, mqp):
            taken.append(is_leaf_hop(processor, mqp))
            return taken[-1]

        monkeypatch.setattr(MQPProcessor, "_is_leaf_hop", counting)
        default = json.dumps(run_scaleout(spec, transport), sort_keys=True)
        assert any(taken)  # the comparison below means something
        monkeypatch.setattr(MQPProcessor, "_is_leaf_hop", lambda processor, mqp: False)
        assert json.dumps(run_scaleout(spec, transport), sort_keys=True) == default


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

    def test_prefer_takes_the_one_preference_vocabulary(self, capsys):
        """``--prefer`` accepts exactly the preferences a query can carry."""
        for prefer in QueryPreferences.VALID:
            assert build_parser().parse_args(["--prefer", prefer]).prefer == prefer
        with pytest.raises(SystemExit) as usage:
            build_parser().parse_args(["--prefer", "bogus"])
        assert usage.value.code == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--batch", "--no-batch"])
    def test_there_is_one_way_through_a_hop(self, flag, capsys):
        """A plan is processed when it arrives: no window to set, here or on a cluster."""
        with pytest.raises(SystemExit) as usage:
            build_parser().parse_args([flag])
        assert usage.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        with Cluster(namespace=garage_sale_namespace()) as cluster:
            with pytest.raises(TypeError):
                cluster.configure_peers(batch_window_ms=5)
            assert not hasattr(cluster.client("c:1").peer, "enable_batching")

    def test_named_scenario_and_list(self, tmp_path, capsys):
        assert main(["--list"]) == 0
        assert "thousand-peers" in capsys.readouterr().out
        output = tmp_path / "smoke.json"
        assert main(["--scenario", "smoke", "--peers", "20", "--output", str(output)]) == 0
        report = json.loads(output.read_text())
        assert report["scenario"]["name"] == "smoke"
        assert report["scenario"]["peers"] == 20  # override applied


class TestOneEntryPerPeer:
    def test_every_overlay_neighbour_holds_the_peers_own_entry(self):
        spec = replace(SCENARIOS["thousand-peers"], peers=60, queries=3, churn="none")
        scenario = build_scaleout_scenario(spec)
        scenario.network.close()
        peers = {peer.address: peer for peer in scenario.cluster.peers()}
        client = scenario.client.address
        edges = [
            (first, second)
            for first, second in scenario.topology.edges()
            if client not in (first, second) and first in peers and second in peers
        ]
        assert len(edges) >= 60
        for first, second in edges:
            assert peers[first].catalog.servers[second] is peers[second].server_entry()
            assert peers[second].catalog.servers[first] is peers[first].server_entry()
