"""The experiment grid on real scenarios, plus seed-threading regressions."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.experiments import Experiment, ExperimentSpec, ROW_COLUMNS
from repro.experiments.cli import EXPERIMENT_PRESETS, main as experiment_main
from repro.harness.cli import SCENARIOS, main as cli_main
from repro.harness.report import scenario_report, to_json
from repro.harness import scaleout
from repro.harness.scaleout import ScaleoutSpec, run_scaleout


def _tiny_grid() -> ExperimentSpec:
    return ExperimentSpec(
        name="tiny",
        scenarios=(
            ScaleoutSpec(name="coop", topology="small-world", peers=30,
                         workload="garage-sale", queries=4),
            ScaleoutSpec(name="riders", topology="small-world", peers=30,
                         workload="garage-sale", queries=4, free_rider_fraction=0.4),
        ),
        seeds=(11, 17),
        repeats=2,
    )


def _assert_interleaved_reports_as_if_alone(specs: list[ScaleoutSpec]) -> None:
    """Step the specs' clusters one event each in turn, to idle, and check
    that every one writes the report it writes when run by itself."""
    solo = [to_json(run_scaleout(spec)) for spec in specs]
    assert len(set(solo)) == len(solo)

    runs = []
    for spec in specs:
        scenario = scaleout.build_scaleout_scenario(spec)
        query_ids = scaleout.schedule_queries(scenario)
        scaleout.schedule_mutations(scenario)
        runs.append((scenario, query_ids))
    clocks = [scenario.network.simulator for scenario, _ in runs]
    while any([clock.step() for clock in clocks]):  # a list: all step every round
        pass
    for (scenario, query_ids), alone in zip(runs, solo):
        with scenario.cluster as cluster:
            for query_id in query_ids:
                trace = cluster.metrics.trace(query_id)
                if trace.completed_at is None:
                    trace.completed_at = cluster.now
            assert to_json(scenario_report(scenario, query_ids)) == alone


class TestGridOnRealScenarios:
    def test_tiny_grid_runs_and_reports(self, tmp_path):
        jsonl = tmp_path / "rows.jsonl"
        csv = tmp_path / "rows.csv"
        result = Experiment(_tiny_grid()).run(jsonl_path=str(jsonl), csv_path=str(csv))

        assert len(result.rows) == 8
        for row in result.rows:
            assert tuple(row.keys()) == ROW_COLUMNS
            assert row["queries"] == 4
            assert 0.0 <= row["completeness"] <= 1.0

        # Non-degenerate statistics: pooled CIs are strictly inside (0, 1)-width.
        for cell in result.cells:
            completeness = cell["completeness"]
            assert completeness["trials"] == 16
            assert 0.0 < completeness["ci_high"] - completeness["ci_low"] < 1.0
        assert "vs_baseline" in result.cell("riders")
        assert 0.0 <= result.cell("riders")["vs_baseline"]["p_value"] <= 1.0

        # The streamed files agree with the in-memory rows.
        lines = jsonl.read_text().splitlines()
        assert [json.loads(line) for line in lines] == result.rows
        header = csv.read_text().splitlines()[0]
        assert header == ",".join(ROW_COLUMNS)

    def test_same_grid_twice_is_byte_identical(self, tmp_path):
        first = tmp_path / "first.jsonl"
        second = tmp_path / "second.jsonl"
        Experiment(_tiny_grid()).run(jsonl_path=str(first))
        Experiment(_tiny_grid()).run(jsonl_path=str(second))
        assert first.read_bytes() == second.read_bytes()

    def test_adversarial_cell_degrades_completeness(self):
        result = Experiment(_tiny_grid()).run()
        coop = result.cell("coop")["completeness"]["proportion"]
        riders = result.cell("riders")["completeness"]["proportion"]
        assert riders < coop

    def test_completeness_holds_up_under_churn_and_free_riders(self):
        """Cooperative peers under light churn against the same population
        with a quarter free-riding: the baseline stays >= 0.85 complete and
        the adversarial cell keeps >= 70% of that."""
        seeds, repeats, queries = (11,), 2, 6
        spec = ExperimentSpec(
            name="answer-quality",
            scenarios=tuple(
                ScaleoutSpec(name=name, topology="small-world", peers=60,
                             workload="garage-sale", churn="light", queries=queries,
                             free_rider_fraction=riders)
                for name, riders in (("coop-churn", 0.0), ("riders-churn", 0.25))
            ),
            seeds=seeds,
            repeats=repeats,
        )
        result = Experiment(spec).run()
        baseline = result.cell("coop-churn")["completeness"]["proportion"]
        adversary = result.cell("riders-churn")["completeness"]["proportion"]
        assert baseline >= 0.85
        assert adversary / baseline >= 0.70
        for cell in result.cells:
            interval = cell["completeness"]
            assert interval["trials"] == len(seeds) * repeats * queries
            assert 0.0 < interval["ci_high"] - interval["ci_low"] < 1.0
        assert 0.0 <= result.cell("riders-churn")["vs_baseline"]["p_value"] <= 1.0
        assert len(result.rows) == spec.runs


class TestExperimentCLI:
    def test_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "exp"
        code = experiment_main([
            "--scenarios", "smoke,free-riders", "--seeds", "11", "--repeats", "2",
            "--peers", "30", "--queries", "4", "--output-dir", str(out),
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "cells (95% Wilson CIs" in printed
        assert (out / "rows.jsonl").exists()
        assert (out / "rows.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["grid"]["runs"] == 4
        assert len(summary["cells"]) == 2

    def test_dispatch_through_main_cli(self, tmp_path, capsys):
        code = cli_main([
            "experiment", "--scenarios", "smoke", "--seeds", "11", "--repeats", "1",
            "--peers", "30", "--queries", "3",
            "--output-dir", str(tmp_path / "exp"),
        ])
        assert code == 0
        assert "experiment smoke:" in capsys.readouterr().out

    def test_unknown_preset_fails_loudly(self, tmp_path):
        with pytest.raises(SystemExit):
            experiment_main(["--scenarios", "no-such-preset",
                             "--output-dir", str(tmp_path)])

    def test_the_recovery_curve_preset_sweeps_link_loss(self):
        cells = EXPERIMENT_PRESETS["recovery-curve"]()
        assert [cell.name for cell in cells] == [
            "loss-00", "loss-05", "loss-10", "loss-20", "loss-30",
        ]
        assert [cell.fault_loss for cell in cells] == [0.0, 0.05, 0.10, 0.20, 0.30]
        base = SCENARIOS["lossy-links"]
        for cell in cells:
            cell.validate()
            assert replace(cell, name=base.name, fault_loss=base.fault_loss) == base

    def test_the_replica_outage_preset_crashes_zero_to_two_replicas(self, tmp_path, capsys):
        cells = EXPERIMENT_PRESETS["replica-outage"]()
        assert [(cell.name, cell.catalog_outages) for cell in cells] == [
            ("outage-0", 0), ("outage-1", 1), ("outage-2", 2),
        ]
        base = SCENARIOS["sharded-catalog"]
        for cell in cells:
            cell.validate()
            assert replace(cell, name=base.name, catalog_outages=base.catalog_outages) == base
        out = tmp_path / "exp"
        code = experiment_main([
            "--preset", "replica-outage", "--seeds", "11", "--repeats", "1",
            "--peers", "20", "--queries", "3", "--output-dir", str(out),
        ])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert [cell["scenario"] for cell in summary["cells"]] == [
            "outage-0", "outage-1", "outage-2",
        ]

    def test_adversarial_presets_are_registered(self):
        for name in ("zipf-hotspot", "flash-crowd", "free-riders",
                     "stale-catalog", "lying-catalog", "regional-outage"):
            assert name in SCENARIOS
            SCENARIOS[name].validate()


class TestSeedThreading:
    """Satellite regressions: explicit seeds make repeated runs bit-identical."""

    def test_scaleout_same_seed_is_bit_identical_in_process(self):
        spec = ScaleoutSpec(name="seeded", topology="small-world", peers=30,
                            workload="garage-sale", queries=4, seed=19,
                            free_rider_fraction=0.2)
        assert to_json(run_scaleout(spec)) == to_json(run_scaleout(spec))

    def test_a_reliable_and_a_fire_and_forget_cluster_interleaved_report_as_if_alone(self):
        # Delivery is cluster configuration: two clusters stepped event by
        # event in turn, one acknowledging and retransmitting, one not, each
        # write the report they write when run by themselves.
        lossy = ScaleoutSpec(name="seeded", topology="small-world", peers=30,
                             workload="garage-sale", queries=4, seed=19, fault_loss=0.10)
        _assert_interleaved_reports_as_if_alone([replace(lossy, reliable=True), lossy])

    def test_the_fire_and_forget_cluster_stepping_first_changes_no_report(self):
        lossy = ScaleoutSpec(name="seeded", topology="small-world", peers=30,
                             workload="garage-sale", queries=4, seed=19, fault_loss=0.10)
        _assert_interleaved_reports_as_if_alone([lossy, replace(lossy, reliable=True)])

    def test_a_reliable_feed_beside_a_fire_and_forget_one_reports_as_if_alone(self):
        # Subscription deltas ride the same per-cluster protocol choice.
        feed = ScaleoutSpec(name="feed", topology="small-world", peers=60,
                            workload="garage-sale", churn="light", queries=4, seed=7,
                            subscribers=20, mutation_rounds=3)
        reliable_feed = replace(feed, reliable=True)
        assert run_scaleout(reliable_feed)["subscriptions"]["deltas_delivered"] > 0
        _assert_interleaved_reports_as_if_alone([reliable_feed, feed])

    def test_scaleout_adversarial_report_identical_across_transports(self):
        spec = ScaleoutSpec(name="seeded-aio", topology="small-world", peers=20,
                            workload="garage-sale", queries=3, seed=19,
                            catalog_mode="stale")
        assert to_json(run_scaleout(spec, "sim")) == to_json(run_scaleout(spec, "aio"))
