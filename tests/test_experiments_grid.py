"""The experiment grid on real scenarios, plus seed-threading regressions."""

from __future__ import annotations

import json

import pytest

from repro.experiments import Experiment, ExperimentSpec, ROW_COLUMNS
from repro.experiments.cli import main as experiment_main
from repro.harness.cli import SCENARIOS, main as cli_main
from repro.harness.report import to_json
from repro.harness.scaleout import ScaleoutSpec, run_scaleout
from repro.perf import overrides


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

    @pytest.mark.parametrize("ambient", ["reliable_delivery", "streaming_results"])
    def test_ambient_wire_flag_does_not_reach_the_report(self, ambient):
        # The wire-protocol flags are process-global; a caller that left one
        # on used to get acks (21 messages for 11) or chunked results in a
        # report whose scenario block said neither.
        spec = ScaleoutSpec(name="seeded", topology="small-world", peers=30,
                            workload="garage-sale", queries=4, seed=19)
        bare = to_json(run_scaleout(spec))
        with overrides(**{ambient: True}):
            assert to_json(run_scaleout(spec)) == bare

    def test_scaleout_adversarial_report_identical_across_transports(self):
        spec = ScaleoutSpec(name="seeded-aio", topology="small-world", peers=20,
                            workload="garage-sale", queries=3, seed=19,
                            catalog_mode="stale")
        assert to_json(run_scaleout(spec, "sim")) == to_json(run_scaleout(spec, "aio"))
