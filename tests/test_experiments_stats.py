"""Experiment statistics: hand-computed fixtures, degenerate inputs, grid runner."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.errors import SimulationError
from repro.experiments import (
    ROW_COLUMNS,
    Experiment,
    ExperimentSpec,
    derive_run_seed,
    mean,
    normal_cdf,
    two_prop_ztest,
    wilson_ci,
    z_for_confidence,
)
from repro.harness.report import jsonl_line
from repro.harness.scaleout import ScaleoutSpec


# --------------------------------------------------------------------------- #
# Normal distribution plumbing
# --------------------------------------------------------------------------- #


class TestNormal:
    def test_cdf_fixtures(self):
        assert normal_cdf(0.0) == pytest.approx(0.5)
        assert normal_cdf(1.959964) == pytest.approx(0.975, abs=1e-6)
        assert normal_cdf(-1.959964) == pytest.approx(0.025, abs=1e-6)

    @pytest.mark.parametrize(
        "confidence, z",
        [(0.90, 1.644854), (0.95, 1.959964), (0.99, 2.575829)],
    )
    def test_critical_values(self, confidence, z):
        assert z_for_confidence(confidence) == pytest.approx(z, abs=1e-5)

    @pytest.mark.parametrize("confidence", [0.0, 1.0, -0.5, 1.5])
    def test_rejects_out_of_range_confidence(self, confidence):
        with pytest.raises(ValueError):
            z_for_confidence(confidence)

    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == pytest.approx(2.0)
        assert mean([]) == 0.0


# --------------------------------------------------------------------------- #
# Wilson score interval
# --------------------------------------------------------------------------- #


class TestWilsonCI:
    def test_hand_computed_8_of_10(self):
        # Published reference values for 8/10 at 95%.
        interval = wilson_ci(8, 10)
        assert interval.proportion == pytest.approx(0.8)
        assert interval.low == pytest.approx(0.4902, abs=1e-4)
        assert interval.high == pytest.approx(0.9433, abs=1e-4)

    def test_boundary_proportions_stay_in_unit_interval(self):
        zero = wilson_ci(0, 10)
        assert zero.proportion == 0.0
        assert zero.low == pytest.approx(0.0, abs=1e-12)
        assert zero.high == pytest.approx(0.2775, abs=1e-4)
        full = wilson_ci(10, 10)
        assert full.proportion == 1.0
        assert full.low == pytest.approx(0.7225, abs=1e-4)
        assert full.high == 1.0

    def test_interval_narrows_with_more_trials(self):
        wide, narrow = wilson_ci(8, 10), wilson_ci(80, 100)
        assert narrow.high - narrow.low < wide.high - wide.low

    def test_zero_trials_is_vacuous_not_an_error(self):
        interval = wilson_ci(0, 0)
        assert (interval.low, interval.high) == (0.0, 1.0)

    def test_rejects_impossible_counts(self):
        with pytest.raises(ValueError):
            wilson_ci(5, 4)
        with pytest.raises(ValueError):
            wilson_ci(-1, 4)
        with pytest.raises(ValueError):
            wilson_ci(0, -1)

    def test_as_dict_is_json_ready(self):
        payload = wilson_ci(8, 10).as_dict()
        assert set(payload) == {
            "proportion", "ci_low", "ci_high", "successes", "trials", "confidence",
        }
        json.dumps(payload)


# --------------------------------------------------------------------------- #
# Two-proportion z-test
# --------------------------------------------------------------------------- #


class TestTwoPropZTest:
    def test_hand_computed_45_vs_30_of_100(self):
        # pooled p = 0.375, z = 0.15 / sqrt(0.375*0.625*0.02) = 2.1909
        result = two_prop_ztest(45, 100, 30, 100)
        assert result.z == pytest.approx(2.1909, abs=1e-3)
        assert result.p_value == pytest.approx(0.0285, abs=1e-3)
        assert result.significant

    def test_antisymmetric_in_its_arguments(self):
        forward = two_prop_ztest(45, 100, 30, 100)
        backward = two_prop_ztest(30, 100, 45, 100)
        assert forward.z == pytest.approx(-backward.z)
        assert forward.p_value == pytest.approx(backward.p_value)

    def test_identical_proportions_are_not_significant(self):
        result = two_prop_ztest(30, 100, 30, 100)
        assert result.z == 0.0
        assert result.p_value == pytest.approx(1.0)
        assert not result.significant

    def test_empty_samples_are_vacuous(self):
        assert two_prop_ztest(0, 0, 5, 10).p_value == 1.0
        assert two_prop_ztest(5, 10, 0, 0).p_value == 1.0

    def test_degenerate_pooled_variance_is_vacuous(self):
        # All successes (or all failures) on both sides: no variance, no verdict.
        assert two_prop_ztest(10, 10, 10, 10).p_value == 1.0
        assert two_prop_ztest(0, 10, 0, 10).p_value == 1.0

    def test_rejects_impossible_counts(self):
        with pytest.raises(ValueError):
            two_prop_ztest(5, 4, 1, 10)
        with pytest.raises(ValueError):
            two_prop_ztest(1, 10, -1, 10)


# --------------------------------------------------------------------------- #
# Grid runner: differential test against a hand-rolled double loop
# --------------------------------------------------------------------------- #


def _stub_report(spec: ScaleoutSpec, transport: str) -> dict[str, object]:
    """A deterministic run_scaleout-shaped report, pure function of the spec."""
    queries = []
    for index in range(4):
        # Recall cycles through {0, 1/3, 2/3, 1} as a function of seed+index,
        # so different cells and seeds genuinely differ.
        recall = ((spec.seed + index) % 4) / 3.0
        queries.append({"recall": recall, "answers": index, "expected": index + 1})
    return {
        "queries": queries,
        "traffic": {
            "messages": 100 + spec.seed % 7,
            "bytes": 1_000 + spec.seed,
            "dropped": spec.seed % 3,
            "mean_latency_ms": 50.0 + (spec.seed % 10),
        },
    }


def _grid_spec(repeats: int = 2) -> ExperimentSpec:
    return ExperimentSpec(
        name="differential",
        scenarios=(
            ScaleoutSpec(name="baseline", peers=10, workload="garage-sale", queries=4),
            ScaleoutSpec(name="adversary", peers=10, workload="garage-sale", queries=4),
        ),
        seeds=(3, 5),
        repeats=repeats,
        complete_threshold=0.5,
    )


class TestExperimentGridDifferential:
    def test_rows_match_a_hand_rolled_double_loop(self):
        spec = _grid_spec()
        result = Experiment(spec, runner=_stub_report).run()

        expected_rows = []
        for scenario in spec.scenarios:
            for seed in spec.seeds:
                for repeat in range(spec.repeats):
                    run_seed = seed * 1000 + repeat
                    assert run_seed == derive_run_seed(seed, repeat)
                    report = _stub_report(replace(scenario, seed=run_seed), "sim")
                    recalls = [row["recall"] for row in report["queries"]]
                    complete = sum(1 for r in recalls if r >= 0.5)
                    expected_rows.append({
                        "scenario": scenario.name,
                        "seed": seed,
                        "repeat": repeat,
                        "run_seed": run_seed,
                        "queries": 4,
                        "complete_queries": complete,
                        "completeness": round(complete / 4, 4),
                        "mean_recall": round(sum(recalls) / 4, 4),
                    })

        assert len(result.rows) == spec.runs == len(expected_rows)
        for actual, expected in zip(result.rows, expected_rows):
            for key, value in expected.items():
                assert actual[key] == value, (key, actual, expected)
            assert tuple(actual.keys()) == ROW_COLUMNS

    def test_cells_match_hand_pooled_statistics(self):
        spec = _grid_spec()
        result = Experiment(spec, runner=_stub_report).run()

        # Pool query successes by scenario, exactly as the runner should.
        pooled: dict[str, tuple[int, int]] = {}
        for row in result.rows:
            successes, trials = pooled.get(str(row["scenario"]), (0, 0))
            pooled[str(row["scenario"])] = (
                successes + int(row["complete_queries"]),
                trials + int(row["queries"]),
            )

        for cell in result.cells:
            successes, trials = pooled[str(cell["scenario"])]
            assert cell["completeness"] == wilson_ci(successes, trials).as_dict()
        adversary = result.cell("adversary")
        base_s, base_t = pooled["baseline"]
        adv_s, adv_t = pooled["adversary"]
        assert adversary["vs_baseline"] == two_prop_ztest(
            adv_s, adv_t, base_s, base_t
        ).as_dict()
        assert "vs_baseline" not in result.cell("baseline")

    def test_grid_is_deterministic_to_the_byte(self, tmp_path):
        spec = _grid_spec()
        first = tmp_path / "first.jsonl"
        second = tmp_path / "second.jsonl"
        Experiment(spec, runner=_stub_report).run(jsonl_path=str(first))
        Experiment(spec, runner=_stub_report).run(jsonl_path=str(second))
        assert first.read_bytes() == second.read_bytes()
        lines = first.read_text().splitlines()
        assert len(lines) == spec.runs
        # Every line round-trips through json with its key order intact.
        assert [jsonl_line(row) for row in json.loads(f"[{','.join(lines)}]")] == lines

    def test_report_document_shape(self):
        result = Experiment(_grid_spec(), runner=_stub_report).run()
        document = result.report()
        json.dumps(document)
        assert document["grid"]["runs"] == 8
        assert document["grid"]["baseline"] == "baseline"
        assert len(document["cells"]) == 2
        assert len(document["rows"]) == 8


class TestExperimentSpecValidation:
    def test_rejects_duplicate_scenario_names(self):
        scenario = ScaleoutSpec(name="dup", peers=10, workload="garage-sale", queries=2)
        with pytest.raises(SimulationError):
            ExperimentSpec(name="bad", scenarios=(scenario, scenario)).validate()

    def test_rejects_unknown_baseline(self):
        scenario = ScaleoutSpec(name="only", peers=10, workload="garage-sale", queries=2)
        with pytest.raises(SimulationError):
            ExperimentSpec(name="bad", scenarios=(scenario,), baseline="ghost").validate()

    def test_rejects_empty_and_degenerate_grids(self):
        scenario = ScaleoutSpec(name="only", peers=10, workload="garage-sale", queries=2)
        with pytest.raises(SimulationError):
            ExperimentSpec(name="bad", scenarios=()).validate()
        with pytest.raises(SimulationError):
            ExperimentSpec(name="bad", scenarios=(scenario,), seeds=()).validate()
        with pytest.raises(SimulationError):
            ExperimentSpec(name="bad", scenarios=(scenario,), seeds=(1, 1)).validate()
        with pytest.raises(SimulationError):
            ExperimentSpec(name="bad", scenarios=(scenario,), repeats=0).validate()
        with pytest.raises(SimulationError):
            ExperimentSpec(
                name="bad", scenarios=(scenario,), complete_threshold=0.0
            ).validate()

    def test_runner_rejects_reports_without_query_rows(self):
        scenario = ScaleoutSpec(name="only", peers=10, workload="garage-sale", queries=2)
        spec = ExperimentSpec(name="bad-runner", scenarios=(scenario,), repeats=1)
        with pytest.raises(SimulationError):
            Experiment(spec, runner=lambda s, t: {"traffic": {}}).run()
