"""Smoke test: the benchmark still runs, checks its outputs, and names every metric.

Runs ``run.py --quick`` (tiny sizes, one rep, no timing assertions) for the
four workloads at once — quick mode makes no timing claim, so the
one-child-at-a-time rule does not apply — and holds the emitted metric names
against ``BENCHMARK.json``.  The two workloads that between them touch every
layer (``feed-aio``: sockets, codec, deltas; ``sharded-lossy``: catalog tier,
faults, retries) also run traced, which triples their cost; the other two
only prove their end-to-end path.  Collected by the tier-1 ``pytest`` run so
the benchmark cannot rot unnoticed; costs about five seconds.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text(encoding="utf-8"))
TRACED = {"gene-1k": False, "flash-200": False, "feed-aio": True, "sharded-lossy": True}


def test_quick_run_emits_every_metric_and_passes_its_checks(tmp_path):
    units = {
        False: {entry["name"]: entry["unit"] for entry in BENCHMARK["end_to_end"]},
        True: {entry["name"]: entry["unit"] for entry in BENCHMARK["per_layer"]},
    }
    assert [entry["name"] for entry in BENCHMARK["workloads"]] == list(TRACED)

    processes = {
        name: subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--quick", "--trace", str(int(traced)),
             "--workload", name, "--out", str(tmp_path / f"{name}.json")],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for name, traced in TRACED.items()
    }
    for name, process in processes.items():
        out, err = process.communicate(timeout=120)
        assert process.returncode == 0, f"{name} failed its checks:\n{out}\n{err}"
        line = json.loads(out.splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
        expected = units[TRACED[name]]
        assert set(line["metrics"]) == set(expected)
        for metric, reading in line["metrics"].items():
            assert reading["unit"] == expected[metric]
            assert math.isfinite(reading["value"]), metric
        result = json.loads((tmp_path / f"{name}.json").read_text(encoding="utf-8"))
        assert set(result["workloads"][name]["end_to_end"]) == set(units[False])
        assert result["workloads"][name]["failures"] == []
