"""A/A check: do two sets of runs of the *same* commit agree within the bounds?

    python3 benchmarks/e2e/aa_check.py --a a1.json a2.json a3.json --b b1.json b2.json b3.json

Each file is a ``run.py --out`` result.  Per workload and end-to-end metric
the median over each set is compared: the B median may be worse than the A
median by at most the metric's bound in ``BENCHMARK.json`` (worse = lower for
``"better": "higher"``, higher otherwise) — and the other way round, since
with the same code neither set is the baseline.  One row per workload x
metric; the exit code is non-zero when any row fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def medians(paths: list[str]) -> dict[str, dict[str, float]]:
    """``workload -> metric -> median`` over the result files of one set."""
    values: dict[str, dict[str, list[float]]] = {}
    for path in paths:
        result = json.loads(Path(path).read_text(encoding="utf-8"))
        for workload, entry in result["workloads"].items():
            for metric, value in entry["end_to_end"].items():
                values.setdefault(workload, {}).setdefault(metric, []).append(value)
    return {
        workload: {metric: statistics.median(samples) for metric, samples in metrics.items()}
        for workload, metrics in values.items()
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--a", nargs="+", required=True, help="result files of the first set")
    parser.add_argument("--b", nargs="+", required=True, help="result files of the second set")
    args = parser.parse_args()

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    first, second = medians(args.a), medians(args.b)
    failed = 0
    print(f"{'workload':14s} {'metric':22s} {'A median':>14s} {'B median':>14s} "
          f"{'B vs A':>9s} {'bound':>6s}  verdict")
    for workload in first:
        for entry in benchmark["end_to_end"]:
            name, bound = entry["name"], entry["bound"]
            a, b = first[workload][name], second[workload][name]
            difference = (b - a) / a
            verdict = "ok" if abs(difference) <= bound else "FAIL"
            failed += verdict == "FAIL"
            print(f"{workload:14s} {name:22s} {a:14.4f} {b:14.4f} {difference:+9.2%} "
                  f"{bound:6.0%}  {verdict}")
    print(f"{failed} row(s) outside their bound" if failed else "all rows within their bounds")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
