"""End-to-end benchmark of the whole ``repro`` stack: four workloads, one ruler.

    python3 benchmarks/e2e/run.py                      # 5 reps x 4 workloads, ~2.5 min
    python3 benchmarks/e2e/run.py --trace              # ... plus the per-layer ledger
    python3 benchmarks/e2e/run.py --workload gene-1k --seed 3 --seconds 20 --trace 0
    python3 benchmarks/e2e/run.py --quick --trace      # smoke: tiny sizes, < 5 s

Protocol (README.md has the measurements behind each rule): one rep is one
fresh, CPU-pinned child process (``child.py``), one child at a time; reps
are interleaved round-robin across the selected workloads; wall-time
metrics and ``peak_rss_mb`` are medians over the reps, and every
report-derived metric must be identical in every rep.  Per-layer numbers
come from one extra traced child and one ``cProfile`` call-counting child
per workload; end-to-end numbers never do.

The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, the per-layer ones with ``--trace 1``.
The exit code is non-zero when a correctness check fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
    sys.exit(f"run.py: no repro sources under {ROOT}; nothing to measure")
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from workloads import DATA_SEED, WORKLOADS  # noqa: E402  (needs src/ on the path)

CHILD_TIMEOUT_S = 170
DEFAULT_REPS = 5
IDENTICAL_IN_EVERY_REP = ("report_sha256", "derived")


def run_child(workload: str, mode: str, args: argparse.Namespace) -> dict:
    """Run one rep in a fresh process and return its JSON line (plus its wall)."""
    command = [
        sys.executable, str(HERE / "child.py"), "--workload", workload,
        "--seed", str(args.seed), "--data-seed", str(args.data_seed), "--mode", mode,
    ]
    if args.quick:
        command.append("--quick")
    if mode == "trace" and args.trace_out:
        command += ["--trace-out", f"{args.trace_out}.{workload}.json"]
    started = perf_counter()
    # PYTHONHASHSEED=0: set iteration order is part of the program's
    # behaviour here, and a rep must repeat byte for byte.
    completed = subprocess.run(
        command, env={**os.environ, "PYTHONHASHSEED": "0"}, capture_output=True,
        text=True, timeout=CHILD_TIMEOUT_S,
    )
    if completed.returncode != 0:
        sys.stderr.write(completed.stderr)
        raise SystemExit(f"{workload}: {mode} child exited with code {completed.returncode}")
    result = json.loads(completed.stdout.splitlines()[-1])
    result["child_wall_s"] = perf_counter() - started
    return result


def measure(workloads: list[str], args: argparse.Namespace) -> dict[str, list[dict]]:
    """The untraced reps, interleaved round-robin: rep 1 of every workload, rep 2, ..."""
    reps: dict[str, list[dict]] = {name: [] for name in workloads}

    def wants_another(name: str) -> bool:
        done = reps[name]
        if args.reps is not None:
            return len(done) < args.reps
        # Time-budgeted: start a rep only if at least half of it fits.
        spent = sum(rep["child_wall_s"] for rep in done)
        longest = max((rep["child_wall_s"] for rep in done), default=0.0)
        return not done or spent + longest / 2.0 <= args.seconds

    active = list(workloads)
    while active:
        for name in list(active):
            if wants_another(name):
                reps[name].append(run_child(name, "plain", args))
            else:
                active.remove(name)
    return reps


def end_to_end(reps: list[dict]) -> tuple[dict[str, float], dict[str, str]]:
    """Aggregate a workload's reps into the end-to-end metrics, with context."""
    derived = reps[0]["derived"]
    setups = [rep["setup_s"] for rep in reps]
    runs = [rep["run_s"] for rep in reps]
    rss = [rep["peak_rss_mb"] for rep in reps]
    run_s = statistics.median(runs)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": derived["ops_attempted"] / run_s,
        "peak_rss_mb": statistics.median(rss),
        **{
            name: derived[name]
            for name in ("bytes_per_answer", "recall_mean", "sim_latency_ms_p50",
                         "sim_latency_ms_tail")
        },
    }
    context = {
        "setup_s": f"median of {len(reps)}; min {min(setups):.4f}, max {max(setups):.4f}",
        "ops_per_s": f"{derived['ops_attempted']} ops / median run wall {run_s:.4f} s; "
                     f"min {min(runs):.4f}, max {max(runs):.4f}",
        "peak_rss_mb": f"median of {len(reps)}; min {min(rss):.1f}, max {max(rss):.1f}",
        "sim_latency_ms_p50": f"n={derived['latency_samples']}",
        "sim_latency_ms_tail": f"n={derived['latency_samples']}",
    }
    return metrics, context


def per_layer(reps: list[dict], traced: dict, counted: dict) -> dict[str, float]:
    """The traced child's ledger plus the three metrics that need a second child."""
    derived = traced["derived"]
    untraced_run_s = statistics.median(rep["run_s"] for rep in reps)
    return {
        **traced["layers"],
        "network.msgs_per_s": derived["messages"] / untraced_run_s,
        "run.py_calls_per_op": counted["py_calls"] / derived["ops_attempted"],
        "run.answers_total": derived["answers_total"],
        "run.ops_attempted": derived["ops_attempted"],
        "run.ops_failed": derived["ops_failed"],
        "run.failed_share": derived["failed_share"],
        "run.complete_share": derived["complete_share"],
        "trace.overhead_ratio": traced["run_s"] / untraced_run_s,
    }


def check(name: str, children: list[dict], metrics: dict, declared: list[dict],
          expected_ops: int | None) -> list[str]:
    """Every correctness failure of one workload, as messages (empty = correct)."""
    failures = [
        f"{name}: {label}: {outcome}"
        for child in children
        for label, outcome in child["checks"].items()
        if outcome is not True
    ]
    for key in IDENTICAL_IN_EVERY_REP:
        if any(child[key] != children[0][key] for child in children):
            failures.append(f"{name}: {key} differs between reps of the same seed")
    attempted = children[0]["derived"]["ops_attempted"]
    if expected_ops is not None and attempted != expected_ops:
        failures.append(f"{name}: {attempted} ops attempted, expected {expected_ops}")
    names = {entry["name"] for entry in declared}
    for missing in sorted(names - metrics.keys()):
        failures.append(f"{name}: metric {missing} is in BENCHMARK.json but was not emitted")
    for extra in sorted(metrics.keys() - names):
        failures.append(f"{name}: metric {extra} was emitted but is not in BENCHMARK.json")
    for label, value in metrics.items():
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            failures.append(f"{name}: metric {label} is not a finite number: {value!r}")
    return failures


def print_table(name: str, title: str, metrics: dict, declared: list[dict],
                context: dict[str, str]) -> None:
    print(f"\n{name}  {title}")
    for entry in declared:
        value = metrics.get(entry["name"], math.nan)
        bound = f"  bound {entry['bound']:.0%}" if "bound" in entry else ""
        note = f"  [{context[entry['name']]}]" if entry["name"] in context else ""
        print(f"  {entry['name']:32s} {value:16.6f} {entry['unit']:7s}{bound}{note}")


def workload_result(name: str, reps: list[dict], args: argparse.Namespace,
                    benchmark: dict) -> dict:
    """Aggregate, check and print one workload; run its traced children if asked."""
    workload = WORKLOADS[name]
    children = list(reps)
    metrics, context = end_to_end(reps)
    declared = list(benchmark["end_to_end"])
    layers: dict[str, float] = {}
    if args.trace:
        traced = run_child(name, "trace", args)
        counted = run_child(name, "calls", args)
        children += [traced, counted]
        layers = per_layer(reps, traced, counted)
        declared += benchmark["per_layer"]
    full_size = not args.quick and args.data_seed == DATA_SEED
    failures = check(name, children, {**metrics, **layers}, declared,
                     workload.expected_ops if full_size else None)
    derived = reps[0]["derived"]
    title = (
        f"({len(reps)} reps, seed {args.seed}, data seed {args.data_seed}, "
        f"{derived['ops_attempted']} ops of kind {workload.op}, "
        f"{derived['ops_failed']} failed, tail = {workload.tail_label})"
    )
    print_table(name, title, metrics, benchmark["end_to_end"], context)
    if args.trace:
        print_table(name, "per layer (one traced child; *_s are self times)", layers,
                    benchmark["per_layer"], {})
    for failure in failures:
        print(f"  CHECK FAILED  {failure}")
    return {
        "correct": not failures,
        "failures": failures,
        "attempted": derived["ops_attempted"],
        "failed": derived["ops_failed"],
        "rep_setup_s": [rep["setup_s"] for rep in reps],
        "rep_run_s": [rep["run_s"] for rep in reps],
        "end_to_end": metrics,
        "per_layer": layers,
    }


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", default=None, choices=list(WORKLOADS),
                        help="one workload (default: all four, interleaved)")
    parser.add_argument("--seed", type=int, default=DATA_SEED,
                        help="draws the arrival process; same seed, same inputs")
    parser.add_argument("--data-seed", type=int, default=DATA_SEED,
                        help="ScaleoutSpec.seed: population, topology, query set")
    parser.add_argument("--reps", type=int, default=None,
                        help=f"untraced reps per workload (default {DEFAULT_REPS})")
    parser.add_argument("--seconds", type=float, default=None,
                        help="instead of --reps: keep starting reps while they fit this budget")
    parser.add_argument("--trace", nargs="?", type=int, choices=(0, 1), const=1, default=0,
                        help="add the traced and call-counting children; report per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="smoke mode: one rep, tiny sizes, no meaning in the timings")
    parser.add_argument("--out", default=None, help="write all results to this JSON file")
    parser.add_argument("--trace-out", default=None,
                        help="prefix for span files (<prefix>.<workload>.json)")
    args = parser.parse_args()
    if args.quick or (args.trace and args.reps is None and args.seconds is not None):
        # A traced run's work is fixed (one untraced rep for the overhead
        # ratio, one traced, one counted); a time budget does not extend it.
        args.reps = 1
    elif args.reps is None and args.seconds is None:
        args.reps = DEFAULT_REPS

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    selected = [args.workload] if args.workload else list(WORKLOADS)
    reps = measure(selected, args)
    results = {name: workload_result(name, reps[name], args, benchmark) for name in selected}
    if args.out:
        Path(args.out).write_text(
            json.dumps({"seed": args.seed, "data_seed": args.data_seed, "quick": args.quick,
                        "workloads": results}, indent=2) + "\n",
            encoding="utf-8",
        )

    declared = benchmark["per_layer"] if args.trace else benchmark["end_to_end"]

    def line_metrics(result: dict) -> dict:
        values = result["per_layer"] if args.trace else result["end_to_end"]
        return {
            entry["name"]: {"value": values[entry["name"]], "unit": entry["unit"]}
            for entry in declared if entry["name"] in values
        }

    correct = all(result["correct"] for result in results.values())
    print()
    print(json.dumps({
        "correct": correct,
        "attempted": sum(result["attempted"] for result in results.values()),
        "failed": sum(result["failed"] for result in results.values()),
        "metrics": line_metrics(results[selected[0]]) if len(selected) == 1
        else {name: line_metrics(result) for name, result in results.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
