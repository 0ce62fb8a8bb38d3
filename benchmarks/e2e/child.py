"""One repetition of one workload, in a fresh process; prints one JSON line.

``run.py`` starts this file once per rep (never two at a time).  The child
pins itself to the highest-numbered allowed CPU, builds the workload's
``ScaleoutSpec`` through the public ``run_scaleout`` entry point, stopwatches
``build_scaleout_scenario`` from outside (set-up) and the rest (run phase),
reduces the seeded report to the report-derived metrics, and runs the
per-rep correctness checks.

``--mode trace`` installs the span wrappers of :mod:`trace` first and adds
the per-layer ledger; ``--mode calls`` runs the run phase under ``cProfile``
and adds the total call count.  End-to-end numbers always come from
``--mode plain`` children.
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import json
import math
import os
import resource
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))
sys.path.insert(0, str(HERE))

from repro.harness import scaleout  # noqa: E402

from trace import Tracer, layer_metrics  # noqa: E402  (this directory's trace.py)
from workloads import DATA_SEED, WORKLOADS, Workload  # noqa: E402


def percentile(ordered: list[float], share: float) -> float:
    """Nearest-rank percentile of an ascending list (``share`` 1.0 is the maximum)."""
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def query_ops(workload: Workload, scenario, report: dict) -> tuple[dict, dict]:
    """Reduce a query workload's report: one op per client query."""
    rows = report["queries"]
    arrived = scenario.client.results  # query id -> QueryResult, one per result envelope
    failed = {
        row["query"] for position, row in enumerate(rows)
        if f"{scenario.spec.name}-q{position}" not in arrived
    }
    recalls = [
        1.0 if row["expected"] == 0 else row["answers"] / row["expected"] for row in rows
    ]
    complete = sum(
        1 for row in rows if row["query"] not in failed and row["answers"] >= row["expected"]
    )
    answers = sum(row["answers"] for row in rows)
    latencies = sorted(row["latency_ms"] for row in rows)
    overfull = [row["query"] for row in rows if row["answers"] > row["expected"]]
    checks = {
        "ops_attempted": len(rows) == scenario.spec.queries
        or f"{len(rows)} queries fired, spec says {scenario.spec.queries}",
        "answers_le_expected": not overfull or f"more answers than expected on {overfull[:5]}",
    }
    return _derived(workload, report, len(rows), len(failed), recalls, complete,
                    answers, latencies), checks


def delta_ops(workload: Workload, scenario, report: dict, sim_start: float) -> tuple[dict, dict]:
    """Reduce the feed workload: one op per expected delta delivery.

    Ground truth is computed here, not read from the system: every mutation
    round, each hot publisher owes one delta to each subscriber whose
    watched area overlaps the publisher's data area.  Feeds see no churn,
    so a publisher's ``seq`` is the round number and the op's latency runs
    from the round's scheduled mutation time to ``DeltaRecord.received_at``.
    """
    spec = scenario.spec
    areas = [query.area for query in scenario.queries]
    data_area = {peer.address: peer.area for peer in scenario.data_peers if peer.items}
    publishers = [address for address in scenario.hot_publishers if address in data_area]
    expected = delivered = duplicates = 0
    latencies: list[float] = []
    out_of_order: list[str] = []
    for position, address in enumerate(scenario.subscriber_addresses):
        watched = areas[position % len(areas)]
        owed = {pub for pub in publishers if data_area[pub].overlaps(watched)}
        expected += len(owed) * spec.mutation_rounds
        state = scenario.cluster.session(address).peer.my_subscriptions[
            scenario.subscription_ids[position]
        ]
        seen: dict[str, list[int]] = {}
        for record in state.deltas:
            seen.setdefault(record.publisher, []).append(record.seq)
            scheduled = sim_start + (record.seq + 1) * spec.query_interval_ms
            latencies.append(record.received_at - scheduled)
        for publisher, seqs in seen.items():
            unique = len(set(seqs))
            duplicates += len(seqs) - unique
            delivered += unique if publisher in owed else 0
            if seqs != sorted(seqs):
                out_of_order.append(f"{address}<-{publisher}")
    block = report["subscriptions"]
    failed = (expected - delivered) + duplicates
    latencies.sort()
    checks = {
        "no_delta_gaps": block["delta_gaps"] == 0 or f"{block['delta_gaps']} delta gaps",
        "no_delta_duplicates": (block["delta_duplicates"] == 0 and duplicates == 0)
        or f"{block['delta_duplicates']} + {duplicates} duplicate deltas",
        "feeds_in_seq_order": not out_of_order or f"out of order: {out_of_order[:5]}",
        "deliveries_match_report": len(latencies) == block["deltas_delivered"]
        or f"{len(latencies)} records vs {block['deltas_delivered']} reported",
    }
    share = delivered / expected if expected else 0.0
    return _derived(workload, report, expected, failed, [share], expected - failed,
                    delivered, latencies), checks


def _derived(
    workload: Workload, report: dict, attempted: int, failed: int, recalls: list[float],
    complete: int, answers: int, latencies: list[float],
) -> dict:
    traffic = report["traffic"]
    return {
        "ops_attempted": attempted,
        "ops_failed": failed,
        "answers_total": answers,
        "messages": int(traffic["messages"]),
        "bytes_per_answer": traffic["bytes"] / answers if answers else math.inf,
        "recall_mean": sum(recalls) / len(recalls),
        "complete_share": complete / attempted if attempted else 0.0,
        "failed_share": failed / attempted if attempted else 1.0,
        "sim_latency_ms_p50": percentile(latencies, 0.5) if latencies else math.inf,
        "sim_latency_ms_tail": percentile(latencies, workload.tail) if latencies else math.inf,
        "latency_samples": len(latencies),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--data-seed", type=int, default=DATA_SEED)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--mode", choices=("plain", "trace", "calls"), default="plain")
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()

    if hasattr(os, "sched_setaffinity") and not args.quick:
        # cpu0 measured ~8% slower than cpu1 on the reference box; quick runs
        # make no timing claim and may share the machine with each other.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    workload = WORKLOADS[args.workload]
    spec = workload.spec(args.seed, data_seed=args.data_seed, quick=args.quick)
    tracer = Tracer() if args.mode == "trace" else None
    profiler = cProfile.Profile() if args.mode == "calls" else None
    if tracer is not None:
        tracer.install()

    built: dict = {}
    build = scaleout.build_scaleout_scenario

    def timed_build(*build_args, **build_kwargs):
        started = perf_counter()
        scenario = build(*build_args, **build_kwargs)
        built.update(
            scenario=scenario, setup_s=perf_counter() - started, sim_start=scenario.network.now
        )
        if profiler is not None:
            profiler.enable()  # the run phase only
        built["run_started"] = perf_counter()
        return scenario

    # run_scaleout resolves the builder through its module global, so the
    # stopwatch sits exactly around set-up without touching src/.
    scaleout.build_scaleout_scenario = timed_build
    started = perf_counter()
    report = scaleout.run_scaleout(spec, transport=workload.transport)
    ended = perf_counter()
    if profiler is not None:
        profiler.disable()

    scenario = built["scenario"]
    if workload.op == "delta":
        derived, checks = delta_ops(workload, scenario, report, built["sim_start"])
    else:
        derived, checks = query_ops(workload, scenario, report)
    checks["recall_in_unit_interval"] = (
        0.0 <= derived["recall_mean"] <= 1.0 or f"recall {derived['recall_mean']}"
    )
    if workload.fault_free and args.data_seed == DATA_SEED:
        # Stated for the pinned data set only: at data seed 23, flash-200
        # loses 0.2% of its answers with no fault injected at all.
        checks["fault_free_recall_is_1"] = (
            derived["recall_mean"] == 1.0 or f"recall {derived['recall_mean']}"
        )
        checks["fault_free_no_failed_op"] = (
            derived["ops_failed"] == 0 or f"{derived['ops_failed']} failed ops"
        )

    run_s = ended - built["run_started"]
    result = {
        "workload": workload.name,
        "seed": args.seed,
        "mode": args.mode,
        "setup_s": built["setup_s"],
        "run_s": run_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "report_sha256": hashlib.sha256(
            json.dumps(report, sort_keys=True).encode("utf-8")
        ).hexdigest(),
        "derived": derived,
        "checks": checks,
    }
    if tracer is not None:
        result["layers"] = layer_metrics(
            tracer, scenario, report, derived["ops_attempted"], built["run_started"],
            run_s, ended - started,
        )
        if args.trace_out:
            tracer.write(args.trace_out)
    if profiler is not None:
        result["py_calls"] = sum(entry.callcount for entry in profiler.getstats())
    print(json.dumps(result))


if __name__ == "__main__":
    main()
