"""Merging worker fragments into one scaleout report.

Every worker replays the same bootstrap (it is deterministic and fully
replicated), then runs only its own shard.  So the parent reconstructs the
single-process report by combining:

* the *bootstrap* metrics once (worker 0 reports them; every other worker
  subtracts its post-build snapshot so replicated traffic is not double
  counted), plus
* each worker's *run-phase* delta, which by construction only contains
  sends from peers that worker owns.

Per-query traces merge by query id (labels are deterministic): client-side
fields (issue/completion times, answers, expectations) are only ever
written on worker 0 where the client lives, message and byte counts sum,
and visited lists concatenate in worker order.

:func:`sequence_identity` is the relaxed gate that replaces byte-identity
for multi-process runs: schema, population, scenario (modulo the
worker count), and the per-query answer sequence must all agree between a
multicore report and its in-process reference.
"""

from __future__ import annotations

from collections import Counter
from typing import Any

from ..network.metrics import NetworkMetrics, QueryTrace

__all__ = [
    "assemble_report",
    "merge_metrics",
    "metrics_fragment",
    "sequence_identity",
]

_SCALARS = (
    "messages_sent",
    "bytes_sent",
    "dropped_messages",
    "fault_partitioned",
    "fault_duplicates",
    "fault_delays",
    "fault_reorders",
)
_COUNTERS = (
    "messages_by_kind",
    "bytes_by_kind",
    "messages_by_sender",
    "fault_losses_by_kind",
    "dead_letters_by_kind",
)


def metrics_fragment(
    metrics: NetworkMetrics, baseline: dict[str, Any] | None = None
) -> dict[str, Any]:
    """Serialize ``metrics`` as a codec-safe dict, minus ``baseline``.

    Workers call this twice: once right after bootstrap (no baseline) to
    snapshot the replicated build traffic, and once at the end with that
    snapshot as ``baseline`` so the fragment holds only run-phase activity.
    Counter subtraction here keeps zero entries out, matching a metrics
    object that never saw the bootstrap.
    """
    fragment: dict[str, Any] = {}
    for name in _SCALARS:
        value = getattr(metrics, name)
        if baseline is not None:
            value -= baseline.get(name, 0)
        fragment[name] = value
    for name in _COUNTERS:
        counter = Counter(getattr(metrics, name))
        if baseline is not None:
            for key, seen in baseline.get(name, Counter()).items():
                counter[key] -= seen
        fragment[name] = Counter({key: n for key, n in counter.items() if n})
    fragment["traces"] = [
        {
            "query_id": trace.query_id,
            "issued_at": trace.issued_at,
            "completed_at": trace.completed_at,
            "visited": list(trace.visited),
            "messages": trace.messages,
            "bytes": trace.bytes,
            "answers": trace.answers,
            "expected_answers": trace.expected_answers,
        }
        for trace in metrics.traces.values()
    ]
    return fragment


def merge_metrics(fragments: list[dict[str, Any]]) -> NetworkMetrics:
    """Fold worker fragments (in worker order) into one metrics object."""
    merged = NetworkMetrics()
    for fragment in fragments:
        for name in _SCALARS:
            setattr(merged, name, getattr(merged, name) + fragment.get(name, 0))
        for name in _COUNTERS:
            getattr(merged, name).update(fragment.get(name, Counter()))
        for row in fragment.get("traces", ()):
            trace = merged.trace(row["query_id"])
            _merge_trace(trace, row)
    return merged


def _merge_trace(trace: QueryTrace, row: dict[str, Any]) -> None:
    # Client-side fields are written only where the client runs (worker 0);
    # on every other worker they hold the dataclass defaults, so "first
    # non-default wins" reconstructs the single-process trace exactly.
    trace.issued_at = max(trace.issued_at, row["issued_at"])
    if trace.completed_at is None:
        trace.completed_at = row["completed_at"]
    trace.answers = max(trace.answers, row["answers"])
    if trace.expected_answers is None:
        trace.expected_answers = row["expected_answers"]
    trace.visited.extend(row["visited"])
    trace.messages += row["messages"]
    trace.bytes += row["bytes"]


def _query_rows(metrics: NetworkMetrics, query_ids: list[str]) -> list[dict[str, Any]]:
    # Mirrors the row shape in repro.harness.scaleout._report — positional
    # labels, rounded derived columns — so multicore reports keep the schema.
    rows = []
    for position, query_id in enumerate(query_ids):
        trace = metrics.trace(query_id)
        rows.append(
            {
                "query": f"q{position}",
                "answers": trace.answers,
                "expected": trace.expected_answers,
                "recall": round(trace.recall, 3) if trace.recall is not None else None,
                "latency_ms": round(trace.latency_ms, 3)
                if trace.latency_ms is not None
                else None,
                "peers_visited": trace.distinct_peers,
                "messages": trace.messages,
            }
        )
    return rows


def _sum_blocks(fragments: list[dict[str, Any]], key: str) -> dict[str, int]:
    total: dict[str, int] = {}
    for fragment in fragments:
        for name, value in fragment.get(key, {}).items():
            total[name] = total.get(name, 0) + value
    return total


def assemble_report(
    static: dict[str, Any],
    fragments: list[dict[str, Any]],
    multicore: dict[str, Any],
) -> dict[str, Any]:
    """Build the final report from worker 0's static blocks plus fragments.

    ``static`` carries the blocks that are identical in every worker
    (scenario, population, topology, churn, the optional adversary block)
    along with ``query_ids``, ``reliable`` and ``faults_active``;
    ``fragments`` is one dict per worker, in worker order, each holding a
    ``metrics`` fragment plus owned-peer ``processing`` and ``resilience``
    counter sums.  The result matches the single-process report key for
    key, with the ``multicore`` block appended.
    """
    # The bootstrap snapshot (worker 0's, identical everywhere) restores the
    # replicated build traffic exactly once; its trace list is dropped —
    # queries had not run yet, and the run-phase deltas carry full traces.
    bootstrap = dict(fragments[0].get("bootstrap") or {})
    bootstrap.pop("traces", None)
    merged = merge_metrics([bootstrap] + [fragment["metrics"] for fragment in fragments])
    summary = {key: round(value, 3) for key, value in merged.summary().items()}

    report: dict[str, Any] = {
        "scenario": static["scenario"],
        "population": static["population"],
        "topology": static["topology"],
        "churn": static["churn"],
        "traffic": summary,
        "queries": _query_rows(merged, static["query_ids"]),
        "processing": _sum_blocks(fragments, "processing"),
    }

    if static.get("reliable") or static.get("faults_active"):
        counters = _sum_blocks(fragments, "resilience")
        report["resilience"] = {
            "reliable": bool(static.get("reliable")),
            "faults": merged.fault_summary(),
            "retries_sent": counters.get("retries_sent", 0),
            "transfers_failed": counters.get("transfers_failed", 0),
            "duplicates_dropped": counters.get("duplicates_dropped", 0),
            "acks_sent": counters.get("acks_sent", 0),
            "dead_letters_by_kind": dict(sorted(merged.dead_letters_by_kind.items())),
        }

    if static.get("adversary") is not None:
        report["adversary"] = static["adversary"]

    report["multicore"] = multicore
    return report


def _schema(value: Any) -> Any:
    """The key structure of a report, with leaf values erased."""
    if isinstance(value, dict):
        return {key: _schema(inner) for key, inner in sorted(value.items())}
    if isinstance(value, list):
        return [_schema(inner) for inner in value]
    return "·"


def sequence_identity(left: dict[str, Any], right: dict[str, Any]) -> float:
    """Fraction of identity checks two reports pass (1.0 = fully identical).

    This is the multicore replacement for the byte-identity gate: real
    parallelism re-draws link latencies in a different first-use order, so
    timing columns legitimately differ — but the *sequence* of results must
    not.  Checks: recursive schema equality (the ``multicore`` block is
    excluded, since only multicore reports carry one), the population block,
    the scenario block modulo the worker count, and per-query answers /
    expectations / recall.
    """
    checks = 0
    passed = 0

    def strip(report: dict[str, Any]) -> dict[str, Any]:
        # The multicore block — and the spec's ``workers`` knob, elided at
        # its zero default — exist only on multicore reports; everything
        # else must line up key for key.
        shallow = {key: value for key, value in report.items() if key != "multicore"}
        scenario = shallow.get("scenario")
        if isinstance(scenario, dict):
            shallow["scenario"] = {
                key: value for key, value in scenario.items() if key != "workers"
            }
        return shallow

    checks += 1
    passed += _schema(strip(left)) == _schema(strip(right))

    checks += 1
    passed += left.get("population") == right.get("population")

    def scenario_of(report: dict[str, Any]) -> dict[str, Any]:
        block = report.get("scenario")
        if not isinstance(block, dict):
            return {}
        return {key: value for key, value in block.items() if key != "workers"}

    checks += 1
    passed += scenario_of(left) == scenario_of(right)

    left_rows = left.get("queries") or []
    right_rows = right.get("queries") or []
    checks += 1
    passed += len(left_rows) == len(right_rows)
    for mine, theirs in zip(left_rows, right_rows):
        checks += 1
        passed += all(
            mine.get(column) == theirs.get(column)
            for column in ("query", "answers", "expected", "recall")
        )
    return passed / checks
