"""Reports: a scale-out run's JSON document, plain-text tables, row logs.

:func:`scenario_report` reduces a finished scale-out run to its report.
Every benchmark prints the rows it reproduces (the paper has no numeric
tables, so these are the measurable versions of its qualitative claims);
``docs/experiments.md`` records the same output.  The formatting here is
deliberately dependency-free: aligned monospace tables that survive being
pasted into Markdown code blocks.
"""

from __future__ import annotations

import csv
import json
import pathlib
from dataclasses import asdict, fields
from typing import IO, TYPE_CHECKING, Mapping, Sequence

from ..peers import QueryPeer

if TYPE_CHECKING:
    from .scaleout import ScaleoutScenario
    from .spec import ScaleoutSpec

__all__ = [
    "format_table",
    "format_summary",
    "to_json",
    "write_json_report",
    "jsonl_line",
    "RowLog",
    "scenario_dict",
    "scenario_report",
]


def _render(value: object, precision: int) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.{precision}f}"
    return str(value)


def format_table(
    rows: Sequence[Mapping[str, object]],
    columns: Sequence[str] | None = None,
    title: str | None = None,
    precision: int = 2,
) -> str:
    """Render a list of row dictionaries as an aligned text table."""
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    columns = list(columns) if columns is not None else list(rows[0].keys())
    rendered = [[_render(row.get(column, ""), precision) for column in columns] for row in rows]
    widths = [
        max(len(column), *(len(line[index]) for line in rendered))
        for index, column in enumerate(columns)
    ]
    header = " | ".join(column.ljust(width) for column, width in zip(columns, widths))
    separator = "-+-".join("-" * width for width in widths)
    body = [
        " | ".join(value.rjust(width) for value, width in zip(line, widths))
        for line in rendered
    ]
    lines = ([title] if title else []) + [header, separator] + body
    return "\n".join(lines)


def format_summary(summary: Mapping[str, float], title: str | None = None, precision: int = 2) -> str:
    """Render a flat metric dictionary as a two-column table."""
    rows = [{"metric": key, "value": value} for key, value in summary.items()]
    return format_table(rows, ["metric", "value"], title=title, precision=precision)


def to_json(payload: Mapping[str, object]) -> str:
    """Serialize a report payload as stable, human-diffable JSON.

    Keys keep their insertion order (reports are built in narrative order)
    and floats are rounded at source by the builders, so two runs of the
    same seeded scenario produce byte-identical documents.
    """
    return json.dumps(payload, indent=2, sort_keys=False, default=str) + "\n"


def write_json_report(path: str | pathlib.Path, payload: Mapping[str, object]) -> pathlib.Path:
    """Write a JSON report, creating parent directories as needed."""
    target = pathlib.Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(to_json(payload), encoding="utf-8")
    return target


# --------------------------------------------------------------------------- #
# Streaming row logs (JSONL / CSV) for the experiment matrix
# --------------------------------------------------------------------------- #


def jsonl_line(row: Mapping[str, object]) -> str:
    """One JSONL line: compact, insertion-ordered, deterministic."""
    return json.dumps(row, sort_keys=False, separators=(", ", ": "), default=str)


class RowLog:
    """Streams rows to JSONL and/or CSV as they are produced.

    An experiment grid can run for hours; a crash half-way must not lose
    the completed runs.  Every :meth:`append` writes and flushes one JSONL
    line (and one CSV row when a column set was given) before returning.
    """

    def __init__(
        self,
        jsonl_path: str | pathlib.Path | None = None,
        csv_path: str | pathlib.Path | None = None,
        csv_columns: Sequence[str] | None = None,
    ) -> None:
        self.rows: list[Mapping[str, object]] = []
        self._jsonl: IO[str] | None = None
        self._csv_handle: IO[str] | None = None
        self._csv_writer: csv.DictWriter | None = None
        if jsonl_path is not None:
            target = pathlib.Path(jsonl_path)
            target.parent.mkdir(parents=True, exist_ok=True)
            self._jsonl = target.open("w", encoding="utf-8")
        if csv_path is not None:
            if csv_columns is None:
                raise ValueError("csv_path requires csv_columns (CSV headers lead the file)")
            target = pathlib.Path(csv_path)
            target.parent.mkdir(parents=True, exist_ok=True)
            self._csv_handle = target.open("w", encoding="utf-8", newline="")
            self._csv_writer = csv.DictWriter(
                self._csv_handle, fieldnames=list(csv_columns), extrasaction="ignore"
            )
            self._csv_writer.writeheader()

    def append(self, row: Mapping[str, object]) -> None:
        """Record one row, flushing it to every attached sink."""
        self.rows.append(row)
        if self._jsonl is not None:
            self._jsonl.write(jsonl_line(row) + "\n")
            self._jsonl.flush()
        if self._csv_writer is not None and self._csv_handle is not None:
            self._csv_writer.writerow(dict(row))
            self._csv_handle.flush()

    def close(self) -> None:
        """Close every attached sink.  Idempotent."""
        if self._jsonl is not None:
            self._jsonl.close()
            self._jsonl = None
        if self._csv_handle is not None:
            self._csv_handle.close()
            self._csv_handle = None
            self._csv_writer = None

    def __enter__(self) -> "RowLog":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


# --------------------------------------------------------------------------- #
# The scale-out report
# --------------------------------------------------------------------------- #

_ELIDED_AT_DEFAULT = (
    "query_mix",
    "free_rider_fraction",
    "catalog_mode",
    "reliable",
    "fault_loss",
    "fault_duplicate",
    "fault_delay",
    "fault_reorder",
    "fault_partition",
    "subscribers",
    "mutation_rounds",
    "catalog_shards",
    "catalog_replicas",
    "catalog_outages",
)
"""Spec fields left out of the report's scenario block at their defaults.

The adversary, fault, subscription and catalog-tier knobs: a report that
sets none of them reads as it did before the knob existed."""


def scenario_dict(spec: "ScaleoutSpec") -> dict[str, object]:
    """The report's ``scenario`` block: every spec field, less the
    :data:`_ELIDED_AT_DEFAULT` ones still at their defaults."""
    defaults = {each.name: each.default for each in fields(spec)}
    return {
        key: value
        for key, value in asdict(spec).items()
        if key not in _ELIDED_AT_DEFAULT or value != defaults[key]
    }


def scenario_report(scenario: "ScaleoutScenario", query_ids: list[str]) -> dict[str, object]:
    """The JSON-ready report of a scale-out run whose clock has run down.

    Everything in it derives from seeded state, so one spec gives one
    document on every transport; a feature block appears only when its
    spec knobs are set.
    """
    spec = scenario.spec
    network = scenario.network
    summary = {key: round(value, 3) for key, value in network.metrics.summary().items()}

    query_rows = []
    for position, query_id in enumerate(query_ids):
        trace = network.metrics.trace(query_id)
        query_rows.append(
            {
                # Positional label, not the raw id: plan ids come from a
                # process-global counter and would break run-to-run
                # determinism of the report.
                "query": f"q{position}",
                "answers": trace.answers,
                "expected": trace.expected_answers,
                "recall": round(trace.recall, 3) if trace.recall is not None else None,
                "latency_ms": round(trace.latency_ms, 3) if trace.latency_ms is not None else None,
                "peers_visited": trace.distinct_peers,
                "messages": trace.messages,
            }
        )

    report: dict[str, object] = {
        "scenario": scenario_dict(spec),
        "population": {
            "data_peers": len(scenario.data_peers),
            "index_servers": len(scenario.index_servers),
            "meta_index_servers": 1 if scenario.meta_index is not None else 0,
            "clients": 1,
            "total_nodes": scenario.total_peers,
            "registrations": scenario.registrations,
        },
        "topology": scenario.topology.summary(),
        "churn": scenario.churn_plan.summary()
        if scenario.churn_plan is not None
        else {"profile": spec.churn, "events": 0, "leaves": 0, "crashes": 0, "rejoins": 0},
        "traffic": summary,
        "queries": query_rows,
    }

    peers = [node for node in network.nodes() if isinstance(node, QueryPeer)]

    if spec.routing == "mqp":
        forwarding = [peer.forwarding for peer in peers]
        report["processing"] = {
            "plans_processed": sum(each.plans_processed for each in forwarding),
            "plans_forwarded": sum(each.plans_forwarded for each in forwarding),
            "plans_stuck": sum(each.plans_stuck for each in forwarding),
            "plans_rerouted": sum(each.plans_rerouted for each in forwarding),
            "dead_letters": sum(len(peer.transfers.dead_letters) for peer in peers),
            "eval_memo_hits": sum(peer.processor.evaluations.hits for peer in peers),
        }

    if spec.reliable or network.faults.active:
        transfers = [peer.transfers for peer in peers]
        report["resilience"] = {
            "reliable": spec.reliable,
            "faults": network.metrics.fault_summary(),
            "retries_sent": sum(each.retries_sent for each in transfers),
            "transfers_failed": sum(each.transfers_failed for each in transfers),
            "duplicates_dropped": sum(each.duplicates_dropped for each in transfers),
            "acks_sent": sum(each.acks_sent for each in transfers),
            "dead_letters_by_kind": dict(
                sorted(network.metrics.dead_letters_by_kind.items())
            ),
        }

    if spec.subscribers > 0:
        feeds = [peer.subscriptions for peer in peers]
        delivered = [
            scenario.cluster.session(address).peer.subscriptions.deltas_delivered
            for address in scenario.subscriber_addresses
        ]
        report["subscriptions"] = {
            "subscribers": spec.subscribers,
            "mutation_rounds": spec.mutation_rounds,
            "hot_publishers": len(scenario.hot_publishers),
            "armed": sum(len(each.armed) for each in feeds),
            "deltas_published": sum(each.deltas_published for each in feeds),
            "deltas_delivered": sum(delivered),
            "delivery_min": min(delivered) if delivered else 0,
            "delivery_max": max(delivered) if delivered else 0,
            "delta_duplicates": sum(each.delta_duplicates for each in feeds),
            "delta_gaps": sum(each.delta_gaps for each in feeds),
            "authority_conflicts": sum(each.authority_conflicts for each in feeds),
            "resubscribes": sum(each.resubscribes for each in feeds),
        }

    if spec.catalog_shards > 0 and scenario.shard_map is not None:
        tier = scenario.cluster.catalog_tier_stats()
        report["catalog_tier"] = {
            "shards": spec.catalog_shards,
            "replicas": spec.catalog_replicas,
            "replica_servers": len(scenario.index_servers),
            "outages": len(scenario.replica_outages),
            "answer_cache": tier["answer_cache"],
            "tier_failovers": tier["tier_failovers"],
            "reconciliations": tier["reconciliations"],
            "recon_entries_adopted": tier["recon_entries_adopted"],
            "recon_conflicts": tier["recon_conflicts"],
        }

    if (
        scenario.free_riders
        or scenario.stale_crashed
        or scenario.poisoned_entries
        or scenario.flash_schedule is not None
        or spec.query_mix != "steady"
    ):
        adversary: dict[str, object] = {
            "query_mix": spec.query_mix,
            "free_riders": len(scenario.free_riders),
            "stale_crashes": len(scenario.stale_crashed),
            "poisoned_entries": scenario.poisoned_entries,
        }
        if scenario.flash_schedule is not None:
            adversary["burst"] = {
                "size": scenario.flash_schedule.burst_size,
                "at_ms": round(scenario.flash_schedule.burst_at_ms, 3),
                "width_ms": scenario.flash_schedule.burst_width_ms,
            }
        report["adversary"] = adversary
    return report
