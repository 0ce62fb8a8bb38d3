"""Traffic accounting for simulated experiments.

Every benchmark reports some subset of: messages sent, bytes moved, how many
distinct peers a query touched, and end-to-end latency.  The
:class:`NetworkMetrics` object collects these as messages flow through the
:class:`~repro.network.network.Network`, and offers simple reductions used
by the experiment harness.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .message import Message

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .faults import FaultOutcome

__all__ = ["NetworkMetrics", "QueryTrace"]


@dataclass
class QueryTrace:
    """Per-query record of the peers visited and the outcome."""

    query_id: str
    issued_at: float = 0.0
    completed_at: float | None = None
    visited: list[str] = field(default_factory=list)
    messages: int = 0
    bytes: int = 0
    answers: int = 0
    expected_answers: int | None = None
    extra: dict[str, float] = field(default_factory=dict)

    def charge(self, message: Message) -> Message:
        """Count ``message`` as traffic this query caused; hand it back."""
        self.messages += 1
        self.bytes += message.size_bytes
        return message

    @property
    def latency_ms(self) -> float | None:
        """End-to-end simulated latency, when the query completed."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.issued_at

    @property
    def distinct_peers(self) -> int:
        """Number of distinct peers that handled the query."""
        return len(set(self.visited))

    @property
    def recall(self) -> float | None:
        """Fraction of the expected answers actually returned."""
        if self.expected_answers is None:
            return None
        if self.expected_answers == 0:
            return 1.0
        return min(1.0, self.answers / self.expected_answers)


@dataclass
class NetworkMetrics:
    """Global counters plus per-kind and per-query breakdowns."""

    messages_sent: int = 0
    bytes_sent: int = 0
    messages_by_kind: Counter = field(default_factory=Counter)
    bytes_by_kind: Counter = field(default_factory=Counter)
    messages_by_sender: Counter = field(default_factory=Counter)
    traces: dict[str, QueryTrace] = field(default_factory=dict)
    dropped_messages: int = 0
    # Fault-injection accounting (repro.network.faults).  All zero — and
    # absent from summary() — when no FaultPlan is active, so flag-off
    # reports stay byte-identical to pre-fault builds.
    fault_losses_by_kind: Counter = field(default_factory=Counter)
    fault_partitioned: int = 0
    fault_duplicates: int = 0
    fault_delays: int = 0
    fault_reorders: int = 0
    # Dead-letter accounting: undeliverable messages a peer retained for
    # inspection, broken down by kind.  Counts survive buffer eviction
    # (the per-peer buffers are capped), so they stay exact on long runs.
    dead_letters_by_kind: Counter = field(default_factory=Counter)

    def record_send(self, message: Message) -> None:
        """Account for one message entering the network."""
        self.messages_sent += 1
        self.bytes_sent += message.size_bytes
        self.messages_by_kind[message.kind] += 1
        self.bytes_by_kind[message.kind] += message.size_bytes
        self.messages_by_sender[message.sender] += 1

    def record_drop(self, message: Message) -> None:
        """Account for a message that could not be delivered."""
        self.dropped_messages += 1

    def record_fault(self, message: Message, outcome: "FaultOutcome") -> None:
        """Account for an injected link fault (loss, duplication, delay)."""
        if outcome.partitioned:
            self.fault_partitioned += 1
        elif outcome.lost:
            self.fault_losses_by_kind[message.kind] += 1
        if outcome.duplicated:
            self.fault_duplicates += 1
        if outcome.delayed:
            self.fault_delays += 1
        if outcome.reordered:
            self.fault_reorders += 1

    def record_dead_letter(self, message: Message) -> None:
        """Account for a message a peer dead-lettered, by kind."""
        self.dead_letters_by_kind[message.kind] += 1

    def fault_summary(self) -> dict[str, object]:
        """The injected-fault block of a scenario report (deterministic order)."""
        return {
            "lost": int(sum(self.fault_losses_by_kind.values())),
            "lost_by_kind": {
                kind: int(count)
                for kind, count in sorted(self.fault_losses_by_kind.items())
            },
            "partitioned": self.fault_partitioned,
            "duplicated": self.fault_duplicates,
            "delayed": self.fault_delays,
            "reordered": self.fault_reorders,
        }

    # -- per-query traces ---------------------------------------------------- #

    def trace(self, query_id: str) -> QueryTrace:
        """Return (creating if needed) the trace for ``query_id``."""
        if query_id not in self.traces:
            self.traces[query_id] = QueryTrace(query_id)
        return self.traces[query_id]

    def completed_traces(self) -> list[QueryTrace]:
        """Traces whose query produced a result."""
        return [trace for trace in self.traces.values() if trace.completed_at is not None]

    # -- reductions ------------------------------------------------------------ #

    def mean_latency_ms(self) -> float:
        """Mean end-to-end latency across completed queries (0 when none)."""
        latencies = [trace.latency_ms for trace in self.completed_traces()]
        values = [latency for latency in latencies if latency is not None]
        return sum(values) / len(values) if values else 0.0

    def mean_messages_per_query(self) -> float:
        """Mean number of messages per traced query."""
        if not self.traces:
            return 0.0
        return sum(trace.messages for trace in self.traces.values()) / len(self.traces)

    def mean_peers_per_query(self) -> float:
        """Mean number of distinct peers contacted per traced query."""
        if not self.traces:
            return 0.0
        return sum(trace.distinct_peers for trace in self.traces.values()) / len(self.traces)

    def mean_recall(self) -> float:
        """Mean recall across traces that declared an expected answer count."""
        recalls = [trace.recall for trace in self.traces.values() if trace.recall is not None]
        return sum(recalls) / len(recalls) if recalls else 0.0

    def summary(self) -> dict[str, float]:
        """A flat summary dictionary used by the report tables."""
        return {
            "messages": float(self.messages_sent),
            "bytes": float(self.bytes_sent),
            "dropped": float(self.dropped_messages),
            "queries": float(len(self.traces)),
            "mean_latency_ms": self.mean_latency_ms(),
            "mean_messages_per_query": self.mean_messages_per_query(),
            "mean_peers_per_query": self.mean_peers_per_query(),
            "mean_recall": self.mean_recall(),
        }
