"""Reliable transfer: ack, retry with backoff, dedupe, and dead letters.

Message kind handled here:

``delivery-ack``
    The reliable-delivery protocol (``Cluster(reliable=True)``): the
    receiver of a transfer-stamped message acknowledges the transfer id,
    letting the sender cancel its retransmission timer.  The ack of a kind
    with a protocol of its own may carry that protocol's *note* after the
    id (a ``delta-chunk``'s: the feed's released position) — on every
    attempt's ack, since a lost ack loses the note with it.  Unacknowledged
    transfers are retransmitted with exponential backoff until the give-up
    horizon has passed, at which point the owner is told the recipient
    failed (it reroutes plans, pauses feeds, and dead-letters the rest) —
    and the failure is recorded so issuers can report per-hop delivery
    provenance.

Query traffic — plans and results — subscription control (subscribe /
unsubscribe / deltas, keyed by subscription id the way query traffic is
keyed by query id) and ``register`` (keyed by the registering server: one
replica that misses it would answer for its area without that server) ride
the protocol.  On a fire-and-forget network :meth:`Transfers.send` is a
plain send and the wire bytes are unchanged.

The first retransmission waits for the recipient's measured round trip
(RFC 6298), ``RetryPolicy.timeout_ms`` until there is one and at most that
afterwards.  An ack of a *first* attempt is a sample — the ack of a
retransmitted transfer could answer either copy (Karn's rule), a bounce is
no ack at all — taken net of the frame's own time on the sender's link,
which the timeout adds back: a round trip learned on small frames must not
retransmit a large one that is still being sent.

Timers are armed, and samples taken, on the port's logical clock, so the
retransmit schedule is identical on every transport backend (and a unit
test can drive it by hand).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Container, Iterator

from ..mqp import RetryPolicy
from ..network.message import Message
from ..network.node import NetworkNode
from .parts import insert_capped

__all__ = ["PendingTransfer", "DeadLetters", "Transfers"]


@dataclass
class PendingTransfer:
    """Sender-side state of one unacknowledged reliable transfer: the last
    attempt sent (the original send is attempt 0), what it was sent for, and
    the cancellable retransmission timer armed behind it."""

    message: Message
    key: str  # the query or subscription the traffic belongs to
    timer: Any  # whatever ``schedule`` returned: it can ``cancel()``
    started: float  # when attempt 0 left: samples and the horizon count from here
    final: bool  # the timer runs out at the horizon: no attempt follows it


@dataclass(slots=True, eq=False, repr=False)
class DeadLetters:
    """Capped, insertion-ordered record of undeliverable messages.

    A long-running relay under churn or faults accumulates dead letters
    without bound; the buffer retains only the most recent ``cap`` of them
    while ``total`` and the per-kind tallies keep exact counts, so the
    scenario reports stay accurate even after eviction.  ``len()`` reports
    the total, not the retained window — existing accounting (and
    byte-identity of non-evicting runs) depends on that.
    """

    cap: int = 1024
    total: int = 0
    by_kind: Counter[str] = field(default_factory=Counter)
    _entries: dict[int, Message] = field(default_factory=dict, init=False)

    def append(self, message: Message) -> None:
        self.total += 1
        self.by_kind[message.kind] += 1
        # Keyed by object identity: retained entries hold their references,
        # so ids stay unique for exactly as long as they are keys.
        insert_capped(self._entries, id(message), message, self.cap)

    def __len__(self) -> int:
        return self.total

    def __iter__(self) -> Iterator[Message]:
        return iter(self._entries.values())

    def __getitem__(self, index: int) -> Message:
        return list(self._entries.values())[index]


@dataclass(slots=True, eq=False, repr=False)
class Transfers:
    """One peer's side of every reliable transfer it sends or receives.

    ``cancelled`` is the peer's cancelled-query table (a retry for a query
    nobody wants any more is dropped, not sent); ``failed(recipient,
    message)`` is called when a transfer is given up, after the failure
    has been counted and recorded here.
    """

    DEDUPE_MEMORY = 4096  # transfer ids remembered for duplicate detection
    FAILURE_MEMORY = 1024  # queries whose delivery failures are remembered
    FAILURES_PER_QUERY = 32
    RTT_MEMORY = 1024  # recipients whose round trip is remembered
    RTT_MARGIN = 0.25  # the timeout clears the smoothed round trip by this share at least

    port: NetworkNode
    cancelled: Container[str] = ()
    failed: Callable[[str, Message], None] | None = None
    retry_policy: RetryPolicy = field(default_factory=RetryPolicy)
    retries_sent: int = 0
    transfers_failed: int = 0
    duplicates_dropped: int = 0
    acks_sent: int = 0
    dead_letters: DeadLetters = field(default_factory=DeadLetters)
    delivery_failures: dict[str, list[dict]] = field(default_factory=dict)
    pending: dict[str, PendingTransfer] = field(default_factory=dict)  # each holds a live timer
    seen: dict[str, None] = field(default_factory=dict)  # transfer ids already processed
    round_trips: dict[str, tuple[float, float]] = field(default_factory=dict)  # (SRTT, RTTVAR) ms
    _counter: int = field(default=0, init=False)

    # -- sending ---------------------------------------------------------------- #

    def send(
        self, recipient: str, kind: str, payload: object, size_bytes: int, key: str
    ) -> Message:
        """Send query traffic, reliably when the port's network is reliable.

        The reliable path stamps the message with a transfer id, remembers
        it until acknowledged, and arms a backoff timer on the logical
        clock.  ``key`` names the query or subscription the traffic belongs
        to: :meth:`cancel` stops retransmitting everything sent under it.
        """
        if not self.port.reliable:
            return self.port.send(recipient, kind, payload, size_bytes=size_bytes)
        self._counter += 1
        transfer = f"{self.port.address}#{self._counter}"
        return self._attempt(key, transfer, 0, recipient, kind, payload, size_bytes, self.port.now)

    def send_traced(
        self, recipient: str, kind: str, payload: object, size_bytes: int, query_id: str
    ) -> Message:
        """:meth:`send`, charged to the query's trace (first attempt only)."""
        sent = self.send(recipient, kind, payload, size_bytes, query_id)
        trace = self.port.metrics.trace(query_id)
        trace.messages += 1
        trace.bytes += sent.size_bytes
        return sent

    def _attempt(
        self, key: str, transfer: str, attempt: int,
        recipient: str, kind: str, payload: object, size_bytes: int, started: float,
    ) -> Message:
        """(Re)send one transfer and arm its retransmission timer, which
        never outlasts the give-up horizon counted from attempt 0."""
        message = self.port.send(
            recipient, kind, payload, size_bytes=size_bytes, transfer=transfer, attempt=attempt
        )
        policy = self.retry_policy
        wait = policy.delay_for(transfer, attempt, self._rto(recipient, size_bytes))
        left = started + policy.horizon_ms - self.port.now
        timer = self.port.schedule(min(wait, left), lambda: self._retry(transfer))
        self.pending[transfer] = PendingTransfer(message, key, timer, started, wait >= left)
        return message

    def _rto(self, recipient: str, size_bytes: int) -> float | None:
        """RFC 6298's SRTT + 4 RTTVAR for ``recipient`` plus the frame's time
        on the link, ``None`` before the first sample.  A steady link's
        variance decays to nothing, so the margin has a floor."""
        measured = self.round_trips.get(recipient)
        if measured is None:
            return None
        srtt, rttvar = measured
        margin = max(4.0 * rttvar, self.RTT_MARGIN * srtt)
        return srtt + margin + self.port.transfer_time(size_bytes)

    def _retry(self, transfer: str) -> None:
        state = self.pending.get(transfer)
        if state is None:
            return  # acknowledged (or torn down) before the timer fired
        last = state.message
        if not self.port.connected or state.key in self.cancelled:
            del self.pending[transfer]
        elif not state.final:
            self.retries_sent += 1
            self._attempt(
                state.key, transfer, last.attempt + 1,
                last.recipient, last.kind, last.payload, last.size_bytes, state.started,
            )
        else:
            # The horizon has passed: degrade instead of waiting forever.
            # The record travels with the (partial) answer so the issuer can
            # report where delivery gave up.
            del self.pending[transfer]
            self.transfers_failed += 1
            self.record_failure(
                state.key,
                {
                    "hop": self.port.address,
                    "peer": last.recipient,
                    "kind": last.kind,
                    "attempts": last.attempt + 1,
                    "at_ms": round(self.port.now, 3),
                },
            )
            if self.failed is not None:
                self.failed(last.recipient, last)

    # -- receiving -------------------------------------------------------------- #

    def accept(self, message: Message) -> bool:
        """Acknowledge a transfer-stamped message; False for a repeated copy."""
        if message.transfer is None:
            return True
        self.acknowledge(message)
        return self.first_copy(message)

    def acknowledge(self, message: Message, note: tuple = ()) -> None:
        """At-least-once delivery: *every* attempt is acknowledged (the ack
        for an earlier attempt may itself have been lost).  ``note`` is what
        the message's own protocol tells the sender about the arrival — a
        feed's released position; it rides the ack instead of a frame of its
        own and is charged for: 16 B on top of the ack's 32."""
        self.acks_sent += 1
        payload = (message.transfer, *note) if note else message.transfer
        self.port.send(message.sender, "delivery-ack", payload, size_bytes=48 if note else 32)

    def first_copy(self, message: Message) -> bool:
        """Only the first copy of a transfer is processed — a retransmitted
        plan must not be evaluated twice, a retransmitted chunk not counted
        twice."""
        duplicate = message.transfer in self.seen
        insert_capped(self.seen, message.transfer, None, self.DEDUPE_MEMORY)
        if duplicate:
            self.duplicates_dropped += 1
        return not duplicate

    def acknowledged(self, payload: "str | tuple") -> list:
        """The payload of a ``delivery-ack`` arrived — the transfer id, alone or
        leading the receiver's note, which is returned: learn the recipient's
        round trip from it, and stop retransmitting."""
        transfer, *note = (payload,) if type(payload) is str else payload
        state = self.pending.get(transfer)
        if state is not None and state.message.attempt == 0:  # Karn's rule
            sent = state.message
            sample = self.port.now - state.started - self.port.transfer_time(sent.size_bytes)
            measured = self.round_trips.get(sent.recipient)
            if measured is None:
                srtt, rttvar = sample, sample / 2.0
            else:
                srtt, rttvar = measured
                rttvar = 0.75 * rttvar + 0.25 * abs(srtt - sample)
                srtt = 0.875 * srtt + 0.125 * sample
            insert_capped(self.round_trips, sent.recipient, (srtt, rttvar), self.RTT_MEMORY)
        self.stand_down(transfer)
        return note

    def stand_down(self, transfer: str | None) -> None:
        """Stop retransmitting ``transfer``: acknowledged, or known
        undeliverable (a bounce — which says nothing about the round trip).
        A late ack — after failure or cancellation — finds no state and is
        simply ignored: the protocol is idempotent on both ends."""
        state = self.pending.pop(transfer, None) if transfer is not None else None
        if state is not None:
            state.timer.cancel()

    def cancel(self, key: str) -> None:
        """Stop retransmitting everything sent for one query or subscription."""
        for transfer in [name for name, state in self.pending.items() if state.key == key]:
            self.stand_down(transfer)

    # -- failure provenance and dead letters -------------------------------------- #

    def record_failure(self, query_id: str, record: dict) -> None:
        failures = self.delivery_failures.get(query_id, [])
        insert_capped(self.delivery_failures, query_id, failures, self.FAILURE_MEMORY)
        if record not in failures and len(failures) < self.FAILURES_PER_QUERY:
            failures.append(record)

    def absorb_failures(self, envelope: dict) -> None:
        """Adopt the per-hop failure records a result envelope carries."""
        for record in envelope.get("failures", ()):
            self.record_failure(envelope["query_id"], dict(record))

    def attach_failures(self, envelope: dict) -> None:
        """Per-hop failure provenance travels with the answer, so the issuer
        can annotate a degraded result with *where* delivery gave up — not
        just that something is missing."""
        failures = self.delivery_failures.get(envelope["query_id"])
        if failures:
            envelope["failures"] = [dict(record) for record in failures]

    def dead_letter(self, message: Message) -> None:
        """Keep an undeliverable message for inspection, and count it."""
        self.dead_letters.append(message)
        self.port.metrics.record_dead_letter(message)
