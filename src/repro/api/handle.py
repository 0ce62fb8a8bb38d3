"""Future-like query results: wait on the logical clock, never poll.

A :class:`QueryHandle` is created the moment a query is submitted through a
:class:`~repro.api.session.Session`.  It registers a completion watcher with
the issuing peer (:meth:`repro.peers.peer.QueryPeer.watch_results`), so the
delivery callback that records the answer also resolves the handle — there
is no polling loop and no wake-up event on the clock.  Waiting is expressed
through the transport's ``stop`` hook: the network runs, event by event, in
logical order (identically on the ``sim`` and ``aio`` backends), and the
run halts at exactly the event that completed the handle.

Timeouts are simulated milliseconds — the shared clock is the coordination
authority on every backend, so the same deadline means the same thing
whether messages travel by reference or over real sockets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, List, TypedDict

from ..errors import APIError, PeerOffline, QueryCancelled, QueryTimeout
from ..peers.peer import QueryPeer, QueryResult
from ..xmlmodel import XMLElement

if TYPE_CHECKING:  # pragma: no cover - typing-only imports
    from ..algebra import QueryPlan
    from ..network import Network, QueryTrace
    from .session import Session
    from .subscription import Subscription

__all__ = ["DeliveryFailure", "DegradedResult", "QueryHandle"]


class DeliveryFailure(TypedDict):
    """One hop's delivery-failure provenance record.

    Gathered by the reliable-delivery protocol when a transfer's retry
    budget runs out: ``hop`` is the peer that gave up, ``peer`` the
    unresponsive recipient, ``kind`` the message kind that failed,
    ``attempts`` the sends spent, ``at_ms`` the simulated time of the
    give-up.
    """

    hop: str
    peer: str
    kind: str
    attempts: int
    at_ms: float


@dataclass
class DegradedResult(QueryResult):
    """The best available answer when a deadline or retry budget ran out.

    Returned by ``QueryHandle.result(deadline=...)`` instead of raising
    :class:`~repro.errors.QueryTimeout`: the items are whatever partial
    answer had arrived by the deadline, and the
    annotations say how complete it is and where delivery gave up.

    * ``completeness`` — fraction of the expected answer that arrived
      (``None`` when no expectation was declared at submit time);
    * ``reason`` — why the answer is partial.  When the pieces that did
      arrive said so themselves, their gravest reason is passed through
      (``"time-budget"``, ``"hop-budget"``, ``"stuck"``, ``"unreachable"``);
      otherwise it is the handle's own: ``"deadline"`` (the clock ran out
      with work still scheduled) or ``"idle"`` (the network drained with
      the answer still missing: a plan or its result died en route);
    * ``failures`` — per-hop delivery-failure provenance gathered by the
      reliable-delivery protocol (empty unless the cluster is
      ``Cluster(reliable=True)``): each :class:`DeliveryFailure` names the
      hop that gave up, the unresponsive peer, the message kind, and the
      attempts spent.
    """

    completeness: float | None = None
    reason: str | None = "deadline"
    failures: List[DeliveryFailure] = field(default_factory=list)


class QueryHandle:
    """The result of a submitted query, as a future.

    ``result(timeout=...)`` drives the network until the complete answer
    arrives (raising :class:`~repro.errors.QueryTimeout` or
    :class:`~repro.errors.PeerOffline` instead of ever returning ``None``);
    ``partial_results()`` and iteration expose the partial answers the
    system degrades to when parts of the plan cannot be completed.
    """

    def __init__(
        self,
        peer: QueryPeer,
        network: "Network",
        query_id: str,
        expected_answers: int | None = None,
        session: "Session | None" = None,
        plan: "QueryPlan | None" = None,
    ) -> None:
        self._peer = peer
        self._network = network
        self._session = session
        self._plan = plan
        self.query_id = query_id
        self.expected_answers = expected_answers
        self._arrivals: list[QueryResult] = []
        self._final: QueryResult | None = None
        self._watching = False
        self._cancelled = False
        self._ensure_watching()

    # -- completion (called by the peer's delivery path) ------------------- #

    def _on_result(self, result: QueryResult) -> None:
        self._arrivals.append(result)
        if not result.partial:
            self._final = result
            self._watching = False  # the peer released the watcher list

    def _ensure_watching(self) -> None:
        if self._cancelled:
            return
        if not self._watching and self._final is None:
            self._watching = True
            # Registering replays the answer so far as one arrival, which
            # stands for every piece this handle saw before it stopped
            # watching — and those it missed since.
            self._arrivals.clear()
            self._peer.watch_results(self.query_id, self._on_result)

    def close(self) -> None:
        """Unregister this handle's completion watcher (idempotent).

        Waiting again after ``close()`` re-registers transparently; the
        terminal paths of :meth:`result` and iteration close automatically,
        so long-running peers do not accumulate watchers for queries whose
        answers can no longer arrive.
        """
        if self._watching:
            self._peer.unwatch_results(self.query_id, self._on_result)
            self._watching = False

    def cancel(self) -> None:
        """Cancel the query (idempotent).

        The issuing peer marks the query dead and a cancel notice propagates
        along the plan's forwarding chain, so in-flight copies are discarded
        instead of processed.  Waiting on a cancelled handle raises
        :class:`~repro.errors.QueryCancelled`.

        Cancelling a handle whose complete result is already recorded is a
        no-op (standard future semantics): the answer stays retrievable and
        no cancel traffic is spent on a finished query.
        """
        if self._cancelled:
            return
        recorded = self._peer.results.get(self.query_id)
        if self._final is not None or (recorded is not None and not recorded.partial):
            return
        self._cancelled = True
        self.close()
        self._peer.cancel_query(self.query_id)

    def _answer_so_far(self) -> QueryResult | None:
        """The cumulative partial answer the issuing peer has gathered.

        Partial arrivals are per-piece deltas (see :class:`QueryResult`);
        the peer's record is what a degraded outcome returns.
        """
        return self._peer.results.get(self.query_id)

    # -- inspection (never advances the clock) ----------------------------- #

    def cancelled(self) -> bool:
        """True once :meth:`cancel` has been called on this handle."""
        return self._cancelled

    def done(self) -> bool:
        """True once a complete (non-partial) result has been recorded."""
        return self._final is not None

    def partial_results(self) -> list[QueryResult]:
        """Every partial arrival so far, one per piece that came home
        (non-blocking; each holds that piece's items, not a running total).
        A handle attached after pieces came home — :meth:`Session.handle`,
        or waiting again after :meth:`close` — gets those as one arrival."""
        return [result for result in self._arrivals if result.partial]

    def trace(self) -> "QueryTrace":
        """The network's per-query trace (route, messages, latency)."""
        return self._network.metrics.trace(self.query_id)

    # -- waiting (drives the shared clock) ---------------------------------- #

    def result(
        self, timeout: float | None = None, deadline: float | None = None
    ) -> QueryResult:
        """Run the network until the answer arrives and return it.

        ``timeout`` is a budget in *simulated* milliseconds from now.  The
        clock runs, in logical event order, until one of:

        * the complete result is recorded — returned;
        * the network goes idle with only partial answers recorded — the
          answer gathered so far is returned, flagged ``partial`` with its
          ``reason`` (the system's documented degradation, mirroring the
          ``STUCK``-plan delivery semantics);
        * the issuing peer is found offline with the answer still pending —
          :class:`~repro.errors.PeerOffline` (any in-flight result will be
          dead-lettered at its sender, never silently lost);
        * the deadline passes, or the network goes idle empty-handed —
          :class:`~repro.errors.QueryTimeout`.

        ``deadline`` (mutually exclusive with ``timeout``) is the same
        budget with graceful-degradation semantics: instead of raising
        :class:`~repro.errors.QueryTimeout` when the budget or the retry
        budgets are exhausted, the best partial answer is returned as a
        :class:`DegradedResult` annotated with completeness and per-hop
        failure provenance, and the query's remaining upstream traffic is
        cancelled along the forwarding chain.  Only
        :class:`~repro.errors.PeerOffline` still raises — with the issuer
        gone there is no answer, partial or otherwise, to degrade to.
        """
        if self._cancelled:
            raise QueryCancelled(f"query {self.query_id!r} was cancelled")
        if deadline is not None and timeout is not None:
            raise APIError("pass either timeout= or deadline=, not both")
        budget = timeout if deadline is None else deadline
        self._ensure_watching()
        until = self._network.now + budget if budget is not None else None
        self._network.run_until(self._has_final, until=until)
        if self._final is not None:
            return self._final
        if not self._peer.online:
            raise self._offline("before the result of {} arrived")
        if deadline is not None:
            return self._degraded()
        if self._idle():
            self.close()  # nothing scheduled: no further arrival is possible
            best = self._answer_so_far()
            if best is not None:
                return best
            raise QueryTimeout(
                f"the network is idle and no result will ever arrive for query "
                f"{self.query_id!r} (the plan died en route — e.g. at a peer "
                "that dropped offline with failure notices disabled)"
            )
        partials = len(self.partial_results())
        raise QueryTimeout(
            f"no complete result for query {self.query_id!r} within "
            f"{timeout:g} simulated ms"
            + (f" ({partials} partial result(s) available)" if partials else "")
        )

    def __iter__(self) -> Iterator[QueryResult]:
        """Iterate streamed results; identical to :meth:`results` unbounded."""
        return self.results()

    def results(self, timeout: float | None = None) -> Iterator[QueryResult]:
        """Stream results as they arrive: partials first, the final one last.

        Each step runs the network until the next recorded arrival; the
        stream ends cleanly after the complete result, or when the network
        goes idle with partial answers recorded (the same degradation
        :meth:`result` returns the latest partial for).  The error surface
        matches :meth:`result` and :meth:`items` exactly:

        * entering (or resuming) a cancelled handle raises
          :class:`~repro.errors.QueryCancelled` — cancelling *mid*-step
          ends the stream, since the arrivals already yielded stay valid;
        * the issuing peer found offline raises
          :class:`~repro.errors.PeerOffline`;
        * the network going idle with *no* arrivals raises
          :class:`~repro.errors.QueryTimeout` (the plan died en route), as
          does exhausting ``timeout`` simulated milliseconds.
        """
        if self._cancelled:
            raise QueryCancelled(f"query {self.query_id!r} was cancelled")
        self._ensure_watching()
        deadline = self._network.now + timeout if timeout is not None else None
        yielded = 0
        while True:
            while yielded < len(self._arrivals):
                result = self._arrivals[yielded]
                yielded += 1
                yield result
                if not result.partial:
                    return
                if self._cancelled:
                    return
            if self._cancelled or self._final is not None:
                return
            arrived = self._network.run_until(
                lambda: len(self._arrivals) > yielded, until=deadline
            )
            if self._cancelled:
                return
            if arrived:
                continue
            if not self._peer.online:
                raise self._offline("while streaming results of {}")
            if self._idle():
                self.close()  # idle: the stream can never produce more
                if yielded:
                    return
                raise QueryTimeout(
                    f"the network is idle and no result will ever arrive for "
                    f"query {self.query_id!r} (the plan died en route)"
                )
            raise QueryTimeout(
                f"no further results for query {self.query_id!r} within "
                f"{timeout:g} simulated ms ({yielded} result(s) streamed)"
            )

    def subscribe(self) -> "Subscription":
        """Promote this one-shot query into a standing query.

        Re-registers the handle's plan as a subscription at the issuing
        session; the snapshot this handle resolves to is the feed's
        baseline, and subsequent mutations arrive as deltas.  Only handles
        created by
        ``Session.submit`` / the query builder carry their plan — a
        late-attached :meth:`Session.handle` cannot be promoted.
        """
        if self._session is None or self._plan is None:
            raise APIError(
                f"handle for query {self.query_id!r} carries no plan (late-"
                "attached via Session.handle?); subscribe via "
                "session.query(...).subscribe() instead"
            )
        return self._session.subscribe(self._plan)

    def items(self, timeout: float | None = None) -> Iterator[XMLElement]:
        """Stream individual result items as they arrive.

        A piece's items arrive together with its result frame and are
        yielded then: a scattered query streams piece by piece, in arrival
        order.  The stream ends after the final result's items; when the
        network goes idle with only a partial answer, whatever items arrived
        are yielded and the stream ends (the documented degradation,
        matching :meth:`result`).  No item object is yielded twice; a
        partial piece later superseded by its complete delivery is a second
        set of objects.  ``timeout`` bounds the wait in simulated
        milliseconds; cancelling the handle mid-iteration stops the stream.
        """
        if self._cancelled:
            raise QueryCancelled(f"query {self.query_id!r} was cancelled")
        self._ensure_watching()
        deadline = self._network.now + timeout if timeout is not None else None
        drained = 0  # arrivals whose items were yielded
        seen: set[int] = set()
        while True:
            while drained < len(self._arrivals):
                result = self._arrivals[drained]
                drained += 1
                for item in result.items:
                    if id(item) in seen:
                        continue
                    seen.add(id(item))
                    yield item
                    if self._cancelled:
                        return
            if self._final is not None:
                return
            progressed = self._network.run_until(
                lambda: len(self._arrivals) > drained, until=deadline
            )
            if self._cancelled:
                return
            if progressed:
                continue
            if not self._peer.online:
                raise self._offline("while streaming items of {}")
            if self._idle():
                self.close()
                if self._arrivals:
                    return  # degraded outcome: every arrived piece was drained
                raise QueryTimeout(
                    f"the network is idle and no result will ever arrive "
                    f"for query {self.query_id!r} ({len(seen)} item(s) "
                    "streamed before the plan died en route)"
                )
            raise QueryTimeout(
                f"no further items for query {self.query_id!r} within "
                f"{timeout:g} simulated ms ({len(seen)} item(s) streamed)"
            )

    # -- internals ----------------------------------------------------------- #

    def _degraded(self) -> QueryResult:
        """The ``result(deadline=...)`` outcome: degrade gracefully, never time out."""
        best = self._answer_so_far()
        reason = (best.reason if best is not None else None) or (
            "idle" if self._idle() else "deadline"
        )
        if best is not None:
            items = list(best.items)
            hops = best.provenance_hops
            staleness = best.max_staleness_minutes
        else:
            items, hops, staleness = [], 0, 0.0
        failures = [
            DeliveryFailure(
                hop=str(record.get("hop", "")),
                peer=str(record.get("peer", "")),
                kind=str(record.get("kind", "")),
                attempts=int(record.get("attempts", 0)),
                at_ms=float(record.get("at_ms", 0.0)),
            )
            for record in self._peer.delivery_failures.get(self.query_id, ())
        ]
        expected = self.expected_answers
        completeness = min(1.0, len(items) / expected) if expected else None
        self.close()
        # Stop the upstream work: the deadline consumed this query's value,
        # so in-flight plan copies and pending retransmissions are torn down
        # along the forwarding chain.  The handle itself is not marked
        # cancelled — the degraded answer stays inspectable.
        self._peer.cancel_query(self.query_id)
        return DegradedResult(
            query_id=self.query_id,
            items=items,
            partial=True,
            received_at=self._network.now,
            provenance_hops=hops,
            max_staleness_minutes=staleness,
            completeness=completeness,
            reason=reason,
            failures=failures,
        )

    def _offline(self, when: str) -> PeerOffline:
        """The issuing peer is gone and the answer can no longer be delivered
        here: stop watching, and fail loudly on every waiting path alike."""
        self.close()
        return PeerOffline(
            f"peer {self._peer.address} went offline "
            f"{when.format(f'query {self.query_id!r}')}; results addressed to it are "
            "dead-lettered at their sender"
        )

    def _has_final(self) -> bool:
        return self._final is not None

    def _idle(self) -> bool:
        return self._network.simulator.peek() is None

    def __repr__(self) -> str:
        state = (
            "done"
            if self._final is not None
            else f"pending({len(self._arrivals)} partial)"
        )
        return f"QueryHandle({self.query_id!r}, peer={self._peer.address!r}, {state})"
