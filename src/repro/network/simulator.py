"""Deterministic discrete-event simulator.

All distributed behaviour in the reproduction — peers exchanging mutant
query plans, registrations propagating to authoritative servers, baseline
broadcasts — runs on this single-threaded event loop.  Time is simulated
milliseconds; events scheduled for the same instant run in scheduling
order, which keeps every experiment bit-for-bit reproducible.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable

from ..errors import SimulationError

__all__ = ["Event", "Simulator"]

_SWEEP_MIN_CANCELLED = 64
"""Lazy-cancellation threshold: below this, skipping at pop time is cheaper."""


class Event:
    """A scheduled callback; ordering is (time, sequence number).

    A plain slots class rather than a dataclass: the event heap compares
    events on every push/pop, and the generated dataclass ordering builds a
    field tuple per comparison.  With a million-event cap per run, the
    allocation-free ``__lt__`` is measurable in end-to-end scenario time.
    """

    __slots__ = ("time", "sequence", "callback", "cancelled", "_simulator")

    def __init__(self, time: float, sequence: int, callback: Callable[[], None]) -> None:
        self.time = time
        self.sequence = sequence
        self.callback = callback
        self.cancelled = False
        self._simulator: "Simulator | None" = None

    def __lt__(self, other: "Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.sequence < other.sequence

    def cancel(self) -> None:
        """Prevent the event from running when its time comes.

        Cancellation is lazy: the event stays queued (flagged) and the
        owning simulator sweeps the heap only once cancelled events
        dominate it, so cancelling is O(1) and the heap never fills with
        dead weight under heavy churn.
        """
        if self.cancelled:
            return
        self.cancelled = True
        simulator = self._simulator
        if simulator is not None:
            simulator._note_cancelled()

    def __repr__(self) -> str:
        flag = ", cancelled" if self.cancelled else ""
        return f"Event(t={self.time:.3f}, seq={self.sequence}{flag})"


class Simulator:
    """A minimal but complete discrete-event loop.

    The simulator deliberately exposes only ``schedule`` / ``run`` /
    ``run_until_idle``; components that need periodic behaviour re-schedule
    themselves from their callbacks.
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: list[Event] = []
        self._sequence = itertools.count()
        self._processed = 0
        self._cancelled_pending = 0

    # -- clock ------------------------------------------------------------- #

    @property
    def now(self) -> float:
        """Current simulated time in milliseconds."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Number of events executed so far."""
        return self._processed

    # -- scheduling ---------------------------------------------------------- #

    def schedule(self, delay: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` to run ``delay`` milliseconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        event = Event(self._now + delay, next(self._sequence), callback)
        event._simulator = self
        heapq.heappush(self._queue, event)
        return event

    def _note_cancelled(self) -> None:
        """Bookkeeping for lazy cancellation; sweeps when dead events dominate."""
        self._cancelled_pending += 1
        if (
            self._cancelled_pending >= _SWEEP_MIN_CANCELLED
            and self._cancelled_pending * 2 > len(self._queue)
        ):
            self._queue = [event for event in self._queue if not event.cancelled]
            heapq.heapify(self._queue)
            self._cancelled_pending = 0

    def schedule_at(self, time: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` at an absolute simulated time."""
        return self.schedule(time - self._now, callback)

    # -- execution ------------------------------------------------------------ #

    def peek(self) -> Event | None:
        """Return the next live event without executing it (None when idle).

        Cancelled events at the head of the heap are discarded on the way,
        so a subsequent :meth:`step` pops exactly the returned event
        (provided nothing earlier is scheduled in between).  Transports use
        this to gate a delivery event on its frame's physical arrival.
        """
        while self._queue:
            event = self._queue[0]
            if event.cancelled:
                heapq.heappop(self._queue)
                if self._cancelled_pending:
                    self._cancelled_pending -= 1
                continue
            return event
        return None

    def advance_to(self, time: float) -> None:
        """Move the clock forward to ``time`` without running anything.

        Mirrors what :meth:`run` does when asked to run ``until`` a time
        past the last event; moving backwards is a no-op.
        """
        if time > self._now:
            self._now = time

    def step(self) -> bool:
        """Run the next pending event; return False when the queue is empty."""
        while self._queue:
            event = heapq.heappop(self._queue)
            if event.cancelled:
                if self._cancelled_pending:
                    self._cancelled_pending -= 1
                continue
            self._now = event.time
            event.callback()
            self._processed += 1
            return True
        return False

    def run(
        self,
        until: float | None = None,
        max_events: int = 1_000_000,
        stop: Callable[[], bool] | None = None,
    ) -> None:
        """Run events until the queue drains, ``until`` is reached, or the cap hits.

        ``max_events`` guards against accidental event storms in buggy
        protocols; hitting it raises :class:`SimulationError`.  ``stop`` is
        checked after every executed event (and once up front): the loop
        returns as soon as it reports true, leaving the clock at the event
        that satisfied it.  This is how future-like result handles wait for
        completion without polling — the condition is a flag flipped by a
        delivery callback, not a rescheduled check.
        """
        if stop is not None and stop():
            return
        executed = 0
        while self._queue:
            next_event = self._queue[0]
            if next_event.cancelled:
                heapq.heappop(self._queue)
                if self._cancelled_pending:
                    self._cancelled_pending -= 1
                continue
            if until is not None and next_event.time > until:
                self._now = until
                return
            if not self.step():
                return
            executed += 1
            if stop is not None and stop():
                return
            if executed >= max_events:
                raise SimulationError(f"simulation exceeded {max_events} events")
        if until is not None and until > self._now:
            self._now = until

    def run_until_idle(self, max_events: int = 1_000_000) -> None:
        """Run until no events remain."""
        self.run(until=None, max_events=max_events)

    def __repr__(self) -> str:
        return f"Simulator(now={self._now:.3f}ms, pending={len(self._queue)})"
