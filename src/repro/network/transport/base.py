"""The transport abstraction: who moves messages, and on whose clock.

Every distributed behaviour in the reproduction is expressed as peers
exchanging :class:`~repro.network.message.Message` objects through a
:class:`~repro.network.network.Network`.  The *network* owns policy —
membership, latency charging, metrics, drop/notice semantics — while the
*transport* owns mechanics: scheduling the delivery callback and (for real
backends) physically moving the bytes.

Two backends ship behind this interface:

* :class:`~repro.network.transport.sim.SimTransport` — the seed's
  deterministic discrete-event simulator, unchanged semantics;
* :class:`~repro.network.transport.aio.AsyncioTransport` — each peer is
  served by an asyncio task speaking length-prefixed wire frames over real
  TCP sockets on localhost, with connection pooling and bounded per-peer
  inboxes (backpressure).

Both are driven through the same logical clock (a
:class:`~repro.network.simulator.Simulator`), which is what keeps scenario
reports byte-identical across backends: simulated time is the coordination
authority, the wire is the execution substrate.  See ``docs/transport.md``
for the full model and how to add a backend.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Callable

from ...errors import SimulationError
from ..simulator import Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from ..message import Message
    from ..network import Network

__all__ = ["Transport", "TransportError", "TRANSPORT_KINDS", "build_transport"]

TRANSPORT_KINDS = ("sim", "aio")
"""Backends selectable from the harness and the experiment CLI."""


class TransportError(SimulationError):
    """A transport backend failed to move or deliver a frame."""


class Transport(ABC):
    """Delivery mechanics behind a :class:`Network`.

    Subclasses own a :class:`Simulator` instance (``self.simulator``) that
    provides the logical clock and the schedule for everything that is not
    a message — timers, churn events, scheduled queries.  The network
    reaches the clock through :attr:`simulator`, so peer code never needs
    to know which backend is running.
    """

    name: str = "abstract"
    simulator: Simulator

    def __init__(self) -> None:
        self.simulator = Simulator()
        self._network: "Network | None" = None
        self._closed = False

    # -- lifecycle ------------------------------------------------------- #

    def bind(self, network: "Network") -> None:
        """Attach the owning network (called from ``Network.__init__``)."""
        if self._network is not None and self._network is not network:
            raise SimulationError(f"{self.name} transport is already bound to a network")
        self._network = network

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run; the backend will move no more frames.

        The network consults this during teardown — work that would only
        ever run on a future drive of a closed backend (for example the
        ``peer-unreachable`` notice ``Network._drop`` schedules) is skipped
        instead of being stranded on the clock.
        """
        return self._closed

    def close(self) -> None:
        """Release backend resources (sockets, tasks, loops). Idempotent."""
        self._closed = True

    def __enter__(self) -> "Transport":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- delivery -------------------------------------------------------- #

    @abstractmethod
    def send(self, message: "Message", delay: float) -> None:
        """Arrange for ``message`` to reach ``Network._deliver`` after ``delay``.

        The network has already charged metrics and computed the modelled
        delay; the transport decides *how* the payload travels in the
        meantime.  Delivery must preserve the logical (time, sequence)
        order of the shared clock.
        """

    # -- execution ------------------------------------------------------- #

    @abstractmethod
    def run(
        self,
        until: float | None = None,
        stop: Callable[[], bool] | None = None,
    ) -> None:
        """Run scheduled work until idle or until the given simulated time.

        ``stop`` is an optional condition checked after every executed
        logical event; the run returns as soon as it reports true.  It is
        the lifecycle hook :class:`repro.api.QueryHandle` uses to wait for
        a result event-driven on the shared clock, identically on every
        backend.
        """

    def run_until_idle(self) -> None:
        """Run until no logical events remain."""
        self.run(until=None)

    # -- churn hooks ----------------------------------------------------- #

    def peer_offline(self, address: str, graceful: bool = False) -> None:
        """A peer departed.  ``graceful`` distinguishes leave from crash.

        Real backends recycle the peer's connections here; the simulator
        backend has nothing to tear down.  Either way the *logical* drop
        semantics live in the network, so backends stay equivalent.
        """

    def peer_online(self, address: str) -> None:
        """A peer rejoined after an outage (connections reopen lazily)."""

    # -- introspection --------------------------------------------------- #

    def stats(self) -> dict[str, int]:
        """Backend counters (frames, bytes, reconnects, ...); empty for sim."""
        return {}


def build_transport(kind: str) -> Transport:
    """Instantiate a transport backend by name (``sim`` or ``aio``)."""
    if kind == "sim":
        from .sim import SimTransport

        return SimTransport()
    if kind == "aio":
        from .aio import AsyncioTransport

        return AsyncioTransport()
    raise SimulationError(
        f"unknown transport {kind!r}: use one of {TRANSPORT_KINDS}"
    )
