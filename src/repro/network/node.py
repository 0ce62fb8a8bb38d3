"""Base class for simulated peers."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from ..errors import SimulationError
from .message import Message

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from .metrics import NetworkMetrics
    from .network import Network
    from .simulator import Event

__all__ = ["NetworkNode"]


class NetworkNode:
    """A participant in the simulated network.

    Subclasses implement :meth:`handle_message`.  The important property the
    paper insists on is that roles are "not fixed or pre-assigned": any node
    can originate queries, serve data, or maintain indexes; the peer classes
    in :mod:`repro.peers` therefore all derive from this one base.
    """

    def __init__(self, address: str) -> None:
        if not address:
            raise SimulationError("node address must be non-empty")
        self.address = address
        self.online = True
        self.network: "Network | None" = None
        self.received_messages = 0
        self.sent_messages = 0

    # -- lifecycle ------------------------------------------------------------ #

    def attach(self, network: "Network") -> None:
        """Called by :meth:`Network.register`."""
        self.network = network

    def go_offline(self, graceful: bool = False) -> None:
        """Take the node off the network (messages to it are dropped).

        ``graceful`` marks an announced departure (a *leave*) rather than a
        crash; real transports use it to drain connections before closing
        them.  The logical drop semantics are identical either way.
        """
        self.online = False
        if self.network is not None:
            self.network.notify_peer_offline(self.address, graceful=graceful)

    def go_online(self) -> None:
        """Bring the node back."""
        self.online = True
        if self.network is not None:
            self.network.notify_peer_online(self.address)

    # -- messaging -------------------------------------------------------------- #

    @property
    def now(self) -> float:
        """Current simulated time (the transport's logical clock)."""
        self._require_network()
        return self.network.now  # type: ignore[union-attr]

    @property
    def connected(self) -> bool:
        """Attached to a network and online: sending is worth trying."""
        return self.network is not None and self.online

    @property
    def faulty(self) -> bool:
        """The fabric injects link faults, so a cloned frame is not a bug."""
        return self.network is not None and self.network.faults.active

    def transfer_time(self, size_bytes: int) -> float:
        """Modelled ms this node's link takes to put ``size_bytes`` on the wire."""
        self._require_network()
        return self.network.latency.transfer_time(size_bytes)  # type: ignore[union-attr]

    @property
    def metrics(self) -> "NetworkMetrics":
        """The network's ledger: per-query traces and dead-letter tallies."""
        self._require_network()
        return self.network.metrics  # type: ignore[union-attr]

    def send(
        self,
        recipient: str,
        kind: str,
        payload: Any = None,
        size_bytes: int = 256,
        hop: int = 0,
        transfer: str | None = None,
        attempt: int = 0,
    ) -> Message:
        """Send a message through the network fabric.

        ``transfer``/``attempt`` stamp the reliable-delivery envelope (see
        :class:`~repro.network.message.Message`); fire-and-forget senders
        leave them at their defaults.
        """
        self._require_network()
        message = Message(
            sender=self.address,
            recipient=recipient,
            kind=kind,
            payload=payload,
            size_bytes=size_bytes,
            hop=hop,
            transfer=transfer,
            attempt=attempt,
        )
        self.sent_messages += 1
        self.network.send(message)  # type: ignore[union-attr]
        return message

    def schedule(self, delay: float, callback) -> "Event":
        """Schedule local work on the shared logical clock.

        Returns the :class:`~repro.network.simulator.Event`, so callers
        holding state that may become moot (retry timers, detection
        timeouts) can cancel it instead of guarding the callback.
        """
        self._require_network()
        return self.network.schedule(delay, callback)  # type: ignore[union-attr]

    def receive(self, message: Message) -> None:
        """Entry point called by the network on delivery."""
        self.received_messages += 1
        self.handle_message(message)

    def handle_message(self, message: Message) -> None:
        """Process one delivered message (subclasses override)."""
        raise NotImplementedError

    def _require_network(self) -> None:
        if self.network is None:
            raise SimulationError(f"node {self.address!r} is not attached to a network")

    def __repr__(self) -> str:
        status = "online" if self.online else "offline"
        return f"{type(self).__name__}({self.address!r}, {status})"
