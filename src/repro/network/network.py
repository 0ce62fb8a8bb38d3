"""The peer-to-peer network: registration, delivery policy, failures.

The :class:`Network` connects :class:`~repro.network.node.NetworkNode`
instances through a pluggable :class:`~repro.network.transport.Transport`.
The network owns *policy* — membership, the latency model, traffic metrics,
and the drop/notice semantics the paper's fault-tolerance discussion cares
about (an unavailable server makes some content unreachable but does not
disable the system).  The transport owns *mechanics*: the deterministic
discrete-event backend delivers by reference on the simulated clock, while
the asyncio backend moves every payload through a real localhost TCP socket
first.  Both produce identical logical outcomes (see ``docs/transport.md``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable

from ..errors import SimulationError
from .faults import FaultInjector, FaultPlan
from .latency import LatencyModel
from .message import Message
from .metrics import NetworkMetrics
from .simulator import Event, Simulator
from .transport.base import Transport
from .transport.sim import SimTransport

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .node import NetworkNode

__all__ = ["Network"]


class Network:
    """Registry of nodes plus the message-delivery fabric between them."""

    def __init__(
        self,
        simulator: Simulator | None = None,
        latency: LatencyModel | None = None,
        notify_unreachable: bool = False,
        unreachable_delay_ms: float = 5.0,
        transport: Transport | None = None,
        faults: FaultPlan | None = None,
    ) -> None:
        if transport is None:
            transport = SimTransport(simulator)
        elif simulator is not None:
            raise SimulationError("pass either a simulator or a transport, not both")
        self.transport = transport
        self.transport.bind(self)
        self.latency = latency or LatencyModel()
        self.metrics = NetworkMetrics()
        self.notify_unreachable = notify_unreachable
        self.unreachable_delay_ms = unreachable_delay_ms
        self.faults = faults or FaultPlan.none()
        self.faults.validate()
        # The injector holds the per-link ordinals the seeded draws key on;
        # it is per-network, so a FaultPlan can be shared across runs (and
        # across transport backends) without decisions bleeding between them.
        self._fault_injector = FaultInjector(self.faults) if self.faults.active else None
        self._nodes: dict[str, "NetworkNode"] = {}

    # -- clock ---------------------------------------------------------------- #

    @property
    def simulator(self) -> Simulator:
        """The logical clock shared by every component (owned by the transport)."""
        return self.transport.simulator

    @property
    def now(self) -> float:
        """Current simulated time in milliseconds."""
        return self.transport.simulator.now

    def schedule(self, delay: float, callback: Callable[[], None]) -> Event:
        """Schedule local work on the shared logical clock."""
        return self.transport.simulator.schedule(delay, callback)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> Event:
        """Schedule work at an absolute simulated time."""
        return self.transport.simulator.schedule_at(time, callback)

    # -- membership --------------------------------------------------------- #

    def register(self, node: "NetworkNode") -> None:
        """Add a node to the network; addresses must be unique."""
        if node.address in self._nodes:
            raise SimulationError(f"duplicate node address {node.address!r}")
        self._nodes[node.address] = node
        node.attach(self)

    def node(self, address: str) -> "NetworkNode":
        """Return the node registered under ``address``."""
        try:
            return self._nodes[address]
        except KeyError:
            raise SimulationError(f"unknown node address {address!r}") from None

    def has_node(self, address: str) -> bool:
        """True when a node is registered under ``address``."""
        return address in self._nodes

    def addresses(self) -> list[str]:
        """All registered addresses, sorted for determinism."""
        return sorted(self._nodes)

    def nodes(self) -> Iterable["NetworkNode"]:
        """All registered nodes in address order."""
        return [self._nodes[address] for address in self.addresses()]

    # -- churn hooks (called by nodes; forwarded to the transport) ----------- #

    def notify_peer_offline(self, address: str, graceful: bool = False) -> None:
        """A node departed; real transports recycle its connections."""
        self.transport.peer_offline(address, graceful=graceful)

    def notify_peer_online(self, address: str) -> None:
        """A node rejoined; transports may reopen connections lazily."""
        self.transport.peer_online(address)

    # -- delivery -------------------------------------------------------------- #

    def send(self, message: Message) -> None:
        """Queue a message for delivery after the modelled network delay.

        This is the single fault-injection seam: when a
        :class:`~repro.network.faults.FaultPlan` is active, the seeded
        injector decides here — before the transport is involved — whether
        the message is lost, duplicated, delayed, or held back.  Both
        backends route every send through this method and the decisions are
        pure functions of the plan seed and per-link ordinals, so the same
        frames meet the same fate on ``sim`` and ``aio`` and reports stay
        byte-equivalent under active faults.  An injected loss is *silent*
        (no ``peer-unreachable`` notice): unlike a dead peer, a lossy link
        gives the sender nothing to detect — recovery is the reliable
        delivery protocol's job (``flags.reliable_delivery``).
        """
        message.sent_at = self.now
        self.metrics.record_send(message)
        if message.recipient not in self._nodes:
            self._drop(message)
            return
        delay = self.latency.delivery_delay(
            message.sender, message.recipient, message.size_bytes
        )
        if self._fault_injector is None:
            self.transport.send(message, delay)
            return
        outcome = self._fault_injector.intercept(message, delay, self.now)
        self.metrics.record_fault(message, outcome)
        for position, fault_delay in enumerate(outcome.delays):
            if position == 0:
                self.transport.send(message, fault_delay)
            else:
                # A duplicated copy is a distinct frame on the wire: it gets
                # its own message id so real transports pair each logical
                # delivery with its own physical frame.  The payload is
                # shared — receivers treat payloads as read-only.
                self.transport.send(
                    Message(
                        sender=message.sender,
                        recipient=message.recipient,
                        kind=message.kind,
                        payload=message.payload,
                        size_bytes=message.size_bytes,
                        sent_at=message.sent_at,
                        hop=message.hop,
                        transfer=message.transfer,
                        attempt=message.attempt,
                    ),
                    fault_delay,
                )

    def _deliver(self, message: Message) -> None:
        node = self._nodes.get(message.recipient)
        if node is None or not node.online:
            self._drop(message)
            return
        node.receive(message)

    def _drop(self, message: Message) -> None:
        """Account for an undeliverable message; optionally tell the sender.

        With ``notify_unreachable`` on, the sender learns of the failure
        after a detection delay (modelling a connection timeout) via a
        synthesized ``peer-unreachable`` message carrying the original.
        Both drop paths notify — the send path (unknown recipient) and the
        delivery path (peer crashed mid-delivery); ``tests/test_churn.py``
        holds a regression test for the latter.  Churn-aware peers use the
        notice to invalidate routing state and reroute in-flight plans
        instead of losing them silently.
        """
        if message.kind == "peer-unreachable":
            # Synthetic detection notices are bookkeeping, not traffic:
            # they are neither send- nor drop-counted (one lost message
            # must not record two drops), and never trigger further notices.
            return
        self.metrics.record_drop(message)
        if not self.notify_unreachable:
            return
        if self.transport.closed:
            # Teardown: a notice scheduled now would land on a closing
            # transport whose drive loop will never run it (and a later
            # ``run`` call would fail on a closed backend).  The drop is
            # still accounted above; the notice is a guarded no-op.
            return
        sender = self._nodes.get(message.sender)
        if sender is None:
            return
        notice = Message(
            sender=message.recipient,
            recipient=message.sender,
            kind="peer-unreachable",
            payload=message,
            size_bytes=0,
            sent_at=self.now,
        )
        # Notices bypass the transport's wire: they model the *sender's*
        # local timeout detection, not a message from the dead peer.
        self.schedule(self.unreachable_delay_ms, lambda: self._deliver(notice))

    # -- convenience ------------------------------------------------------------- #

    def run(
        self,
        until: float | None = None,
        stop: Callable[[], bool] | None = None,
    ) -> None:
        """Run the scenario (until idle, the given simulated time, or ``stop``)."""
        self.transport.run(until=until, stop=stop)

    def run_until(self, stop: Callable[[], bool], until: float | None = None) -> bool:
        """Run until ``stop`` reports true; return whether it did.

        The condition is checked after every executed logical event, so a
        delivery callback that flips a flag halts the run at exactly that
        event — on every transport backend, with no polling events on the
        clock.  Returns ``False`` when the network went idle (or ``until``
        passed) with the condition still unsatisfied.
        """
        self.transport.run(until=until, stop=stop)
        return stop()

    def run_until_idle(self) -> None:
        """Run until no scheduled work remains."""
        self.transport.run_until_idle()

    def close(self) -> None:
        """Release transport resources (sockets, loops).  Idempotent."""
        self.transport.close()

    def __enter__(self) -> "Network":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"Network(nodes={len(self._nodes)}, now={self.now:.1f}ms, "
            f"transport={self.transport.name})"
        )
