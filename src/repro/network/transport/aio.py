"""Real-socket transport: every payload crosses a localhost TCP connection.

Each registered peer listens on its own socket; senders pool one connection
per directed link and push length-prefixed frames
(:mod:`~repro.network.transport.wire`) through it.  What stays deterministic
is the *logical* schedule: delivery callbacks run in the shared clock's
(time, sequence) order, exactly as on the simulator backend — but a
delivery callback only fires once the frame has actually come off the
recipient's socket and been decoded.  The delivered message is
the decoded copy, so serialization cost, framing, connection management and
socket backpressure are all real, while scenario reports stay byte-identical
with the ``sim`` backend (the property ``tests/test_transport.py`` gates).

A frame's work is done where the frame is.  Receiving: each inbound
connection is an :class:`asyncio.BufferedProtocol` that splits what each read
hands it on the length prefix and decodes every whole frame on the spot — no
task, no await per frame.  Sending: each pooled link is the
:class:`asyncio.Protocol` of its own outbound connection, and
:meth:`AsyncioTransport.send` has one path: a frame goes to
``transport.write`` when the link is connected, not paused and has nothing
queued, else onto the link's queue, which ``connection_made`` and
``resume_writing`` flush in order.  A task exists only while a link
connects.  Waiting: the drive loop awaits a frame's future bare, under one
watchdog timer for the whole run.  A frame the receiver refuses, or a
connection lost that this side did not close, fails the run at once with
the reason — never as a socket that went quiet.

Backpressure: each peer owns a bounded inbox.  When it fills, the peer's
connections stop reading (``pause_reading``; what they had already read stays
unparsed in their buffers), the kernel socket buffers fill, the sender's
asyncio write buffer grows past its high-water mark and asyncio calls the
link's ``pause_writing`` — from then on its frames wait in the link's queue
until ``resume_writing``: a real end-to-end backpressure chain.  The bound
is soft in exactly one direction: when the drive loop is *waiting* for a
specific frame, connections read past the limit until it arrives (otherwise
a large early frame parked in a full inbox could starve a smaller,
logically-earlier one — a deadlock, not a model).

Churn mapping: ``go_offline``/``leave`` recycle the departing peer's pooled
connections (flush, close; later frames reconnect), modelling session loss.
Process-state loss stays at the peer layer (``QueryPeer.go_offline`` says
what it drops), and drop/notice *policy* stays in the network — which is
what keeps the two backends' reports identical under churn schedules.
"""

from __future__ import annotations

import asyncio
import itertools
import socket
from collections import deque
from typing import TYPE_CHECKING, Callable

from ...errors import SimulationError
from .base import Transport, TransportError
from .wire import HEADER, MAX_FRAME_BYTES, FrameEncoder, decode_frame

if TYPE_CHECKING:  # pragma: no cover - typing-only imports
    from ..message import Message
    from ..network import Network

__all__ = ["AsyncioTransport"]

_READ_BYTES = 64 * 1024

_MAX_LINKS = 1024
"""Open sockets per transport before the least-recently-used idle ones close."""


class _GatedDelivery:
    """A delivery callback gated on the physical arrival of its frame.

    The drive loop recognizes instances of this class on the event queue,
    awaits the frame, and stores the decoded message here before stepping
    the event.  If the backend is driven without gating (someone calls
    ``simulator.run`` directly), the callback degrades to by-reference
    delivery — logically identical, just not exercising the wire.
    """

    __slots__ = ("network", "message", "decoded")

    def __init__(self, network: "Network", message: "Message") -> None:
        self.network = network
        self.message = message
        self.decoded: "Message | None" = None

    def __call__(self) -> None:
        delivered = self.decoded if self.decoded is not None else self.message
        self.network._deliver(delivered)


class _Inbox:
    """Bounded arrival buffer for one peer, keyed by message id."""

    __slots__ = ("limit", "stored", "waiters", "connections", "paused", "high_water")

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.stored: dict[int, "Message"] = {}
        self.waiters: dict[int, asyncio.Future] = {}
        self.connections: set["_Receiver"] = set()
        self.paused = False
        self.high_water = 0

    def put(self, message: "Message") -> None:
        """Accept one decoded frame (resolving a demand if one is pending)."""
        waiter = self.waiters.pop(message.message_id, None)
        if waiter is not None and not waiter.done():
            waiter.set_result(message)
            return
        self.stored[message.message_id] = message
        if len(self.stored) > self.high_water:
            self.high_water = len(self.stored)
        if len(self.stored) >= self.limit and not self.waiters:
            # Receiver-side backpressure: nobody reads while the inbox is full.
            self.paused = True
            for connection in self.connections:
                connection.transport.pause_reading()

    def take(self, message_id: int) -> "Message | None":
        """Consume a stored frame; reopens the inbox when it drains."""
        message = self.stored.pop(message_id, None)
        if self.paused and len(self.stored) < self.limit:
            self.resume()
        return message

    def demand(self, message_id: int, loop: asyncio.AbstractEventLoop) -> asyncio.Future:
        """The drive loop needs this frame now: bypass the bound until it lands."""
        future = loop.create_future()
        self.waiters[message_id] = future
        if self.paused:
            self.resume()
        return future

    def resume(self) -> None:
        """Room again: first what each connection had already read, in order —
        and only if that does not refill the inbox, its socket."""
        self.paused = False
        for connection in list(self.connections):
            connection.parse()
            if self.paused:
                return
        for connection in self.connections:
            connection.transport.resume_reading()


class _Receiver(asyncio.BufferedProtocol):
    """One inbound connection of one peer: bytes in, decoded frames out."""

    __slots__ = ("owner", "address", "inbox", "transport", "buffer", "parsed", "need")

    def __init__(self, owner: "AsyncioTransport", address: str) -> None:
        self.owner = owner
        self.address = address
        self.inbox = owner._inboxes[address]
        self.buffer = bytearray()
        self.parsed = 0  # offset of the first byte not yet decoded
        self.need = HEADER.size  # bytes from there before the head frame is whole

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        assert isinstance(transport, asyncio.Transport)
        self.transport = transport
        self.inbox.connections.add(self)
        if self.inbox.paused:
            transport.pause_reading()

    def connection_lost(self, exc: Exception | None) -> None:
        self.inbox.connections.discard(self)

    def get_buffer(self, sizehint: int) -> memoryview:
        return self.owner._read_buffer

    def buffer_updated(self, nbytes: int) -> None:
        self.received(self.owner._read_buffer[:nbytes])

    def received(self, data: bytes | memoryview) -> None:
        """Append what one read delivered; decode once the head frame is whole."""
        self.buffer += data
        if len(self.buffer) - self.parsed >= self.need:  # else: a large frame, still arriving
            self.parse()

    def parse(self) -> None:
        """Decode, in order, every whole frame read so far — until the inbox
        fills; the rest stays in the buffer for :meth:`_Inbox.resume`."""
        inbox, buffer, position = self.inbox, self.buffer, self.parsed
        end = len(buffer)
        self.need = HEADER.size
        try:
            while end - position >= HEADER.size and not inbox.paused:
                (length,) = HEADER.unpack_from(buffer, position)
                if length > MAX_FRAME_BYTES:
                    raise TransportError(
                        f"oversized frame ({length} bytes) on {self.address!r}'s socket"
                    )
                start = position + HEADER.size
                if start + length > end:
                    self.need = HEADER.size + length
                    break
                inbox.put(decode_frame(bytes(buffer[start : start + length])))
                self.owner._counters["frames_received"] += 1
                position = start + length
        except TransportError as error:
            # Nothing after a refused frame can be trusted to be a frame.
            position = end
            self.transport.close()
            self.owner._wire_failed(error)
        if position * 2 >= end:  # amortized: a byte is moved at most once per byte parsed
            del buffer[:position]
            position = 0
        self.parsed = position


class _Link(asyncio.Protocol):
    """One pooled, ordered connection from ``sender`` to ``recipient``: the
    protocol of its own socket, reused by each reconnect."""

    __slots__ = (
        "owner",
        "sender",
        "recipient",
        "queue",
        "transport",
        "connecting",
        "paused",
        "close_when_idle",
        "ever_connected",
        "last_used",
    )

    def __init__(self, owner: "AsyncioTransport", sender: str, recipient: str) -> None:
        self.owner = owner
        self.sender = sender
        self.recipient = recipient
        self.queue: deque[bytes] = deque()  # frames waiting for a connect or for room
        self.transport: asyncio.Transport | None = None
        self.connecting = False
        self.paused = False
        self.close_when_idle = False
        self.ever_connected = False
        self.last_used = 0

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        assert isinstance(transport, asyncio.Transport)
        self.transport = transport
        self.paused = False
        counters = self.owner._counters
        if self.ever_connected:
            counters["reconnects"] += 1
        self.ever_connected = True
        counters["connections_opened"] += 1
        self.owner._evict_idle_links()
        self.flush()

    def connection_lost(self, exc: Exception | None) -> None:
        transport = self.transport
        if transport is None or not transport.is_closing():
            return  # a connection this side closed: recycled, evicted or shut down
        self.transport = None
        self.paused = False
        # Frames written to it may never arrive; the wait fails now, not on the watchdog.
        self.owner._wire_failed(TransportError(
            f"link {self.sender} -> {self.recipient} lost its connection "
            f"({exc or 'closed by the receiving end'})"
        ))

    def pause_writing(self) -> None:
        self.paused = True

    def resume_writing(self) -> None:
        self.paused = False
        self.flush()

    def flush(self) -> None:
        """Write queued frames, in order, until asyncio asks for a pause;
        a link marked for recycling closes once its queue is empty."""
        transport = self.transport
        if transport is None:
            return  # still connecting: connection_made flushes
        queue = self.queue
        while queue and not self.paused:
            frame = queue.popleft()
            transport.write(frame)  # may call pause_writing before it returns
            self.owner._sent(frame)
        if self.close_when_idle and not queue:
            self.close()

    def close(self) -> None:
        transport, self.transport = self.transport, None
        if transport is not None:
            self.paused = False
            transport.close()  # asyncio writes out what it still buffers first
            self.owner._counters["links_recycled"] += 1


class AsyncioTransport(Transport):
    """Peers as listening sockets, speaking length-prefixed frames over TCP."""

    name = "aio"

    def __init__(
        self,
        inbox_limit: int = 64,
        arrival_timeout_s: float = 30.0,
        host: str = "127.0.0.1",
    ) -> None:
        super().__init__()
        if inbox_limit < 1:
            raise SimulationError("inbox_limit must be at least 1")
        self.inbox_limit = inbox_limit
        self.arrival_timeout_s = arrival_timeout_s
        self.host = host
        self._loop: asyncio.AbstractEventLoop | None = None
        self._servers: dict[str, asyncio.Server] = {}
        self._ports: dict[str, int] = {}
        self._inboxes: dict[str, _Inbox] = {}
        self._links: dict[tuple[str, str], _Link] = {}
        self._use_tick = itertools.count(1)
        # One reusable encode buffer per transport: all sends happen on the
        # drive thread, so the encoder's scratch bytearray is never shared.
        self._encoder = FrameEncoder()
        # Likewise one read buffer: the loop runs one read callback at a time,
        # and each connection copies what arrived into its own buffer.  A
        # plain Protocol would get a fresh 256 KiB bytes per read, which is
        # above glibc's mmap threshold: every read would map and unmap pages.
        self._read_buffer = memoryview(bytearray(_READ_BYTES))
        self._closed = False
        self._wire_error: TransportError | None = None
        # The one frame the drive loop is waiting for: (future, message, since).
        self._awaited: tuple[asyncio.Future, "Message", float] | None = None
        self._watchdog: asyncio.TimerHandle  # armed while the drive loop runs
        self._counters = {
            "frames_sent": 0,
            "frames_received": 0,
            "bytes_on_wire": 0,
            "connections_opened": 0,
            "reconnects": 0,
            "links_recycled": 0,
        }

    # ------------------------------------------------------------------ #
    # Transport interface
    # ------------------------------------------------------------------ #

    def send(self, message: "Message", delay: float) -> None:
        if self._closed:
            raise TransportError("cannot send on a closed transport")
        assert self._network is not None, "transport is not bound to a network"
        # Logical half: a gated delivery event on the shared clock.
        self.simulator.schedule(delay, _GatedDelivery(self._network, message))
        # Physical half: the frame joins the link's ordered outbound stream.
        link = self._link_for(message.sender, message.recipient)
        link.queue.append(self._encoder.encode(message))
        if link.transport is None:
            self._connect(link)
        else:
            link.flush()

    def run(
        self,
        until: float | None = None,
        stop: Callable[[], bool] | None = None,
        max_events: int = 1_000_000,
    ) -> None:
        if self._closed:
            raise TransportError("cannot run a closed transport")
        loop = self._ensure_loop()
        loop.run_until_complete(self._drive(until, max_events, stop))

    def peer_offline(self, address: str, graceful: bool = False) -> None:
        """Recycle the departing peer's connections once their queues flush.

        Graceful leavers have already queued their goodbye traffic
        (unregister messages), so flush-then-close transmits it; a crash
        closes the same way at the transport level — the *state* a crash
        loses (buffered plans) is modelled at the peer layer, keeping the
        logical outcome identical to the simulator backend.
        """
        del graceful  # same wire behaviour either way; see docstring
        for link in self._links.values():
            if address in (link.sender, link.recipient):
                link.close_when_idle = True
                if not link.queue:
                    link.close()

    def peer_online(self, address: str) -> None:
        """A rejoined peer's links may carry traffic again (lazy reconnect).

        Only links whose *other* endpoint is also online come back: a link
        to a still-crashed peer keeps its recycle mark, so its connection
        is not resurrected on someone else's rejoin.
        """
        for link in self._links.values():
            if address not in (link.sender, link.recipient):
                continue
            other = link.recipient if link.sender == address else link.sender
            if other == address or self._endpoint_online(other):
                link.close_when_idle = False

    def _endpoint_online(self, address: str) -> bool:
        network = self._network
        if network is None or not network.has_node(address):
            return False
        return network.node(address).online

    def stats(self) -> dict[str, int]:
        counters = dict(self._counters)
        counters["peers_listening"] = len(self._servers)
        counters["links_pooled"] = len(self._links)
        counters["inbox_high_water"] = max(
            (inbox.high_water for inbox in self._inboxes.values()), default=0
        )
        return counters

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        loop = self._loop
        if loop is None or loop.is_closed():
            return
        loop.run_until_complete(self._shutdown())
        loop.run_until_complete(loop.shutdown_asyncgens())
        loop.close()

    # ------------------------------------------------------------------ #
    # The drive loop: logical order, gated on physical arrival
    # ------------------------------------------------------------------ #

    async def _drive(
        self,
        until: float | None,
        max_events: int,
        stop: Callable[[], bool] | None = None,
    ) -> None:
        await self._ensure_started()
        simulator = self.simulator
        if stop is not None and stop():
            return
        executed = 0
        loop = asyncio.get_running_loop()
        self._watchdog = loop.call_later(self.arrival_timeout_s, self._watch, loop)
        try:
            while True:
                event = simulator.peek()
                if event is None:
                    break
                if until is not None and event.time > until:
                    break
                callback = event.callback
                if isinstance(callback, _GatedDelivery) and callback.decoded is None:
                    # Nothing that runs while awaiting (connections, link
                    # protocols) schedules logical events, so the peeked event is
                    # still the head of the queue when we step it below.
                    callback.decoded = await self._await_arrival(callback.message, loop)
                if not simulator.step():
                    break
                executed += 1
                if stop is not None and stop():
                    return
                if executed >= max_events:
                    raise SimulationError(f"simulation exceeded {max_events} events")
        finally:
            self._watchdog.cancel()
        if until is not None:
            simulator.advance_to(until)

    async def _await_arrival(
        self, message: "Message", loop: asyncio.AbstractEventLoop
    ) -> "Message":
        inbox = self._inboxes.get(message.recipient)
        if inbox is None:
            raise TransportError(
                f"no listening peer for {message.recipient!r} "
                f"(message #{message.message_id})"
            )
        stored = inbox.take(message.message_id)
        if stored is not None:
            return stored
        if self._wire_error is not None:
            raise self._wire_error  # the frame may be the one that was lost
        future = inbox.demand(message.message_id, loop)
        self._awaited = (future, message, loop.time())
        try:
            return await future
        finally:
            self._awaited = None
            inbox.waiters.pop(message.message_id, None)

    def _watch(self, loop: asyncio.AbstractEventLoop) -> None:
        """The drive loop's one arrival watchdog: fail the wait that has lasted
        ``arrival_timeout_s``, then sleep until the current one would have."""
        due = loop.time() + self.arrival_timeout_s
        if self._awaited is not None:
            future, message, since = self._awaited
            if since + self.arrival_timeout_s > loop.time():
                due = since + self.arrival_timeout_s
            elif not future.done():
                future.set_exception(TransportError(
                    f"frame for message #{message.message_id} "
                    f"({message.sender} -> {message.recipient}, {message.kind!r}) "
                    f"did not arrive within {self.arrival_timeout_s:g}s wall clock "
                    f"— a hung or severed socket"
                ))
        self._watchdog = loop.call_at(due, self._watch, loop)

    def _wire_failed(self, error: TransportError) -> None:
        """A frame was refused by its receiver, or its link could not connect
        or lost its connection: a delivery may never happen, so the wait in
        progress (or the next) fails now, with the first such reason, instead
        of timing out without one."""
        if self._wire_error is None:
            self._wire_error = error
        if self._awaited is not None and not self._awaited[0].done():
            self._awaited[0].set_exception(error)

    # ------------------------------------------------------------------ #
    # Servers (one listening socket per peer, one _Receiver per connection)
    # ------------------------------------------------------------------ #

    async def _ensure_started(self) -> None:
        assert self._network is not None, "transport is not bound to a network"
        loop = asyncio.get_running_loop()
        for address in self._network.addresses():
            if address in self._servers:
                continue
            self._inboxes.setdefault(address, _Inbox(self.inbox_limit))
            # A fan-out can open hundreds of first connects at one listener
            # before it accepts any; past the accept queue the kernel drops
            # the SYN and the connect waits out a one-second retransmit.  The
            # kernel clamps SOMAXCONN to net.core.somaxconn.
            server = await loop.create_server(
                lambda address=address: _Receiver(self, address), self.host, 0,
                backlog=socket.SOMAXCONN,
            )
            self._servers[address] = server
            self._ports[address] = server.sockets[0].getsockname()[1]
        # Frames queued while the loop was not running (publish traffic
        # ahead of the first run, or sends between two run calls) get
        # their connections opened now.
        for link in self._links.values():
            if link.queue and link.transport is None:
                self._connect(link)

    # ------------------------------------------------------------------ #
    # Links (pooled, ordered, lazily connected)
    # ------------------------------------------------------------------ #

    def _link_for(self, sender: str, recipient: str) -> _Link:
        key = (sender, recipient)
        link = self._links.get(key)
        if link is None:
            link = _Link(self, sender, recipient)
            self._links[key] = link
        link.last_used = next(self._use_tick)
        return link

    def _connect(self, link: _Link) -> None:
        """Open the link's connection in a task that lives as long as the
        connect (no-op before the loop runs, or while one is under way)."""
        if link.connecting:
            return
        try:
            loop = asyncio.get_running_loop()
        except RuntimeError:
            return  # queued pre-run; _ensure_started connects it
        link.connecting = True
        loop.create_task(self._open(link, loop))

    async def _open(self, link: _Link, loop: asyncio.AbstractEventLoop) -> None:
        try:
            port = self._ports.get(link.recipient)
            if port is None:
                raise TransportError(
                    f"no listening socket for {link.recipient!r}; "
                    "was the node registered before the run?"
                )
            await loop.create_connection(lambda: link, self.host, port)
        except OSError as error:
            self._wire_failed(TransportError(
                f"link {link.sender} -> {link.recipient} could not connect ({error})"
            ))
        except TransportError as error:
            self._wire_failed(error)
        finally:
            link.connecting = False

    def _sent(self, frame: bytes) -> None:
        self._counters["frames_sent"] += 1
        self._counters["bytes_on_wire"] += len(frame)

    def _evict_idle_links(self) -> None:
        """Connection-pool bound: close the least-recently-used idle links."""
        open_links = [link for link in self._links.values() if link.transport is not None]
        if len(open_links) <= _MAX_LINKS:
            return
        open_links.sort(key=lambda link: link.last_used)
        for link in open_links[: len(open_links) - _MAX_LINKS]:
            # Idle only: a link with queued frames is waiting for room, and
            # closing it would strand them.  What asyncio still buffers for
            # a closed link is written out before the socket closes.
            if not link.queue:
                link.close()

    # ------------------------------------------------------------------ #
    # Shutdown
    # ------------------------------------------------------------------ #

    async def _shutdown(self) -> None:
        # Connects still under way first, so no link connects after it closed.
        current = asyncio.current_task()
        leftovers = [
            task for task in asyncio.all_tasks() if task is not current and not task.done()
        ]
        for task in leftovers:
            task.cancel()
        if leftovers:
            await asyncio.gather(*leftovers, return_exceptions=True)
        for link in self._links.values():
            link.close()
        for server in self._servers.values():
            server.close()
        for inbox in self._inboxes.values():
            for connection in list(inbox.connections):
                connection.transport.close()
        for server in self._servers.values():
            await server.wait_closed()

    def _ensure_loop(self) -> asyncio.AbstractEventLoop:
        if self._loop is None:
            self._loop = asyncio.new_event_loop()
        return self._loop

    def __repr__(self) -> str:
        return (
            f"AsyncioTransport(now={self.simulator.now:.1f}ms, "
            f"peers={len(self._servers)}, links={len(self._links)})"
        )
