"""The pluggable transport layer: wire framing, real sockets, equivalence.

The contract under test is the one ``docs/transport.md`` spells out:

* the ``sim`` backend preserves the seed's semantics exactly;
* the ``aio`` backend moves every payload through a real localhost TCP
  socket (length-prefixed frames, pooled connections, bounded inboxes)
  while producing **byte-identical** scenario reports — including under
  churn schedules — because simulated time remains the coordination
  authority on both backends.

The aio tests open real sockets; CI runs this module with a per-test
timeout (pytest-timeout) so a hung socket can never wedge the suite.
"""

from __future__ import annotations

import asyncio
import json
import socket
import time

import pytest

from repro.harness.cli import SCENARIOS, main
from repro.harness.report import to_json
from repro.harness.scaleout import ScaleoutSpec, build_scaleout_scenario, run_scaleout
from repro.network import (
    AsyncioTransport,
    Message,
    Network,
    NetworkNode,
    SimTransport,
    Simulator,
    TransportError,
    build_transport,
)
from repro.network.transport import codec
from repro.network.transport.aio import _GatedDelivery, _Inbox, _Link, _Receiver
from repro.network.transport.wire import HEADER, FrameEncoder, decode_frame, encode_frame
from repro.peers import RegistrationPayload


class Recorder(NetworkNode):
    """Test peer that records everything it receives and can auto-reply."""

    def __init__(self, address, reply_to=None):
        super().__init__(address)
        self.received: list[Message] = []
        self.reply_to = reply_to

    def handle_message(self, message):
        self.received.append(message)
        if self.reply_to and message.kind == "ping":
            self.send(message.sender, "pong", size_bytes=64)


# --------------------------------------------------------------------------- #
# Wire framing
# --------------------------------------------------------------------------- #


class TestWireCodec:
    def roundtrip(self, message: Message) -> Message:
        frame = encode_frame(message)
        (length,) = HEADER.unpack(frame[: HEADER.size])
        assert length == len(frame) - HEADER.size
        return decode_frame(frame[HEADER.size :])

    def test_text_payload_ships_as_wire_form(self):
        document = "<mutant-query id='q1'><current/></mutant-query>"
        message = Message("a:1", "b:1", "mqp", document, size_bytes=len(document))
        frame = encode_frame(message)
        # The MQP's XML wire form crosses the socket verbatim (UTF-8).
        assert document.encode("utf-8") in frame
        decoded = self.roundtrip(message)
        assert decoded.payload == document
        assert decoded.kind == "mqp"

    def test_envelope_fields_survive(self):
        message = Message("a:1", "b:1", "result", {"query_id": "q7", "partial": False},
                          size_bytes=512, hop=3)
        message.sent_at = 123.456
        decoded = self.roundtrip(message)
        assert decoded.message_id == message.message_id
        assert decoded.sent_at == pytest.approx(123.456)
        assert decoded.hop == 3
        assert decoded.size_bytes == 512
        assert decoded.payload == {"query_id": "q7", "partial": False}

    def test_payload_is_a_real_copy(self):
        payload = {"nested": [1, 2, 3]}
        decoded = self.roundtrip(Message("a:1", "b:1", "blob", payload))
        assert decoded.payload == payload
        assert decoded.payload is not payload  # serialization actually happened

    def test_structured_registration_payload(self, namespace):
        from repro.peers import QueryPeer

        peer = QueryPeer("server:9020", namespace)
        payload = RegistrationPayload(entry=peer.server_entry())
        decoded = self.roundtrip(Message("a:1", "b:1", "register", payload))
        assert decoded.payload.entry.address == "server:9020"
        assert decoded.payload.entry.area == peer.server_entry().area

    def test_decoding_preserves_global_counter(self):
        message = Message("a:1", "b:1", "ping")
        before = Message("x:1", "y:1", "probe").message_id
        decode_frame(encode_frame(message)[HEADER.size :])
        after = Message("x:1", "y:1", "probe").message_id
        assert after == before + 1  # decode did not consume fresh ids


# --------------------------------------------------------------------------- #
# The transport seam on Network
# --------------------------------------------------------------------------- #


class TestTransportSeam:
    def test_default_network_uses_sim_transport(self):
        network = Network()
        assert isinstance(network.transport, SimTransport)
        assert network.transport.name == "sim"
        assert network.simulator is network.transport.simulator

    def test_explicit_simulator_is_honoured(self):
        simulator = Simulator()
        network = Network(simulator=simulator)
        assert network.simulator is simulator

    def test_simulator_and_transport_are_exclusive(self):
        from repro.errors import SimulationError

        with pytest.raises(SimulationError):
            Network(simulator=Simulator(), transport=SimTransport())

    def test_build_transport_factory(self):
        from repro.errors import SimulationError

        assert isinstance(build_transport("sim"), SimTransport)
        assert isinstance(build_transport("aio"), AsyncioTransport)
        with pytest.raises(SimulationError):
            build_transport("carrier-pigeon")

    def test_transport_cannot_serve_two_networks(self):
        from repro.errors import SimulationError

        transport = SimTransport()
        Network(transport=transport)
        with pytest.raises(SimulationError):
            Network(transport=transport)


# --------------------------------------------------------------------------- #
# The asyncio backend, unit level
# --------------------------------------------------------------------------- #


class TestAsyncioTransport:
    def test_delivery_over_real_sockets(self):
        with Network(transport=AsyncioTransport()) as network:
            alice, bob = Recorder("alice:1"), Recorder("bob:1", reply_to=True)
            network.register(alice)
            network.register(bob)
            alice.send("bob:1", "ping", payload={"n": 1}, size_bytes=100)
            network.run_until_idle()
            assert len(bob.received) == 1
            assert len(alice.received) == 1  # the pong
            # The delivered payload is the decoded wire copy, not the
            # sender's object — the bytes really crossed a socket.
            assert bob.received[0].payload == {"n": 1}
            stats = network.transport.stats()
            assert stats["frames_sent"] == 2
            assert stats["frames_received"] == 2
            assert stats["bytes_on_wire"] > 0

    def test_a_burst_past_the_inbox_bound_arrives_whole(self):
        transport = AsyncioTransport(inbox_limit=8)
        with Network(transport=transport) as network:
            source, sink = Recorder("source:1"), Recorder("sink:1")
            network.register(source)
            network.register(sink)
            for _ in range(500):
                source.send("sink:1", "blob", "x" * 256, size_bytes=256)
            network.run_until_idle()
            assert len(sink.received) == 500
            assert transport.stats()["inbox_high_water"] <= transport.inbox_limit

    def test_logical_order_matches_sim(self):
        def exchange(transport):
            order = []

            class Ordered(Recorder):
                def handle_message(self, message):
                    super().handle_message(message)
                    order.append((message.kind, round(self.now, 3)))

            with Network(transport=transport) as network:
                a, b = Ordered("a:1"), Ordered("b:1")
                network.register(a)
                network.register(b)
                a.send("b:1", "big", payload="x" * 4000, size_bytes=4000)
                a.send("b:1", "small", payload="y", size_bytes=1)
                network.run_until_idle()
            return order

        # The small message overtakes the big one identically on both
        # backends: simulated transfer time, not socket order, decides.
        assert exchange(SimTransport()) == exchange(AsyncioTransport())

    def test_run_until_advances_clock(self):
        with Network(transport=AsyncioTransport()) as network:
            network.register(Recorder("a:1"))
            network.run(until=250.0)
            assert network.now == pytest.approx(250.0)

    def test_offline_recipient_drops_after_wire_transfer(self):
        with Network(transport=AsyncioTransport()) as network:
            alice, bob = Recorder("alice:1"), Recorder("bob:1")
            network.register(alice)
            network.register(bob)
            bob.go_offline()
            alice.send("bob:1", "ping")
            network.run_until_idle()
            assert bob.received == []
            assert network.metrics.dropped_messages == 1
            # The frame still crossed the socket; the *drop* is policy.
            assert network.transport.stats()["frames_sent"] == 1

    def test_close_is_idempotent_and_final(self):
        transport = AsyncioTransport()
        network = Network(transport=transport)
        network.register(Recorder("a:1"))
        network.register(Recorder("b:1"))
        network.node("a:1").send("b:1", "ping")
        network.run_until_idle()
        network.close()
        network.close()
        with pytest.raises(TransportError):
            network.node("a:1").send("b:1", "ping")
        with pytest.raises(TransportError):
            network.run_until_idle()

    def test_missing_frame_raises_instead_of_hanging(self):
        transport = AsyncioTransport(arrival_timeout_s=0.2)
        with Network(transport=transport) as network:
            alice, bob = Recorder("alice:1"), Recorder("bob:1")
            network.register(alice)
            network.register(bob)
            # A gated delivery whose frame was never shipped: the logical
            # event exists but no bytes ever reach bob's socket.
            message = Message("alice:1", "bob:1", "ghost")
            transport.simulator.schedule(1.0, _GatedDelivery(network, message))
            with pytest.raises(TransportError, match=r"did not arrive within 0\.2s"):
                network.run_until_idle()

    @pytest.mark.parametrize("senders", [150, 300])
    def test_a_burst_of_first_connects_never_waits_out_a_syn_retransmit(self, senders):
        # Every sender's first frame opens a connection to the one sink in the
        # same instant.  Were the listen backlog shorter than the burst, the
        # kernel would drop a SYN and that frame would arrive a one-second
        # retransmit later: past the watchdog, so the run would fail.
        transport = AsyncioTransport(arrival_timeout_s=0.5)
        # Under ``-X dev`` asyncio records a traceback for every callback,
        # which alone outlasts the watchdog at 300 connects; the socket and
        # resource-leak checks of dev mode stay on.
        transport._ensure_loop().set_debug(False)
        with Network(transport=transport) as network:
            sink = Recorder("sink:1")
            network.register(sink)
            for index in range(senders):
                network.register(Recorder(f"sender{index}:1"))
            for index in range(senders):
                network.node(f"sender{index}:1").send("sink:1", "hello", size_bytes=64)
            network.run_until_idle()
            assert len(sink.received) == senders
            assert transport.stats()["connections_opened"] == senders

    def test_inbox_limit_validation(self):
        from repro.errors import SimulationError

        with pytest.raises(SimulationError):
            AsyncioTransport(inbox_limit=0)


class TestLinks:
    """A link is the protocol of its own connection: no task while it idles,
    one send path, asyncio's own write backpressure, a loss that fails fast."""

    def test_an_idle_link_holds_no_task(self):
        transport = AsyncioTransport()
        with Network(transport=transport) as network:
            network.register(Recorder("hub:1", reply_to=True))
            spokes = [Recorder(f"spoke{n}:1") for n in range(4)]
            for spoke in spokes:
                network.register(spoke)
            for _ in range(3):
                for spoke in spokes:
                    spoke.send("hub:1", "ping")
                network.run_until_idle()
                assert not asyncio.all_tasks(transport._loop)
            stats = transport.stats()
            # Four links in, four back, each connected once and reused.
            assert stats["links_pooled"] == stats["connections_opened"] == 8
            assert stats["frames_received"] == 24

    def test_a_burst_that_pauses_writing_arrives_whole_and_in_order(self, monkeypatch):
        # Small kernel buffers on both ends, so the burst outgrows them and
        # asyncio's own write buffer whatever the host's TCP autotuning.
        def small_buffers(protocol, option):
            made = protocol.connection_made

            def connection_made(self, transport):
                transport.get_extra_info("socket").setsockopt(
                    socket.SOL_SOCKET, option, 65_536
                )
                made(self, transport)

            monkeypatch.setattr(protocol, "connection_made", connection_made)

        small_buffers(_Link, socket.SO_SNDBUF)
        small_buffers(_Receiver, socket.SO_RCVBUF)
        pauses = []
        pause_writing = _Link.pause_writing

        def counted(link):
            pauses.append(link.recipient)
            pause_writing(link)

        monkeypatch.setattr(_Link, "pause_writing", counted)
        transport = AsyncioTransport(inbox_limit=4)
        with Network(transport=transport) as network:
            source, sink = Recorder("source:1"), Recorder("sink:1")
            network.register(source)
            network.register(sink)
            for n in range(400):
                source.send("sink:1", "blob", f"{n:05d}" + "x" * 2_048, size_bytes=256)
            network.run_until_idle()
        assert pauses and set(pauses) == {"sink:1"}
        assert [message.payload[:5] for message in sink.received] == [
            f"{n:05d}" for n in range(400)
        ]

    def test_a_link_lost_mid_run_fails_the_wait_at_once_naming_the_link(self):
        transport = AsyncioTransport(arrival_timeout_s=2.0)
        with Network(transport=transport) as network:
            alice, bob = Recorder("alice:1"), Recorder("bob:1")
            network.register(alice)
            network.register(bob)
            alice.send("bob:1", "ping")
            network.run_until_idle()
            for connection in list(transport._inboxes["bob:1"].connections):
                connection.transport.abort()  # the receiving end goes away
            alice.send("bob:1", "ping")
            started = time.perf_counter()
            with pytest.raises(TransportError, match="link alice:1 -> bob:1 lost its connection"):
                network.run_until_idle()
            assert time.perf_counter() - started < 1.0

    def test_decoded_frames_share_their_short_strings(self):
        def decoded():
            payload = {"subscription": "sub-7", "document": "<d/>" * 40}
            message = Message("alice:1", "bob:1", "delta-chunk", payload={"meta": payload})
            return decode_frame(encode_frame(message)[HEADER.size:])

        codec._SHARED_TEXT.clear()  # room for both frames' strings, whatever ran before
        first, second = decoded(), decoded()
        assert first.sender is second.sender and first.kind is second.kind
        one, other = first.payload["meta"], second.payload["meta"]
        assert one["subscription"] is other["subscription"]
        assert next(iter(one)) is next(iter(other))  # dict keys too
        # A string over the cap is decoded afresh every time.
        assert one["document"] == other["document"]
        assert one["document"] is not other["document"]

    def test_the_shared_table_keeps_no_long_string_and_stays_bounded(self):
        long = "y" * (codec.SHARED_TEXT_CHARS + 1)
        assert codec.decode_value(codec.encode_value(long)) == long
        assert long not in codec._SHARED_TEXT
        at_cap = codec.encode_value("z" * codec.SHARED_TEXT_CHARS)
        assert codec.decode_value(at_cap) is codec.decode_value(at_cap)
        for n in range(codec.SHARED_TEXT_MEMORY + 10):
            codec.decode_value(codec.encode_value(f"transfer-{n}"))
            assert len(codec._SHARED_TEXT) <= codec.SHARED_TEXT_MEMORY


class _Socket(asyncio.Transport):
    """What a :class:`_Receiver` asks of its asyncio transport, recorded."""

    def __init__(self):
        super().__init__()
        self.reading, self.closed = True, False

    def pause_reading(self):
        self.reading = False

    def resume_reading(self):
        self.reading = True

    def close(self):
        self.closed = True


class TestInboxBackpressure:
    """The bounded-inbox semantics, exercised directly (no sockets): bytes
    are handed to the connection's protocol as a socket would hand them."""

    @pytest.fixture()
    def loop(self):
        loop = asyncio.new_event_loop()
        yield loop
        loop.close()

    @staticmethod
    def _connection(limit):
        """One inbound connection of ``b:1`` on a transport that never ran."""
        transport = AsyncioTransport(inbox_limit=limit)
        inbox = transport._inboxes["b:1"] = _Inbox(limit)
        connection = _Receiver(transport, "b:1")
        connection.connection_made(_Socket())
        return transport, inbox, connection

    def test_fills_then_blocks_then_drains(self):
        transport, inbox, connection = self._connection(limit=2)
        messages = [Message("a:1", "b:1", f"m{n}") for n in range(5)]
        frames = [encode_frame(message) for message in messages]
        # Two frames in one TCP segment both decode, and fill the inbox.
        connection.received(frames[0] + frames[1])
        assert inbox.high_water == 2 and sorted(inbox.stored) == [
            messages[0].message_id, messages[1].message_id
        ]
        # Full: the connection stops reading ...
        assert inbox.paused and not connection.transport.reading
        # ... and what the socket had already handed over stays unparsed.
        connection.received(frames[2] + frames[3] + frames[4][:7])
        assert len(inbox.stored) == 2 and transport.stats()["frames_received"] == 2
        # Consuming reopens the inbox: the backlog is parsed, in order, up to the bound.
        assert inbox.take(messages[0].message_id).kind == "m0"
        assert list(inbox.stored) == [messages[1].message_id, messages[2].message_id]
        assert inbox.paused and not connection.transport.reading
        assert inbox.take(messages[1].message_id).kind == "m1"
        assert inbox.take(messages[2].message_id).kind == "m2"
        assert list(inbox.stored) == [messages[3].message_id]
        # Drained below the bound: reading again, the split frame awaits its tail.
        assert not inbox.paused and connection.transport.reading
        connection.received(frames[4][7:])
        assert inbox.take(messages[4].message_id).kind == "m4"
        assert inbox.take(messages[4].message_id) is None
        assert transport.stats()["frames_received"] == 5 and not connection.buffer

    def test_demand_bypasses_the_bound(self, loop):
        async def scenario():
            transport, inbox, connection = self._connection(limit=1)
            parked = Message("a:1", "b:1", "big-early-frame")
            wanted = Message("c:1", "b:1", "logically-next")
            between = Message("a:1", "b:1", "in-between")
            connection.received(encode_frame(parked))  # inbox now full
            connection.received(encode_frame(between) + encode_frame(wanted))
            assert inbox.paused and list(inbox.stored) == [parked.message_id]
            # Demand reopens the inbox so the connection runs past the limit...
            future = inbox.demand(wanted.message_id, asyncio.get_running_loop())
            assert connection.transport.reading and len(inbox.stored) == 2
            # ...and the demanded frame resolves the future directly.
            assert (await future).kind == "logically-next"
            assert wanted.message_id not in inbox.stored
            # With the demand met the bound holds again: the next frame parks the reader.
            inbox.waiters.clear()
            connection.received(encode_frame(Message("a:1", "b:1", "later")))
            assert inbox.paused and not connection.transport.reading

        loop.run_until_complete(scenario())

    def test_a_connection_opened_on_a_full_inbox_starts_paused(self):
        _, inbox, first = self._connection(limit=1)
        first.received(encode_frame(Message("a:1", "b:1", "fills-it")))
        second = _Receiver(first.owner, "b:1")
        second.connection_made(_Socket())
        assert not second.transport.reading
        second.connection_lost(None)
        assert inbox.connections == {first}


class TestRefusedFrames:
    """A frame the receiver cannot take fails the run at once, in the
    decoder's words — not after ``arrival_timeout_s`` as a quiet socket."""

    @pytest.mark.parametrize("damage, reason", [
        (lambda frame: frame[:4] + b"\x02" + frame[5:], "unsupported wire version 2"),
        (lambda frame: b"\xff\xff\xff\xff" + frame[4:], "oversized frame"),
    ], ids=["undecodable-body", "oversized-length-prefix"])
    def test_a_refused_frame_fails_the_wait_at_once(self, damage, reason):
        class Damaging(FrameEncoder):
            def encode(self, message):
                return damage(super().encode(message))

        transport = AsyncioTransport(arrival_timeout_s=30)
        with Network(transport=transport) as network:
            alice, bob = Recorder("alice:1"), Recorder("bob:1")
            network.register(alice)
            network.register(bob)
            alice.send("bob:1", "ping")
            network.run_until_idle()  # the link is up: the bad frame takes the direct write
            transport._encoder = Damaging()
            alice.send("bob:1", "ping")
            started = time.perf_counter()
            with pytest.raises(TransportError, match=reason):
                network.run_until_idle()
            assert time.perf_counter() - started < 1.0
            with pytest.raises(TransportError, match=reason):
                network.run_until_idle()  # and again at once: the frame is still owed
            assert time.perf_counter() - started < 1.0


# --------------------------------------------------------------------------- #
# Scenario equivalence: same spec, same report, any backend
# --------------------------------------------------------------------------- #


EQUIVALENCE_SPECS = [
    ScaleoutSpec(name="eq-plain", topology="small-world", peers=16,
                 workload="garage-sale", churn="none", queries=3, seed=9),
    ScaleoutSpec(name="eq-churn", topology="scale-free", peers=30,
                 workload="garage-sale", churn="moderate", queries=4, seed=11),
    ScaleoutSpec(name="eq-heavy", topology="hierarchical", peers=24,
                 workload="garage-sale", churn="heavy", queries=4, seed=3),
    ScaleoutSpec(name="eq-gene", topology="hierarchical", peers=16,
                 workload="gene-expression", churn="light", queries=3, seed=5),
    ScaleoutSpec(name="eq-napster", topology="random", peers=12,
                 workload="garage-sale", churn="none", routing="napster", queries=2, seed=7),
]


class TestBackendEquivalence:
    @pytest.mark.parametrize("spec", EQUIVALENCE_SPECS, ids=lambda spec: spec.name)
    def test_reports_byte_identical(self, spec):
        sim_report = run_scaleout(spec, transport="sim")
        aio_report = run_scaleout(spec, transport="aio")
        assert to_json(sim_report) == to_json(aio_report)

    def test_aio_backend_is_deterministic(self):
        spec = EQUIVALENCE_SPECS[1]
        assert to_json(run_scaleout(spec, "aio")) == to_json(run_scaleout(spec, "aio"))

    def test_sim_backend_matches_seed_semantics(self):
        # The refactor must not have changed the default backend's output:
        # the default-transport run and an explicit SimTransport run agree.
        spec = EQUIVALENCE_SPECS[0]
        assert to_json(run_scaleout(spec)) == to_json(run_scaleout(spec, SimTransport()))

    def test_churn_recycles_connections_on_aio(self):
        transport = AsyncioTransport()
        spec = ScaleoutSpec(name="recycle", topology="scale-free", peers=30,
                            workload="garage-sale", churn="moderate", queries=2, seed=11)
        scenario = build_scaleout_scenario(spec, transport=transport)
        try:
            scenario.network.run_until_idle()
            stats = transport.stats()
            assert scenario.churn_plan is not None
            assert scenario.churn_plan.summary()["events"] > 0
            # Departures marked links for recycling; rejoin registrations
            # forced fresh connections through the pool.
            assert stats["links_recycled"] > 0
            assert stats["frames_sent"] == stats["frames_received"]
        finally:
            scenario.network.close()


class TestCLITransportAxis:
    def test_smoke_reports_identical_across_transports(self, tmp_path):
        spec_args = ["--scenario", "smoke", "--peers", "24", "--queries", "3"]
        sim_path = tmp_path / "sim.json"
        aio_path = tmp_path / "aio.json"
        assert main([*spec_args, "--transport", "sim", "--output", str(sim_path)]) == 0
        assert main([*spec_args, "--transport", "aio", "--output", str(aio_path)]) == 0
        assert sim_path.read_bytes() == aio_path.read_bytes()
        report = json.loads(sim_path.read_text())
        assert "transport" not in report["scenario"]  # a run axis, not a spec axis

    def test_transport_listed_in_options(self, capsys):
        assert main(["--list"]) == 0
        printed = capsys.readouterr().out
        assert "Transports:" in printed and "aio" in printed

    def test_smoke_preset_exists_for_ci(self):
        # CI's aio smoke step runs `repro --scenario smoke --transport aio`;
        # keep the preset present and fast.
        assert "smoke" in SCENARIOS
        assert SCENARIOS["smoke"].peers <= 100
