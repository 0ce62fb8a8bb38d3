"""Tests for the discrete-event simulator and the network fabric."""

import pytest

from repro.errors import SimulationError
from repro.network import (
    FailureInjector,
    LatencyModel,
    Message,
    Network,
    NetworkNode,
    Simulator,
    random_topology,
    small_world_topology,
    star_topology,
)


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


class TestSimulator:
    def test_events_run_in_time_order(self):
        simulator = Simulator()
        order = []
        simulator.schedule(30, lambda: order.append("c"))
        simulator.schedule(10, lambda: order.append("a"))
        simulator.schedule(20, lambda: order.append("b"))
        simulator.run_until_idle()
        assert order == ["a", "b", "c"]
        assert simulator.now == pytest.approx(30)
        assert simulator.processed_events == 3

    def test_same_time_events_run_in_schedule_order(self):
        simulator = Simulator()
        order = []
        simulator.schedule(5, lambda: order.append(1))
        simulator.schedule(5, lambda: order.append(2))
        simulator.run_until_idle()
        assert order == [1, 2]

    def test_run_until_bound(self):
        simulator = Simulator()
        fired = []
        simulator.schedule(10, lambda: fired.append(1))
        simulator.schedule(50, lambda: fired.append(2))
        simulator.run(until=20)
        assert fired == [1]
        assert simulator.now == pytest.approx(20)
        simulator.run_until_idle()
        assert fired == [1, 2]

    def test_cancelled_event_skipped(self):
        simulator = Simulator()
        fired = []
        event = simulator.schedule(5, lambda: fired.append(1))
        event.cancel()
        simulator.run_until_idle()
        assert fired == []

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-1, lambda: None)

    def test_event_storm_guard(self):
        simulator = Simulator()

        def reschedule():
            simulator.schedule(1, reschedule)

        simulator.schedule(1, reschedule)
        with pytest.raises(SimulationError):
            simulator.run(max_events=100)


class TestLatencyModel:
    def test_stable_per_link_latency(self):
        model = LatencyModel(seed=3)
        first = model.propagation_delay("a", "b")
        assert model.propagation_delay("a", "b") == first
        assert model.propagation_delay("a", "a") == model.local_latency_ms
        assert LatencyModel(seed=4).propagation_delay("a", "b") != first  # the seed is the jitter

    def test_transfer_time_scales_with_size(self):
        model = LatencyModel(bandwidth_bytes_per_ms=100)
        assert model.transfer_time(1000) == pytest.approx(10)
        assert model.delivery_delay("a", "b", 1000) > model.propagation_delay("a", "b")


class TestNetwork:
    def test_message_delivery_and_metrics(self):
        network = Network()
        alice, bob = Recorder("alice:1"), Recorder("bob:1", reply_to=True)
        network.register(alice)
        network.register(bob)
        alice.send("bob:1", "ping", size_bytes=100)
        network.run_until_idle()
        assert len(bob.received) == 1
        assert len(alice.received) == 1  # the pong
        assert network.metrics.messages_sent == 2
        assert network.metrics.bytes_sent == 164
        assert network.metrics.messages_by_kind["ping"] == 1

    def test_duplicate_address_rejected(self):
        network = Network()
        network.register(Recorder("a:1"))
        with pytest.raises(SimulationError):
            network.register(Recorder("a:1"))

    def test_unknown_recipient_dropped(self):
        network = Network()
        alice = Recorder("alice:1")
        network.register(alice)
        alice.send("ghost:1", "ping")
        network.run_until_idle()
        assert network.metrics.dropped_messages == 1

    def test_offline_node_drops_messages(self):
        network = Network()
        alice, bob = Recorder("alice:1"), Recorder("bob:1")
        network.register(alice)
        network.register(bob)
        bob.go_offline()
        alice.send("bob:1", "ping")
        network.run_until_idle()
        assert bob.received == []
        assert network.metrics.dropped_messages == 1

    def test_detached_node_cannot_send(self):
        with pytest.raises(SimulationError):
            Recorder("lonely:1").send("x:1", "ping")

    def test_trace_metrics(self):
        network = Network()
        trace = network.metrics.trace("q1")
        trace.issued_at = 0.0
        trace.completed_at = 120.0
        trace.expected_answers = 4
        trace.answers = 2
        trace.visited.extend(["a:1", "b:1", "a:1"])
        assert trace.latency_ms == pytest.approx(120.0)
        assert trace.distinct_peers == 2
        assert trace.recall == pytest.approx(0.5)
        summary = network.metrics.summary()
        assert summary["queries"] == 1
        assert summary["mean_recall"] == pytest.approx(0.5)


class TestTopologies:
    def test_random_topology_connected(self):
        addresses = [f"p{i}:1" for i in range(20)]
        topology = random_topology(addresses, degree=4, seed=2)
        assert topology.is_connected()
        assert set(topology.addresses) == set(addresses)
        assert topology.degree(addresses[0]) >= 1

    def test_small_world_topology(self):
        addresses = [f"p{i}:1" for i in range(16)]
        topology = small_world_topology(addresses, neighbors=4, seed=2)
        assert topology.is_connected()
        assert topology.average_degree() >= 2

    def test_star_topology(self):
        topology = star_topology("hub:1", ["a:1", "b:1", "c:1"])
        assert topology.degree("hub:1") == 3
        assert topology.neighbors("a:1") == ["hub:1"]

    def test_unknown_address_raises(self):
        topology = star_topology("hub:1", ["a:1"])
        with pytest.raises(SimulationError):
            topology.neighbors("ghost:1")

    def test_tiny_topologies(self):
        assert random_topology(["only:1"]).addresses == ["only:1"]
        assert random_topology([]).addresses == []


class TestFailureInjection:
    def test_scheduled_failure_and_recovery(self):
        network = Network()
        node = Recorder("a:1")
        network.register(node)
        injector = FailureInjector(network)
        injector.schedule("a:1", fail_at=10, recover_at=20)
        network.run(until=15)
        assert not node.online
        network.run(until=25)
        assert node.online

    def test_recovery_must_follow_failure(self):
        network = Network()
        network.register(Recorder("a:1"))
        with pytest.raises(ValueError):
            FailureInjector(network).schedule("a:1", fail_at=10, recover_at=5)

    def test_random_failures_deterministic(self):
        network = Network()
        addresses = [f"p{i}:1" for i in range(10)]
        for address in addresses:
            network.register(Recorder(address))
        injector = FailureInjector(network)
        events = injector.schedule_random(addresses, 0.3, (0, 100), seed=5)
        assert len(events) == 3
        assert injector.failed_addresses() == sorted(event.address for event in events)
