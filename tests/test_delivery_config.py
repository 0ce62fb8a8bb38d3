"""Reliable delivery is cluster configuration, not a process-wide switch.

``Cluster(reliable=...)`` hands the choice to its ``Network``; every peer on
that fabric reads it through its node, and nothing else in the process can
change it.  These tests pin where the setting lives and that two clusters in
one process never see each other's choice.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from recording_node import RecordingNode
from repro.api import Cluster
from repro.errors import SimulationError
from repro.harness.scaleout import ScaleoutSpec, build_scaleout_scenario, run_scaleout
from repro.network import FaultPlan, Network, NetworkNode
from repro.peers.transfers import Transfers
from tests.test_api import portland_area, small_cluster

TRANSPORTS = ("sim", "aio")
DELIVERY = pytest.mark.parametrize("reliable", [False, True], ids=["fire-and-forget", "reliable"])


def _ask(cluster):
    """Submit the three-CD Portland query; the handle, not yet run."""
    return (
        cluster.session("client:9020").query()
        .area(portland_area(cluster))
        .where("price < 20")
        .expecting(3)
        .submit()
    )


def _titles(handle) -> list[str]:
    return sorted(item.child_text("title") for item in handle.result(timeout=240_000).items)


def _unsettled(cluster) -> int:
    """Transfers still waiting for an ack, over every peer."""
    return sum(len(session.peer.transfers.pending) for session in cluster.sessions())


class TestWhereTheSettingLives:
    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_fire_and_forget_is_the_default(self, transport):
        with small_cluster(transport) as cluster:
            assert cluster.network.reliable is False
            assert not any(session.peer.reliable for session in cluster.sessions())

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_reliable_reaches_every_peer_through_its_network(self, transport):
        with small_cluster(transport, reliable=True) as cluster:
            assert cluster.network.reliable is True
            assert all(session.peer.reliable for session in cluster.sessions())

    def test_a_node_on_no_network_is_fire_and_forget(self):
        assert NetworkNode("loose:9020").reliable is False

    def test_the_network_keeps_it_beside_its_faults(self):
        plan = FaultPlan(seed=3, loss=0.2)
        network = Network(faults=plan, reliable=True)
        assert network.reliable is True and network.faults is plan
        assert Network(faults=plan).reliable is False

    @DELIVERY
    def test_transfers_follow_their_port(self, reliable):
        node = RecordingNode(reliable=reliable)
        transfers = Transfers(node)
        sent = transfers.send("them:9020", "mqp", "<plan/>", 64, "q")
        if reliable:
            assert sent.transfer == "me:9020#1" and len(node.timers) == 1
            assert list(transfers.pending) == ["me:9020#1"]
        else:
            assert sent.transfer is None and node.timers == [] and not transfers.pending

    def test_a_cluster_hands_both_to_its_network(self):
        plan = FaultPlan(seed=3, loss=0.2)
        with Cluster(faults=plan, reliable=True) as cluster:
            assert cluster.network.reliable is True and cluster.network.faults is plan


class TestOnTheWire:
    @pytest.mark.parametrize("transport", TRANSPORTS)
    @DELIVERY
    def test_acks_flow_only_on_a_reliable_cluster(self, transport, reliable):
        with small_cluster(transport, reliable=reliable) as cluster:
            handle = _ask(cluster)
            assert _titles(handle) == ["Abbey Road", "Blue Train", "Kind of Blue"]
            cluster.run_until_idle()
            acks = cluster.metrics.messages_by_kind["delivery-ack"]
            assert (acks > 0) is reliable
            assert _unsettled(cluster) == 0

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_two_clusters_in_one_process_keep_their_own_setting(self, transport):
        with small_cluster(transport, reliable=True) as acked, small_cluster(transport) as plain:
            handles = [_ask(acked), _ask(plain)]
            assert _titles(handles[0]) == _titles(handles[1])
            acked.run_until_idle()
            plain.run_until_idle()
            assert acked.metrics.messages_by_kind["delivery-ack"] > 0
            assert plain.metrics.messages_by_kind["delivery-ack"] == 0
            assert all(session.peer.reliable for session in acked.sessions())
            assert not any(session.peer.reliable for session in plain.sessions())

    def test_a_closed_reliable_cluster_leaves_nothing_behind(self):
        with small_cluster("sim", reliable=True) as cluster:
            _titles(_ask(cluster))
        with small_cluster("sim") as cluster:
            _titles(_ask(cluster))
            cluster.run_until_idle()
            assert cluster.metrics.messages_by_kind["delivery-ack"] == 0


class TestTheSpecDecides:
    SPEC = ScaleoutSpec(name="config", topology="small-world", peers=20,
                        workload="garage-sale", queries=3, seed=5)

    @DELIVERY
    def test_the_scenario_network_takes_the_specs_setting(self, reliable):
        spec = replace(self.SPEC, reliable=reliable)
        scenario = build_scaleout_scenario(spec)
        with scenario.cluster:
            assert scenario.network.reliable is reliable

    @DELIVERY
    def test_the_report_says_what_the_spec_chose(self, reliable):
        spec = replace(self.SPEC, reliable=reliable)
        report = run_scaleout(spec)
        if reliable:
            assert report["resilience"]["reliable"] is True
            assert report["resilience"]["acks_sent"] > 0
        else:
            assert "resilience" not in report  # fault-free fire-and-forget: elided

    def test_a_baseline_cannot_be_made_reliable(self):
        spec = replace(self.SPEC, routing="gnutella", reliable=True)
        with pytest.raises(SimulationError, match="fire-and-forget"):
            spec.validate()
