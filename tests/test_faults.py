"""Self-healing delivery: fault injection, ack/retry forwarding, degradation.

Covers the resilience contract ``docs/resilience.md`` documents:

* :class:`repro.network.faults.FaultPlan` decisions are pure functions of
  (seed, link, ordinal) — deterministic across injectors and processes;
* scenario reports stay byte-equivalent across the ``sim`` and ``aio``
  backends *under active faults* (loss, duplication, partition-heal);
* with every knob at its default, reports keep the pre-resilience schema
  byte-for-byte (no new keys, no elided-field drift);
* the reliable-delivery protocol (``Cluster(reliable=True)``) acks,
  retransmits with backoff, dedupes at the receiver, and degrades —
  reroute / teardown / dead-letter — when the retry budget is exhausted;
* at 10% seeded link loss the protocol keeps a grid's completeness at
  >= 0.9, where fire-and-forget loses a quarter of its answers;
* ``QueryHandle.result(deadline=...)`` returns a :class:`DegradedResult`
  instead of raising :class:`QueryTimeout`;
* the ``peer-unreachable`` notice is a guarded no-op once the transport
  has closed, and the dead-letter buffer is capped with exact accounting.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace
from itertools import product

import pytest

from repro.api import Cluster, DegradedResult
from repro.errors import SimulationError
from repro.experiments import Experiment, ExperimentSpec
from repro.harness import scaleout
from repro.harness.report import scenario_report, to_json
from repro.harness.scaleout import ScaleoutSpec, run_scaleout
from repro.mqp import RetryPolicy
from repro.namespace import garage_sale_namespace
from repro.network import (
    FaultInjector,
    FaultPlan,
    Message,
    Network,
    stable_unit,
)
from repro.peers import QueryPeer
from repro.peers.forwarding import PlanForwarding
from repro.peers.gather import ResultGather
from repro.xmlmodel import serialize_xml
from tests.conftest import make_item
from tests.test_api import small_cluster


def _message(sender="a:9020", recipient="b:9020", kind="mqp", **kwargs) -> Message:
    return Message(sender=sender, recipient=recipient, kind=kind, payload="x", **kwargs)


# --------------------------------------------------------------------------- #
# The fault plan: deterministic draws, validation, outcomes
# --------------------------------------------------------------------------- #


class TestFaultPlan:
    def test_stable_unit_is_deterministic_and_in_range(self):
        draws = [stable_unit(7, "loss", "a", "b", n) for n in range(64)]
        assert draws == [stable_unit(7, "loss", "a", "b", n) for n in range(64)]
        assert all(0.0 <= draw < 1.0 for draw in draws)
        # Distinct keys give distinct draws (no accidental aliasing between
        # e.g. ("ab", "c") and ("a", "bc")).
        assert stable_unit("ab", "c") != stable_unit("a", "bc")

    def test_none_plan_is_inactive(self):
        assert not FaultPlan.none().active
        assert FaultPlan(loss=0.1).active
        assert FaultPlan(partition=(10.0, 20.0)).active

    def test_validate_rejects_bad_values(self):
        with pytest.raises(SimulationError):
            FaultPlan(loss=1.0).validate()
        with pytest.raises(SimulationError):
            FaultPlan(duplicate=-0.1).validate()
        with pytest.raises(SimulationError):
            FaultPlan(delay_ms=-1.0).validate()
        with pytest.raises(SimulationError):
            FaultPlan(partition=(20.0, 10.0)).validate()
        FaultPlan(loss=0.5, partition=(0.0, 10.0)).validate()  # fine

    def test_injectors_replay_the_same_decisions(self):
        plan = FaultPlan(seed=3, loss=0.3, duplicate=0.2, delay=0.2, reorder=0.2)
        first = FaultInjector(plan)
        second = FaultInjector(plan)
        for ordinal in range(50):
            message = _message()
            assert first.intercept(message, 5.0, 0.0) == second.intercept(
                message, 5.0, 0.0
            )

    def test_loss_draws_vary_with_the_ordinal(self):
        injector = FaultInjector(FaultPlan(seed=1, loss=0.5))
        outcomes = [injector.intercept(_message(), 5.0, 0.0).lost for _ in range(40)]
        assert any(outcomes) and not all(outcomes)

    def test_duplicate_yields_two_delays(self):
        injector = FaultInjector(FaultPlan(seed=1, duplicate=0.999))
        outcome = injector.intercept(_message(), 7.0, 0.0)
        assert outcome.duplicated and outcome.delays == (7.0, 7.0)

    def test_partition_drops_only_crossing_traffic_during_the_window(self):
        plan = FaultPlan(seed=2, partition=(100.0, 200.0))
        sides = {addr: plan.side_of(addr) for addr in (f"p{i}:9020" for i in range(8))}
        crossing = [a for a in sides if sides[a] != sides["p0:9020"]]
        same = [a for a in sides if sides[a] == sides["p0:9020"] and a != "p0:9020"]
        assert crossing and same  # the hash splits a small population too
        injector = FaultInjector(plan)
        cut = injector.intercept(_message("p0:9020", crossing[0]), 5.0, 150.0)
        assert cut.partitioned and cut.lost and cut.delays == ()
        kept = injector.intercept(_message("p0:9020", same[0]), 5.0, 150.0)
        assert not kept.lost
        healed = injector.intercept(_message("p0:9020", crossing[0]), 5.0, 250.0)
        assert not healed.lost  # the partition healed at end


# --------------------------------------------------------------------------- #
# Backend equivalence under active faults — and flag-off byte-identity
# --------------------------------------------------------------------------- #


FAULT_SPECS = [
    ScaleoutSpec(name="faults-loss", topology="small-world", peers=24,
                 workload="garage-sale", churn="none", queries=6, seed=9,
                 fault_loss=0.25, reliable=True),
    ScaleoutSpec(name="faults-dup", topology="small-world", peers=24,
                 workload="garage-sale", churn="none", queries=3, seed=9,
                 fault_duplicate=0.20, reliable=True),
    ScaleoutSpec(name="faults-partition", topology="scale-free", peers=30,
                 workload="garage-sale", churn="none", queries=4, seed=11,
                 fault_partition=(100.0, 900.0), reliable=True),
]

PRE_RESILIENCE_SCENARIO_KEYS = {
    "name", "topology", "peers", "workload", "churn", "routing", "queries",
    "seed", "churn_window_ms", "query_interval_ms",
    "prefer", "max_hops",
}


class TestFaultEquivalence:
    @pytest.mark.parametrize("spec", FAULT_SPECS, ids=lambda spec: spec.name)
    def test_reports_byte_identical_across_backends(self, spec):
        sim_report = run_scaleout(spec, transport="sim")
        aio_report = run_scaleout(spec, transport="aio")
        assert to_json(sim_report) == to_json(aio_report)
        assert sim_report["resilience"]["reliable"] is True

    def test_recovery_under_loss(self):
        report = run_scaleout(FAULT_SPECS[0])
        resilience = report["resilience"]
        assert resilience["faults"]["lost"] > 0
        assert resilience["retries_sent"] > 0
        assert report["traffic"]["mean_recall"] == 1.0

    def test_a_partition_longer_than_a_learned_timers_doublings_fails_no_transfer(self):
        """``partition-heal`` cuts the network for 1.6 s; a 50 ms RTO spends
        ``budget`` doublings in 1.55 s.  The give-up horizon is time, so a
        sender that knows its peer to be close waits the cut out all the same."""
        from repro.harness.cli import SCENARIOS

        report = run_scaleout(SCENARIOS["partition-heal"])
        assert report["resilience"]["faults"]["partitioned"] > 0
        assert report["resilience"]["transfers_failed"] == 0
        assert [row["recall"] for row in report["queries"]] == [1.0] * 12

    def test_duplicates_are_deduped_not_double_counted(self):
        report = run_scaleout(FAULT_SPECS[1])
        resilience = report["resilience"]
        assert resilience["faults"]["duplicated"] > 0
        assert resilience["duplicates_dropped"] > 0
        for row in report["queries"]:
            assert row["recall"] is None or row["recall"] <= 1.0

    def test_flags_off_report_keeps_the_pre_resilience_schema(self):
        spec = ScaleoutSpec(name="baseline", topology="small-world", peers=20,
                            workload="garage-sale", churn="none", queries=3, seed=9)
        report = run_scaleout(spec)
        assert set(report) == {
            "scenario", "population", "topology", "churn", "traffic", "queries",
            "processing",
        }
        assert set(report["scenario"]) == PRE_RESILIENCE_SCENARIO_KEYS
        # The explicit fault-free plan and the implicit default are the same
        # run, byte for byte — the elision convention at work.
        explicit = ScaleoutSpec(name="baseline", topology="small-world", peers=20,
                                workload="garage-sale", churn="none", queries=3,
                                seed=9, fault_loss=0.0, reliable=False)
        assert to_json(run_scaleout(explicit)) == to_json(report)
        assert "failures" not in to_json(report)

    def test_delivery_is_fire_and_forget_by_default(self):
        with Cluster() as cluster:
            assert cluster.network.reliable is False
        assert FaultPlan.none() == ScaleoutSpec().fault_plan().__class__.none()


class TestCompletenessUnderLoss:
    def test_retries_recover_what_fire_and_forget_loses(self):
        """The same grid at 10% link loss, ack/retry on and off: retries
        bring completeness back to >= 0.9, and the loss costs the
        unprotected cell at least a quarter of its answers (else the
        injection stopped biting and on == off)."""
        cells = [
            ScaleoutSpec(name=f"loss-retries-{mode}", topology="small-world", peers=100,
                         workload="garage-sale", churn="none", queries=6,
                         fault_loss=0.10, reliable=(mode == "on"))
            for mode in ("on", "off")
        ]
        spec = ExperimentSpec(name="resilience", scenarios=tuple(cells), seeds=(11,),
                              repeats=2, baseline="loss-retries-on")
        result = Experiment(spec).run()
        assert len(result.rows) == spec.runs
        on = result.cell("loss-retries-on")["completeness"]["proportion"]
        off_cell = result.cell("loss-retries-off")
        off = off_cell["completeness"]["proportion"]
        assert on >= 0.90
        assert 1.0 - off >= 0.25
        assert on > off
        assert 0.0 <= off_cell["vs_baseline"]["p_value"] <= 1.0


# --------------------------------------------------------------------------- #
# Scatter/gather under fire: the seeded sweep over delivery and loss
# --------------------------------------------------------------------------- #


SWEEP_BASE = ScaleoutSpec(name="sweep", topology="small-world", peers=60,
                          workload="gene-expression", churn="none", queries=4, seed=9)
SWEEP_CELLS = list(product((False, True), (0.0, 0.10)))


def _run_sweep_cell(spec: ScaleoutSpec, transport: str):
    """One run with a holder crashed before the first query; invariants checked at idle."""
    offers: list[tuple[str, tuple, bool, bool]] = []
    offer = ResultGather.offer

    def spy(self, query_id, piece, now=0.0):
        outcome = offer(self, query_id, piece, now)
        offers.append((query_id, piece.branch, piece.partial, outcome is not None))
        return outcome

    ResultGather.offer = spy
    try:
        scenario = scaleout.build_scaleout_scenario(spec, transport=transport)
        with scenario.cluster as cluster:
            wanted = max(scenario.queries, key=lambda query: query.expected).area
            victim = next(
                peer.address for peer in scenario.data_peers
                if peer.items and peer.area.overlaps(wanted)
            )
            scenario.network.node(victim).go_offline()
            query_ids = scaleout.schedule_queries(scenario)
            cluster.run_until_idle()
            report = scenario_report(scenario, query_ids)
            _assert_settled(scenario, spec, query_ids, offers)
    finally:
        ResultGather.offer = offer
    return report


def _assert_settled(scenario, spec, query_ids, offers) -> None:
    network = scenario.network
    population = Counter(
        serialize_xml(item) for peer in scenario.data_peers for item in peer.items
    )
    # answers ⊆ expected: real items, none twice, never more than the truth.
    client = scenario.client
    for position, query_id in enumerate(query_ids):
        recorded = client.results.get(query_id)
        if recorded is None:
            continue
        answers = Counter(serialize_xml(item) for item in recorded.items)
        assert not answers - population, f"{query_id}: an item nobody published (or twice)"
        assert recorded.count <= scenario.queries[position].expected
        assert recorded.partial == (recorded.reason is not None or query_id in client.gather)
    # Each branch path is counted once: one complete piece at most, a
    # partial one only before it, everything else refused by the gather.
    kept = Counter((query, path, partial) for query, path, partial, taken in offers if taken)
    assert all(count == 1 for count in kept.values())
    # Nothing is left running or waiting.
    assert network.simulator.peek() is None
    for node in network.nodes():
        if not isinstance(node, QueryPeer):
            continue
        # Each component is asked what it still owes.
        assert not node.transfers.pending
        if spec.reliable or spec.fault_loss == 0.0:
            # Every piece came home (a bounced one as an "unreachable" partial).
            assert node.gather.pending() == []
        else:
            # Fire-and-forget under loss: a lost piece never returns its
            # credit, so the query's table waits — bounded by its cap.
            assert len(node.gather) <= spec.queries


class TestScatterGatherSweep:
    @pytest.mark.parametrize("reliable,loss", SWEEP_CELLS)
    def test_invariants_hold_and_backends_agree(self, reliable, loss):
        spec = replace(SWEEP_BASE, reliable=reliable, fault_loss=loss)
        sim_report = _run_sweep_cell(spec, "sim")
        aio_report = _run_sweep_cell(spec, "aio")
        assert to_json(sim_report) == to_json(aio_report)
        rows = sim_report["queries"]
        assert all(row["answers"] <= row["expected"] for row in rows)
        if loss == 0.0:
            # Only the crashed holder's branch is missing, and it says why.
            short = [row for row in rows if row["answers"] < row["expected"]]
            assert short and len(short) < len(rows)


# --------------------------------------------------------------------------- #
# The reliable-delivery protocol: acks, retries, dedupe, failure handling
# --------------------------------------------------------------------------- #


def _result_envelope(query_id: str) -> dict:
    return {
        "document": f'<result query-id="{query_id}"/>',
        "query_id": query_id,
        "partial": False,
        "hops": 1,
        "staleness": 0.0,
    }


class TestReliableDelivery:
    def test_acks_clear_the_retransmit_queue(self):
        with small_cluster(reliable=True) as cluster:
            handle = (
                cluster.session("client:9020")
                .query()
                .area(cluster.namespace.area(["USA/OR/Portland", "Music/CDs"]))
                .where("price < 100")
                .submit()
            )
            result = handle.result(timeout=60_000)
            assert result.count == 3
            cluster.run_until_idle()
            for peer in cluster.peers():
                assert peer.transfers.pending == {}
            assert sum(peer.acks_sent for peer in cluster.peers()) > 0
            assert sum(peer.retries_sent for peer in cluster.peers()) == 0

    def test_exhausted_budget_dead_letters_results(self):
        namespace = garage_sale_namespace()
        with Cluster("sim", namespace=namespace, notify_unreachable=False,
                     reliable=True) as cluster:
            area = namespace.area(["USA/OR/Portland", "Music/CDs"])
            sender = cluster.base_server("sender:9020", area).peer
            receiver = cluster.base_server("receiver:9020", area).peer
            receiver.go_offline()
            sender.transfers.send(
                receiver.address, "result", _result_envelope("q-dead"), 64, "q-dead"
            )
            cluster.run_until_idle()
            assert sender.transfers.transfers_failed == 1
            assert sender.retries_sent == sender.transfers.retry_policy.budget
            assert receiver.address in sender.suspected_dead
            assert len(sender.dead_letters) == 1
            assert sender.dead_letters[-1].kind == "result"
            [record] = sender.delivery_failures["q-dead"]
            assert record["peer"] == receiver.address
            assert record["attempts"] == sender.transfers.retry_policy.budget + 1
            assert cluster.network.metrics.dead_letters_by_kind["result"] == 1

    def test_cancel_stops_pending_retransmissions(self):
        namespace = garage_sale_namespace()
        with Cluster("sim", namespace=namespace, notify_unreachable=False,
                     reliable=True) as cluster:
            area = namespace.area(["USA/OR/Portland", "Music/CDs"])
            sender = cluster.base_server("sender:9020", area).peer
            receiver = cluster.base_server("receiver:9020", area).peer
            receiver.go_offline()
            sender.transfers.send(
                receiver.address, "result", _result_envelope("q-x"), 64, "q-x"
            )
            sender.cancel_query("q-x")
            assert sender.transfers.pending == {}
            cluster.run_until_idle()
            assert sender.transfers.transfers_failed == 0
            assert sender.retries_sent == 0

    def test_a_piece_lost_with_its_crashed_holder_is_sent_again_on_rejoin(self):
        """The window an ack leaves open: the holder accepted its piece (so the
        scatterer was released), answered, and crashed with the result frame
        lost.  The scatterer kept the piece and sends it again the moment the
        holder registers back; what had come home is not counted twice."""
        with small_cluster(reliable=True) as cluster:
            seller2 = cluster.session("seller2:9020")
            client = cluster.session("client:9020")
            send = seller2.peer.send

            def lossy(recipient, kind, payload=None, **kwargs):
                if recipient == client.address and kind == "result":
                    seller2.crash()  # before any retransmission timer fires
                    return _message(seller2.address, recipient, kind)  # lost on the link
                return send(recipient, kind, payload, **kwargs)

            seller2.peer.send = lossy
            handle = (
                client.query().area(cluster.namespace.area(["USA/OR/Portland", "Music/CDs"]))
                .where("price < 20")
                .expecting(3).submit()
            )
            short = handle.result(timeout=600_000)
            assert short.partial and short.reason is None and short.count == 2
            seller2.peer.send = send
            seller2.rejoin()
            result = handle.result(timeout=600_000)
            assert not result.partial and result.count == 3
            assert sorted(item.child_text("title") for item in result.items) == [
                "Abbey Road", "Blue Train", "Kind of Blue",
            ]
            cluster.run_until_idle()
            assert client.peer.gather.dropped == 0 and len(client.peer.gather) == 0
            # A second rejoin sends the pieces once more; the answered query ignores them.
            seller2.crash()
            seller2.rejoin()
            cluster.run_until_idle()
            assert client.peer.results[handle.query_id] is result and result.count == 3
            for peer in cluster.peers():
                assert peer.transfers.pending == {}

    @pytest.mark.parametrize("transport", ["sim", "aio"])
    def test_a_slim_piece_outlives_its_holder_going_offline_after_the_scatter(
        self, transport, monkeypatch
    ):
        """A leaf piece travels without the original: the bounce is rerouted
        from its text alone, and the same text is sent again on rejoin."""
        with small_cluster(transport, reliable=True) as cluster:
            seller2 = cluster.session("seller2:9020")
            client = cluster.session("client:9020")
            index = cluster.session("index-or:9020").peer
            act_on = PlanForwarding._act_on

            def crash_after_scatter(forwarding, result):
                act_on(forwarding, result)
                if len(result.pieces) > 1:
                    seller2.crash()  # its piece is on the wire

            monkeypatch.setattr(PlanForwarding, "_act_on", crash_after_scatter)
            handle = (
                client.query().area(cluster.namespace.area(["USA/OR/Portland", "Music/CDs"]))
                .where("price < 20").expecting(3).submit()
            )
            short = handle.result(timeout=600_000)
            assert short.partial and short.reason == "unreachable" and short.count == 2
            assert index.forwarding.plans_rerouted == 1
            [piece] = index.forwarding.custody[handle.query_id][seller2.address]
            assert "<original>" not in piece
            seller2.rejoin()
            result = handle.result(timeout=600_000)
            assert not result.partial and result.reason is None and result.count == 3
            cluster.run_until_idle()
            assert len(client.peer.gather) == 0

    def test_an_unreachable_holders_partial_is_superseded_when_it_comes_back(self):
        with small_cluster(reliable=True) as cluster:
            seller2 = cluster.session("seller2:9020")
            client = cluster.session("client:9020")
            seller2.crash()
            handle = (
                client.query().area(cluster.namespace.area(["USA/OR/Portland", "Music/CDs"]))
                .where("price < 20").expecting(3).submit()
            )
            short = handle.result(timeout=600_000)
            assert short.partial and short.reason == "unreachable" and short.count == 2
            seller2.rejoin()  # registers back: the index sends its piece again
            result = handle.result(timeout=600_000)
            assert not result.partial and result.reason is None and result.count == 3
            cluster.run_until_idle()
            assert len(client.peer.gather) == 0

    def test_receiver_dedupes_and_reacks_every_attempt(self):
        with small_cluster(reliable=True) as cluster:
            seller = cluster.session("seller1:9020").peer
            client = cluster.session("client:9020").peer
            seller.transfers.send(
                client.address, "result", _result_envelope("q-dup"), 64, "q-dup"
            )
            transfer = next(iter(seller.transfers.pending))
            # Replay the same transfer as a retransmission would.
            seller.send(
                client.address, "result", _result_envelope("q-dup"),
                size_bytes=64, transfer=transfer, attempt=1,
            )
            cluster.run_until_idle()
            assert client.duplicates_dropped == 1
            assert client.acks_sent == 2  # every attempt is acknowledged
            assert seller.transfers.pending == {}

    def test_retry_policy_backoff_is_monotone_and_jittered(self):
        policy = RetryPolicy()
        delays = [policy.delay_for("t#1", attempt) for attempt in range(policy.budget)]
        assert delays == sorted(delays)
        assert delays != [policy.delay_for("t#2", attempt) for attempt in range(policy.budget)]
        # A measured RTO shortens a wait, jitter and all; a longer one changes nothing.
        assert policy.delay_for("t#1", 0, rto=policy.timeout_ms / 4) == pytest.approx(delays[0] / 4)
        assert policy.delay_for("t#1", 0, rto=10 * policy.timeout_ms) == delays[0]
        # The horizon is what the unlearned schedule spans: 160 * (1 + 2 + 4 + 8 + 16).
        assert policy.horizon_ms == policy.timeout_ms * 31 == 4960.0
        assert list(vars(policy)) == ["timeout_ms", "backoff", "jitter_ms", "budget"]

    def test_fire_and_forget_sends_no_protocol_traffic(self):
        with small_cluster() as cluster:
            handle = (
                cluster.session("client:9020")
                .query()
                .area(cluster.namespace.area(["USA/OR/Portland", "Music/CDs"]))
                .where("price < 100")
                .submit()
            )
            handle.result(timeout=60_000)
            cluster.run_until_idle()
            for peer in cluster.peers():
                assert peer.acks_sent == 0
                assert peer.transfers.pending == {}
                assert peer.transfers.seen == {}


# --------------------------------------------------------------------------- #
# Graceful degradation: result(deadline=...) and DegradedResult
# --------------------------------------------------------------------------- #


class TestDegradedResults:
    def test_deadline_returns_degraded_result_instead_of_raising(self):
        with small_cluster() as cluster:
            handle = (
                cluster.session("client:9020")
                .query()
                .area(cluster.namespace.area(["USA/OR/Portland", "Music/CDs"]))
                .where("price < 100")
                .expecting(3)
                .submit()
            )
            degraded = handle.result(deadline=0.05)  # far below one-hop latency
            assert isinstance(degraded, DegradedResult)
            assert degraded.partial and degraded.reason == "deadline"
            assert degraded.completeness == 0.0
            assert degraded.failures == []
            # The deadline cancelled the upstream work: the query is dead at
            # the issuer and the network drains without delivering it.
            client = cluster.session("client:9020").peer
            assert handle.query_id in client.cancelled_queries
            cluster.run_until_idle()
            assert client.results.get(handle.query_id) is None

    def test_complete_answer_before_deadline_is_returned_untouched(self):
        with small_cluster() as cluster:
            handle = (
                cluster.session("client:9020")
                .query()
                .area(cluster.namespace.area(["USA/OR/Portland", "Music/CDs"]))
                .where("price < 100")
                .submit()
            )
            result = handle.result(deadline=60_000)
            assert not isinstance(result, DegradedResult)
            assert result.count == 3 and not result.partial

    def test_deadline_and_timeout_are_mutually_exclusive(self):
        from repro.api import APIError

        with small_cluster() as cluster:
            handle = (
                cluster.session("client:9020")
                .query()
                .area(cluster.namespace.area(["USA/OR/Portland", "Music/CDs"]))
                .where("price < 100")
                .submit()
            )
            with pytest.raises(APIError):
                handle.result(timeout=1_000, deadline=1_000)
            handle.result(timeout=60_000)

    def test_the_pieces_own_reason_is_passed_through(self):
        # seller2 is down: its piece bounces and comes home saying so.  The
        # handle has nothing to add ("idle" would only say the clock stopped).
        with small_cluster() as cluster:
            cluster.session("seller2:9020").crash()
            handle = (
                cluster.session("client:9020")
                .query()
                .area(cluster.namespace.area(["USA/OR/Portland", "Music/CDs"]))
                    .where("price < 10")
                .expecting(2)
                .submit()
            )
            degraded = handle.result(deadline=120_000)
            assert isinstance(degraded, DegradedResult) and degraded.partial
            assert degraded.reason == "unreachable" and degraded.completeness == 0.5
            assert [item.child_text("title") for item in degraded.items] == ["Abbey Road"]

    def test_idle_network_degrades_with_reason_idle(self):
        # Every frame is (deterministically) lost: the plan dies on its
        # first hop, the network drains, and the deadline path reports the
        # degradation as "idle" rather than waiting the full budget out.
        namespace = garage_sale_namespace()
        plan = FaultPlan(seed=5, loss=0.999999)
        with Cluster("sim", namespace=namespace, faults=plan) as cluster:
            area = namespace.area(["USA/OR/Portland", "Music/CDs"])
            seller = cluster.base_server("seller:9020", area)
            seller.publish("cds", [make_item("Abbey Road", 8)])
            cluster.meta_index("meta:9020")
            cluster.client("client:9020")
            cluster.connect()
            handle = cluster.session("client:9020").query().area(area).submit()
            degraded = handle.result(deadline=120_000)
            assert isinstance(degraded, DegradedResult)
            assert degraded.reason == "idle"
            assert degraded.items == []


# --------------------------------------------------------------------------- #
# Satellites: the closed-transport notice guard and the dead-letter cap
# --------------------------------------------------------------------------- #


class TestUnreachableNoticeAfterClose:
    def _network_with_offline_target(self) -> tuple[Network, Message]:
        network = Network(notify_unreachable=True)
        from repro.network import NetworkNode

        class _Sink(NetworkNode):
            def handle_message(self, message):  # pragma: no cover - never delivered
                pass

        sender = _Sink("sender:9020")
        target = _Sink("target:9020")
        network.register(sender)
        network.register(target)
        target.online = False
        message = Message(
            sender="sender:9020", recipient="target:9020", kind="mqp", payload="x"
        )
        return network, message

    def test_drop_schedules_the_notice_while_the_transport_is_open(self):
        network, message = self._network_with_offline_target()
        network._drop(message)
        assert network.simulator.peek() is not None  # the notice is scheduled

    def test_drop_is_a_no_op_once_the_transport_closed(self):
        network, message = self._network_with_offline_target()
        network.transport.close()
        assert network.transport.closed
        network._drop(message)  # must not schedule on a closed transport
        assert network.simulator.peek() is None
        assert network.metrics.dropped_messages == 1  # the drop is still counted


class TestDeadLetterBuffer:
    def test_cap_with_exact_accounting(self):
        with small_cluster() as cluster:
            peer = cluster.session("seller1:9020").peer
            peer.dead_letters.cap = 3
            messages = [
                Message(sender="x:9020", recipient=peer.address,
                        kind="result" if position % 2 else "register-ack",
                        payload=position)
                for position in range(5)
            ]
            for message in messages:
                peer.transfers.dead_letter(message)
            assert len(peer.dead_letters) == 5  # exact total, not the window
            assert list(peer.dead_letters) == messages[-3:]  # capped retention
            assert peer.dead_letters[-1] is messages[-1]
            assert peer.dead_letters.by_kind == {"register-ack": 3, "result": 2}
            by_kind = cluster.network.metrics.dead_letters_by_kind
            assert by_kind["register-ack"] == 3 and by_kind["result"] == 2
