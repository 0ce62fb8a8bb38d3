"""SUBSCRIPTIONS — delta feeds vs snapshot re-query polling.

Two claims from the continuous-query layer, both measured in *simulated* milliseconds on the scale-out harness:

* **Publish-to-delta latency** — at the thousand-peer configuration, a
  mutation at a publisher reaches an armed subscriber as a ``delta-chunk``
  in propagation time (one direct reliable transfer).  The alternative —
  polling the same plan as a snapshot re-query at the harness's default
  cadence — pays half the polling interval in expected staleness *plus*
  the full routed round-trip (index hops, result delivery).  Gate: deltas arrive >= 5x sooner than the poller observes
  the change.  The raw re-query round-trip is recorded alongside as
  context (``snapshot_requery_ms``), so the figure separates the staleness
  term from the routing term.
* **Fan-out throughput** — delivering mutation rounds to 100 armed
  subscribers, each delta its own acked transfer, sustains an absolute
  floor of items per simulated ms (``delta_fanout_items_per_ms``).  The
  streamed one-shot baseline (``flags.streaming_results``: every
  subscriber drains the same plan as chunked result frames) and the ratio
  against it are recorded as context, not gated: the ratio fell 4.22 →
  1.01 → 0.93 (0.82 at the quick size) over two PRs that made the one-shot
  path faster and left the delta path exactly where it was.

Both cells run with ``flags.reliable_delivery`` on (subscription control
and delta traffic ride the ack/retry protocol), matching how the feature
is meant to be deployed.

``REPRO_BENCH_QUICK=1`` shrinks both populations for CI smoke runs.
"""

from __future__ import annotations

import pytest

import benchjson
from conftest import emit
from repro.algebra.serialization import parse_plan
from repro.api.subscription import Subscription
from repro.harness.report import format_table
from repro.harness.scaleout import ScaleoutSpec, build_scaleout_scenario
from repro.perf import overrides

QUICK = benchjson.quick_mode()
BENCH = "subscriptions"

LATENCY_PEERS = 200 if QUICK else 1000
LATENCY_ROUNDS = 3 if QUICK else 5
FANOUT_PEERS = 60 if QUICK else 120
FANOUT_SUBSCRIBERS = 40 if QUICK else 100
FANOUT_ROUNDS = 3 if QUICK else 6
POLL_INTERVAL_MS = 400.0  # the harness's default query cadence

SPEEDUP_GATE = 5.0
# Items per simulated ms, exact run to run: 4.14 at the quick size, 20.46 at full.
FANOUT_FLOOR = 3.5 if QUICK else 17.0


def _delivered(scenario) -> int:
    """Total deltas recorded across every subscriber in the scenario."""
    total = 0
    cluster = scenario.cluster
    for address, sub_id in zip(
        scenario.subscriber_addresses, scenario.subscription_ids
    ):
        state = cluster.session(address).peer.subscription_state(sub_id)
        if state is not None:
            total += len(state.deltas)
    return total


def _publish_round(scenario) -> int:
    """One mutation round: every hot publisher upserts its first item."""
    cluster = scenario.cluster
    items_by_address = {peer.address: peer.items for peer in scenario.data_peers}
    mutated = 0
    for address in scenario.hot_publishers:
        items = items_by_address[address]
        if items:
            cluster.session(address).update("items", [items[0].copy()])
            mutated += 1
    return mutated


@pytest.fixture(scope="module")
def latency_cell():
    """One subscriber inside the big population; measure delta vs re-query."""
    with overrides(reliable_delivery=True):
        spec = ScaleoutSpec(
            name="sub-latency", topology="small-world", peers=LATENCY_PEERS,
            workload="garage-sale", churn="none", queries=4,
            subscribers=1, reliable=True,
        )
        scenario = build_scaleout_scenario(spec)
        try:
            assert scenario.hot_publishers, "no data peer overlaps the subscribed area"
            cluster, network = scenario.cluster, scenario.network
            session = cluster.session(scenario.subscriber_addresses[0])
            sub_id = scenario.subscription_ids[0]

            delta_latencies: list[float] = []
            for _ in range(LATENCY_ROUNDS):
                seen = len(session.peer.subscription_state(sub_id).deltas)
                published_at = network.now
                assert _publish_round(scenario) > 0
                cluster.run_until_idle()
                deltas = session.peer.subscription_state(sub_id).deltas
                assert len(deltas) > seen, "mutation produced no delta"
                delta_latencies.append(deltas[-1].received_at - published_at)

            subscription = Subscription(session, sub_id)
            snapshot_latencies: list[float] = []
            for _ in range(LATENCY_ROUNDS):
                issued_at = network.now
                result = subscription.snapshot()
                assert result.count > 0
                snapshot_latencies.append(network.now - issued_at)

            yield {
                "delta_ms": sum(delta_latencies) / len(delta_latencies),
                "snapshot_ms": sum(snapshot_latencies) / len(snapshot_latencies),
                "rounds": LATENCY_ROUNDS,
                "deltas": len(session.peer.subscription_state(sub_id).deltas),
            }
        finally:
            scenario.cluster.close()


@pytest.fixture(scope="module")
def fanout_cell():
    """Mutation rounds fanned out to the full subscriber population, then
    the same plans drained once as streamed one-shot queries."""
    with overrides(reliable_delivery=True):
        spec = ScaleoutSpec(
            name="sub-fanout", topology="small-world", peers=FANOUT_PEERS,
            workload="garage-sale", churn="none", queries=4,
            subscribers=FANOUT_SUBSCRIBERS, reliable=True,
        )
        scenario = build_scaleout_scenario(spec)
        try:
            assert scenario.hot_publishers, "no data peer overlaps the subscribed areas"
            cluster, network = scenario.cluster, scenario.network

            # All rounds go in flight together and the clock runs once to
            # drain — the feed pipelines (per-publisher frames are ordered
            # by sequence number, distinct publishers deliver in parallel),
            # mirroring how the streamed baseline below drains all its
            # queries concurrently.
            before = _delivered(scenario)
            started = network.now
            for _ in range(FANOUT_ROUNDS):
                _publish_round(scenario)
            cluster.run_until_idle()
            delta_items = _delivered(scenario) - before
            delta_ms = network.now - started

            # streaming_results: chunked result frames (the baseline under test).
            with overrides(streaming_results=True):
                started = network.now
                handles = []
                for address, sub_id in zip(
                    scenario.subscriber_addresses, scenario.subscription_ids
                ):
                    session = cluster.session(address)
                    document = session.peer.subscription_state(sub_id).document
                    handles.append(session.submit(parse_plan(document)))
                cluster.run_until_idle()
                streamed_items = sum(handle.result().count for handle in handles)
                streamed_ms = network.now - started

            yield {
                "delta_items": delta_items,
                "delta_ms": delta_ms,
                "streamed_items": streamed_items,
                "streamed_ms": streamed_ms,
            }
        finally:
            scenario.cluster.close()


def test_publish_to_delta_beats_polling(latency_cell):
    """Gate: deltas beat snapshot re-query polling by >= 5x."""
    delta_ms = latency_cell["delta_ms"]
    snapshot_ms = latency_cell["snapshot_ms"]
    # A poller at cadence T observes a mutation T/2 late on average, then
    # pays the re-query round-trip before it holds the changed answer.
    poll_ms = POLL_INTERVAL_MS / 2.0 + snapshot_ms
    speedup = poll_ms / delta_ms

    emit(
        f"SUBSCRIPTIONS: publish-to-delta vs snapshot re-query polling "
        f"({LATENCY_PEERS} peers, {latency_cell['rounds']} mutation rounds)",
        format_table(
            [
                {"path": "delta-chunk push", "latency_ms": round(delta_ms, 3)},
                {"path": "snapshot re-query (round-trip)", "latency_ms": round(snapshot_ms, 3)},
                {"path": f"polling @ {POLL_INTERVAL_MS:g}ms cadence", "latency_ms": round(poll_ms, 3)},
                {"path": "speedup", "latency_ms": round(speedup, 2)},
            ],
            ["path", "latency_ms"],
            precision=3,
        ),
    )

    benchjson.record_metric(
        BENCH, "publish_to_delta_ms", delta_ms, unit="sim_ms", direction="lower",
        compare=True, peers=LATENCY_PEERS, rounds=latency_cell["rounds"],
    )
    benchjson.record_metric(
        BENCH, "snapshot_requery_ms", snapshot_ms, unit="sim_ms",
        direction="lower", compare=False, peers=LATENCY_PEERS,
    )
    benchjson.record_metric(
        BENCH, "publish_to_delta_speedup", speedup, unit="ratio",
        direction="higher", compare=True, gate_min=SPEEDUP_GATE,
        peers=LATENCY_PEERS, poll_interval_ms=POLL_INTERVAL_MS,
    )

    assert speedup >= SPEEDUP_GATE


def test_fanout_keeps_pace_with_streaming(fanout_cell):
    """Gate: the delta fan-out's own throughput; the streamed ratio is context."""
    delta_rate = fanout_cell["delta_items"] / fanout_cell["delta_ms"]
    streamed_rate = fanout_cell["streamed_items"] / fanout_cell["streamed_ms"]
    ratio = delta_rate / streamed_rate

    emit(
        f"SUBSCRIPTIONS: delta fan-out to {FANOUT_SUBSCRIBERS} subscribers vs "
        f"streamed one-shot delivery ({FANOUT_PEERS} peers)",
        format_table(
            [
                {
                    "path": "delta fan-out",
                    "items": fanout_cell["delta_items"],
                    "sim_ms": round(fanout_cell["delta_ms"], 1),
                    "items_per_ms": round(delta_rate, 4),
                },
                {
                    "path": "streamed one-shot",
                    "items": fanout_cell["streamed_items"],
                    "sim_ms": round(fanout_cell["streamed_ms"], 1),
                    "items_per_ms": round(streamed_rate, 4),
                },
                {"path": "ratio", "items_per_ms": round(ratio, 3)},
            ],
            ["path", "items", "sim_ms", "items_per_ms"],
            precision=4,
        ),
    )

    benchjson.record_metric(
        BENCH, "delta_fanout_items_per_ms", delta_rate, unit="items/sim_ms",
        direction="higher", compare=True, gate_min=FANOUT_FLOOR,
        subscribers=FANOUT_SUBSCRIBERS, peers=FANOUT_PEERS, rounds=FANOUT_ROUNDS,
    )
    benchjson.record_metric(
        BENCH, "streamed_baseline_items_per_ms", streamed_rate,
        unit="items/sim_ms", direction="higher", compare=False,
        subscribers=FANOUT_SUBSCRIBERS, peers=FANOUT_PEERS,
    )
    benchjson.record_metric(
        BENCH, "fanout_throughput_ratio", ratio, unit="ratio",
        direction="higher", compare=False,
        subscribers=FANOUT_SUBSCRIBERS, peers=FANOUT_PEERS,
    )

    assert delta_rate >= FANOUT_FLOOR


def test_cells_are_nondegenerate(latency_cell, fanout_cell):
    # The latency cell must actually deliver one delta per round, and the
    # fan-out cell must reach a real fraction of the subscriber population
    # — otherwise the ratios above gate noise, not the delivery path.
    assert latency_cell["deltas"] >= latency_cell["rounds"]
    assert latency_cell["delta_ms"] > 0
    assert fanout_cell["delta_items"] >= FANOUT_SUBSCRIBERS
    assert fanout_cell["streamed_items"] >= FANOUT_SUBSCRIBERS


if __name__ == "__main__":
    raise SystemExit(benchjson.run_as_script(__file__))
