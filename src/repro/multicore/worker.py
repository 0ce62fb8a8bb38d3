"""One multicore worker process (``python -m repro.multicore.worker``).

The launcher spawns N of these.  Each worker replays the *entire*
deterministic bootstrap — population, topology, registrations, adversary
state, churn plan — so every process agrees on global state without a
catalog-transfer protocol, then attaches a shard router and executes only
its own contiguous slice of the data peers.  Scenario time advances in
barrier-coordinated windows: the window length is at most the minimum
cross-link delay, so a frame sent inside a window can only be due in a
later one, and draining relay inboxes at each barrier delivers every
cross-shard message at exactly its modelled simulated time.

Determinism notes:

* Run-phase message ids are rebased per worker (``(worker + 1) * 10**9``)
  so ids stay globally unique without coordination — bootstrap consumed an
  identical prefix of the counter in every process.
* Relayed frames are *staged*, then injected in ``(deliver_at, HLC)``
  order right before each window runs.  TCP arrival order is wall-clock
  noise; the hybrid logical clock's total order is what makes the
  injection schedule reproducible.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import os
import socket
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import replace

from ..harness.scaleout import (
    ScaleoutSpec,
    _delivery_counters,
    _processing_counters,
    _report,
    build_scaleout_scenario,
    schedule_queries,
)
from ..network import message as message_module
from ..network.failures import FailureInjector
from ..network.message import Message
from ..network.transport.wire import FrameEncoder
from ..peers import QueryPeer
from ..perf import overrides
from .clock import HybridLogicalClock
from .errors import MulticoreError
from .relay import RelayHub, read_frame, send_frame
from .report import metrics_fragment
from .sharding import owner_of, shard_assignment

__all__ = ["main"]

_ID_STRIDE = 1_000_000_000
"""Run-phase message-id namespace per worker (bootstrap stays below it)."""


class ShardRouter:
    """The :meth:`Network.attach_router` hook: ownership + relay forwarding."""

    def __init__(self, worker: int, assignment: dict[str, int], hub: RelayHub,
                 clock: HybridLogicalClock, simulator) -> None:
        self.worker = worker
        self.assignment = assignment
        self.hub = hub
        self.clock = clock
        self.simulator = simulator

    def owns(self, address: str) -> bool:
        return owner_of(self.assignment, address) == self.worker

    def forward(self, message: Message, deliver_at: float) -> None:
        target = owner_of(self.assignment, message.recipient)
        envelope = Message(
            sender=f"mc:{self.worker}",
            recipient=f"mc:{target}",
            kind="mc-relay",
            payload={"at": deliver_at, "message": message},
            size_bytes=message.size_bytes,
        )
        self.hub.send(target, envelope, self.clock.tick(self.simulator.now))


def _parse_kill_point(worker: int) -> int | None:
    """The ``REPRO_MULTICORE_KILL_WORKER=w@n`` failpoint: barrier n of worker w."""
    raw = os.environ.get("REPRO_MULTICORE_KILL_WORKER", "")
    if "@" not in raw:
        return None
    victim, _, barrier = raw.partition("@")
    try:
        return int(barrier) if int(victim) == worker else None
    except ValueError:
        return None


def _barrier(control: socket.socket, encoder: FrameEncoder, worker: int,
             payload: dict) -> dict:
    send_frame(
        control,
        Message(sender=f"mc:{worker}", recipient="launcher",
                kind="barrier-enter", payload=payload, size_bytes=1),
        None,
        encoder,
    )
    message, _ = read_frame(control)
    if message.kind != "barrier-release":
        raise MulticoreError(
            f"worker {worker} expected barrier-release, got {message.kind!r}"
        )
    return message.payload


def _stamp_key(stamp) -> tuple[float, int, int]:
    if stamp is None:
        return (-1.0, -1, -1)
    return (stamp.physical, stamp.logical, stamp.worker)


def _run(worker: int, workers: int, spec: ScaleoutSpec, transport_kind: str,
         hub: RelayHub, control: socket.socket,
         encoder: FrameEncoder) -> dict:
    """Build, coordinate, run the shard; return this worker's fragment."""
    hlc = HybridLogicalClock(worker)
    kill_at = _parse_kill_point(worker)
    reliability = overrides(reliable_delivery=True) if spec.reliable else nullcontext()

    with reliability:
        # Defer ALL churn at build time: the plan is still drawn identically
        # (same rng consumption, same summary), but nothing is scheduled yet.
        # Scheduling now would let the bootstrap drain below run departures
        # and rejoins early — before queries exist and before the baseline
        # snapshot, silently swallowing their traffic.  Owned events are
        # scheduled after the drain instead.
        # Stable latency: workers touch links in shard-local first-use order,
        # so draw-order jitter would give each worker count different link
        # delays — and, when a query races a churn departure, different
        # answers.  Hash-keyed jitter makes every worker agree per link.
        scenario = build_scaleout_scenario(
            spec,
            transport=transport_kind,
            churn_only=lambda addresses: lambda address: False,
            stable_latency=True,
        )
        cluster = scenario.cluster
        network = scenario.network
        transport = network.transport
        simulator = transport.simulator
        transport.attach_clock(hlc)

        # Drain any bootstrap traffic still on the clock: it is replicated
        # in every worker and must finish before the router starts
        # diverting cross-shard sends.
        cluster.run_until_idle()

        assignment = shard_assignment(
            [peer.address for peer in scenario.data_peers], workers
        )
        message_module._message_counter = itertools.count((worker + 1) * _ID_STRIDE)
        network.attach_router(
            ShardRouter(worker, assignment, hub, hlc, simulator)
        )

        # Now that the drained clock sits at end-of-bootstrap and the router
        # owns cross-shard traffic, schedule this shard's slice of the churn
        # plan at its original simulated times (clamped: a profile whose
        # window overlaps bootstrap fires immediately, as late as possible).
        if scenario.churn_plan is not None:
            injector = FailureInjector(network)
            for event in scenario.churn_plan.events:
                if owner_of(assignment, event.address) != worker:
                    continue
                injector._schedule_churn_event(
                    replace(
                        event,
                        fail_at=max(event.fail_at, simulator.now),
                        recover_at=None
                        if event.recover_at is None
                        else max(event.recover_at, simulator.now),
                    )
                )

        query_ids = schedule_queries(scenario) if worker == 0 else []
        baseline = metrics_fragment(network.metrics)

        staged: list[tuple[float, tuple, Message, object]] = []
        received_total = 0
        late_injections = 0
        windows = 0
        barriers = 0
        run_started = time.perf_counter()

        while True:
            for envelope, stamp in hub.drain():
                payload = envelope.payload
                staged.append(
                    (payload["at"], _stamp_key(stamp), payload["message"], stamp)
                )
                received_total += 1
            head = simulator.peek()
            next_time = None if head is None else head.time
            for deliver_at, _, _, _ in staged:
                due = max(deliver_at, simulator.now)
                if next_time is None or due < next_time:
                    next_time = due
            barriers += 1
            if kill_at is not None and barriers >= kill_at:
                os._exit(17)  # failpoint: hard death while peers are parked
            decision = _barrier(
                control,
                encoder,
                worker,
                {
                    "sent": hub.frames_sent,
                    "received": received_total,
                    "next": next_time,
                    "now": simulator.now,
                },
            )
            action = decision["action"]
            if action == "drain":
                # Frames are still in flight somewhere: give the sockets a
                # moment and re-enter with updated counts.
                time.sleep(0.001)
                continue
            if action == "stop":
                break
            # Inject every staged frame before running: sorted on
            # (deliver_at, HLC) so the schedule is independent of TCP
            # arrival interleaving across workers.
            staged.sort(key=lambda item: (item[0], item[1]))
            for deliver_at, _, inner, stamp in staged:
                if stamp is not None:
                    hlc.observe(stamp, simulator.now)
                due = deliver_at
                if due < simulator.now:
                    late_injections += 1
                    due = simulator.now
                simulator.schedule_at(
                    due, functools.partial(network._deliver, inner)
                )
            staged.clear()
            windows += 1
            transport.run(until=decision["until"])

        run_wall_s = time.perf_counter() - run_started

        if worker == 0:
            for query_id in query_ids:
                trace = network.metrics.trace(query_id)
                if trace.completed_at is None:
                    trace.completed_at = cluster.now
        owned = [
            node
            for node in network.nodes()
            if isinstance(node, QueryPeer)
            and owner_of(assignment, node.address) == worker
        ]
        fragment: dict[str, object] = {
            "worker": worker,
            "metrics": metrics_fragment(network.metrics, baseline),
            "processing": _processing_counters(owned),
            "resilience": _delivery_counters(owned),
            "relay": {
                "frames_sent": hub.frames_sent,
                "frames_received": hub.frames_received,
                "bytes_sent": hub.bytes_sent,
                "bytes_received": hub.bytes_received,
                "late_injections": late_injections,
                "windows": windows,
            },
            "run_wall_s": run_wall_s,
            "hlc": {"physical": hlc.stamp.physical, "logical": hlc.stamp.logical},
        }
        if worker == 0:
            # Worker 0 owns the client and the infrastructure: it supplies
            # the report blocks that are identical in every process, plus
            # the bootstrap metrics exactly once (other workers subtract
            # theirs — the build traffic is fully replicated).
            local = _report(scenario, query_ids)
            fragment["bootstrap"] = baseline
            fragment["static"] = {
                "scenario": local["scenario"],
                "population": local["population"],
                "topology": local["topology"],
                "churn": local["churn"],
                "adversary": local.get("adversary"),
                "reliable": spec.reliable,
                "faults_active": network.faults.active,
                "query_ids": query_ids,
            }
        cluster.close()
        return fragment


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro.multicore.worker")
    parser.add_argument("--worker", type=int, required=True)
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--control", required=True, help="host:port of the launcher")
    args = parser.parse_args(argv)

    host, _, port = args.control.rpartition(":")
    control = socket.create_connection((host, int(port)))
    encoder = FrameEncoder()
    hub = RelayHub(args.worker)
    try:
        relay_port = hub.start()
        send_frame(
            control,
            Message(
                sender=f"mc:{args.worker}",
                recipient="launcher",
                kind="worker-hello",
                payload={"worker": args.worker, "relay_port": relay_port},
                size_bytes=1,
            ),
            None,
            encoder,
        )
        shard_map, _ = read_frame(control)
        if shard_map.kind != "shard-map":
            raise MulticoreError(f"expected shard-map, got {shard_map.kind!r}")
        ports = {int(wid): port for wid, port in shard_map.payload["ports"].items()}
        hub.connect(ports)
        spec = ScaleoutSpec(**shard_map.payload["spec"])
        fragment = _run(
            args.worker,
            args.workers,
            spec,
            shard_map.payload["transport"],
            hub,
            control,
            encoder,
        )
        send_frame(
            control,
            Message(
                sender=f"mc:{args.worker}",
                recipient="launcher",
                kind="worker-report",
                payload=fragment,
                size_bytes=1,
            ),
            None,
            encoder,
        )
        return 0
    except Exception as error:  # noqa: BLE001 - forwarded to the launcher
        try:
            send_frame(
                control,
                Message(
                    sender=f"mc:{args.worker}",
                    recipient="launcher",
                    kind="worker-error",
                    payload={
                        "error": f"{type(error).__name__}: {error}",
                        "traceback": traceback.format_exc(),
                    },
                    size_bytes=1,
                ),
                None,
                encoder,
            )
        except OSError:
            pass  # launcher is gone; the exit code still reports failure
        return 1
    finally:
        hub.close()
        try:
            control.close()
        except OSError:
            pass


if __name__ == "__main__":  # pragma: no cover - subprocess entry point
    sys.exit(main())
