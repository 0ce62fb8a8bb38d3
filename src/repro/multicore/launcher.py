"""The multicore launcher: spawn workers, coordinate windows, merge reports.

:func:`run_multicore` is the parent side of a multi-process run: it
spawns ``spec.workers`` processes of :mod:`repro.multicore.worker`, runs
the ``worker-hello`` / ``shard-map`` handshake over a control socket
(speaking the same wire-v2 frames as the relay path), then fronts a
:class:`~repro.multicore.barrier.BarrierService` whose reducer advances all
workers through bounded simulated-time windows:

* **drain** — relay frames are still in flight (Σsent ≠ Σreceived across
  workers); everyone re-polls their inbox and re-enters.
* **run until T** — all inboxes agree with all outboxes; T is the globally
  earliest pending event plus the conservative window (at most the minimum
  cross-link delay, so nothing sent inside the window can be due within it).
* **stop** — every worker is idle with nothing in flight.

Teardown is unconditional: whatever happens — a worker crashing mid-query,
a protocol error, a broken barrier — every child process is terminated,
waited on, and killed if it lingers, before the typed error propagates.
``tests/test_multicore.py`` holds the regression that kills a worker mid-run
and asserts a :class:`WorkerCrashed` instead of a hang.
"""

from __future__ import annotations

import os
import socket
import subprocess
import sys
import threading
from dataclasses import asdict
from typing import TYPE_CHECKING, Any

from ..network.latency import LatencyModel
from ..network.message import Message
from ..network.transport.wire import FrameEncoder
from .barrier import BarrierBroken, BarrierService
from .errors import MulticoreError, WorkerCrashed
from .relay import read_frame, send_frame
from .report import assemble_report

if TYPE_CHECKING:
    from ..harness.scaleout import ScaleoutSpec
    from ..network.transport.base import Transport

__all__ = ["run_multicore", "window_ms_for"]

_HANDSHAKE_TIMEOUT_S = 60.0
_REAP_TIMEOUT_S = 5.0


def window_ms_for(spec: "ScaleoutSpec") -> float:
    """The conservative lookahead window for ``spec``, in simulated ms.

    Safety argument: a window may run only events strictly before its end,
    and any message sent during it is delivered no sooner than the minimum
    cross-link propagation delay (``max(0.5, base - jitter)`` — link jitter
    is drawn in ``[-jitter, +jitter]`` and fault injection only ever *adds*
    delay).  MQP scenarios also synthesize ``peer-unreachable`` notices
    after the cluster's detection delay, so the window is capped there too.
    Hence every cross-shard frame sent in window k is due in window k+1 or
    later, and barrier-point injection never misses a delivery time.
    """
    latency = LatencyModel(seed=spec.seed)
    window = max(0.5, latency.base_latency_ms - latency.jitter_ms)
    if spec.routing == "mqp":
        # Cluster(notify_unreachable=True) default detection delay (5 ms).
        window = min(window, 5.0)
    return window


def run_multicore(
    spec: "ScaleoutSpec", transport: "Transport | str | None" = None
) -> dict[str, Any]:
    """Run ``spec`` across ``spec.workers`` processes; return the merged report."""
    workers = spec.workers
    if workers < 1:
        raise MulticoreError("run_multicore needs spec.workers >= 1")
    if transport is None:
        transport_kind = "sim"
    elif isinstance(transport, str):
        transport_kind = transport
    else:
        raise MulticoreError(
            "multicore runs select transports by name ('sim' or 'aio'); "
            "a live transport instance cannot be shipped to worker processes"
        )
    spec.validate()
    window = window_ms_for(spec)

    barrier_stats = {"windows": 0, "drains": 0}

    def reducer(payloads: dict[int, Any]) -> dict[str, Any]:
        total_sent = sum(entry["sent"] for entry in payloads.values())
        total_received = sum(entry["received"] for entry in payloads.values())
        if total_sent != total_received:
            barrier_stats["drains"] += 1
            return {"action": "drain"}
        nexts = [
            entry["next"] for entry in payloads.values() if entry["next"] is not None
        ]
        if not nexts:
            return {"action": "stop"}
        barrier_stats["windows"] += 1
        return {"action": "run", "until": min(nexts) + window}

    barrier = BarrierService(workers, reducer)
    results: dict[int, dict[str, Any]] = {}
    errors: dict[int, str] = {}
    lock = threading.Lock()

    def serve(wid: int, conn: socket.socket) -> None:
        encoder = FrameEncoder()
        try:
            while True:
                message, _ = read_frame(conn)
                if message.kind == "barrier-enter":
                    decision = barrier.enter(wid, message.payload)
                    send_frame(
                        conn,
                        Message(sender="launcher", recipient=f"mc:{wid}",
                                kind="barrier-release", payload=decision,
                                size_bytes=1),
                        None,
                        encoder,
                    )
                elif message.kind == "worker-report":
                    with lock:
                        results[wid] = message.payload
                    return
                elif message.kind == "worker-error":
                    with lock:
                        errors[wid] = "{error}\n{traceback}".format(**message.payload)
                    barrier.break_barrier(f"worker {wid} reported an error")
                    return
                else:
                    raise MulticoreError(
                        f"unexpected control frame {message.kind!r} from worker {wid}"
                    )
        except BarrierBroken:
            return  # another worker's failure tore the round down
        except (EOFError, OSError, MulticoreError) as failure:
            with lock:
                if wid not in results:
                    errors.setdefault(wid, f"control connection lost: {failure}")
            barrier.break_barrier(f"worker {wid} control connection lost")

    server = socket.create_server(("127.0.0.1", 0))
    server.settimeout(_HANDSHAKE_TIMEOUT_S)
    control_port = server.getsockname()[1]
    environment = dict(os.environ)
    source_root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
    existing = environment.get("PYTHONPATH")
    environment["PYTHONPATH"] = (
        source_root if not existing else source_root + os.pathsep + existing
    )

    processes: list[subprocess.Popen] = []
    connections: dict[int, socket.socket] = {}
    threads: list[threading.Thread] = []
    try:
        for wid in range(workers):
            processes.append(
                subprocess.Popen(
                    [
                        sys.executable,
                        "-m",
                        "repro.multicore.worker",
                        "--worker", str(wid),
                        "--workers", str(workers),
                        "--control", f"127.0.0.1:{control_port}",
                    ],
                    env=environment,
                )
            )

        relay_ports: dict[int, int] = {}
        for _ in range(workers):
            try:
                conn, _ = server.accept()
            except socket.timeout:
                raise MulticoreError(
                    f"only {len(connections)}/{workers} workers reported in "
                    f"within {_HANDSHAKE_TIMEOUT_S:.0f}s"
                ) from None
            hello, _ = read_frame(conn)
            if hello.kind != "worker-hello":
                raise MulticoreError(f"expected worker-hello, got {hello.kind!r}")
            wid = hello.payload["worker"]
            connections[wid] = conn
            relay_ports[wid] = hello.payload["relay_port"]

        shard_map = {
            "ports": relay_ports,
            "window": window,
            "spec": asdict(spec),
            "transport": transport_kind,
        }
        handshake_encoder = FrameEncoder()
        for wid, conn in sorted(connections.items()):
            send_frame(
                conn,
                Message(sender="launcher", recipient=f"mc:{wid}",
                        kind="shard-map", payload=shard_map, size_bytes=1),
                None,
                handshake_encoder,
            )

        for wid, conn in sorted(connections.items()):
            thread = threading.Thread(
                target=serve, args=(wid, conn), name=f"mc-serve-{wid}", daemon=True
            )
            threads.append(thread)
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        for conn in connections.values():
            try:
                conn.close()
            except OSError:
                pass
        server.close()
        _reap(processes)

    if errors:
        first = min(errors)
        raise WorkerCrashed(first, errors[first])
    missing = [wid for wid in range(workers) if wid not in results]
    if missing:
        raise WorkerCrashed(missing[0], "exited without a report or an error")

    fragments = [results[wid] for wid in range(workers)]
    static = fragments[0].get("static")
    if static is None:
        raise MulticoreError("worker 0's fragment is missing the static blocks")
    multicore_block = {
        "workers": workers,
        "window_ms": round(window, 3),
        "windows": barrier_stats["windows"],
        "drains": barrier_stats["drains"],
        "barriers": barrier.rounds_completed,
        "relay_frames": sum(f["relay"]["frames_sent"] for f in fragments),
        "relay_bytes": sum(f["relay"]["bytes_sent"] for f in fragments),
        "late_injections": sum(f["relay"]["late_injections"] for f in fragments),
        "run_wall_s": round(max(f["run_wall_s"] for f in fragments), 3),
        "hlc": {
            "physical": round(max(f["hlc"]["physical"] for f in fragments), 3),
            "logical": max(f["hlc"]["logical"] for f in fragments),
        },
    }
    return assemble_report(static, fragments, multicore_block)


def _reap(processes: list[subprocess.Popen]) -> None:
    """Terminate, wait, and if necessary kill every child.  Never raises."""
    for process in processes:
        if process.poll() is None:
            try:
                process.terminate()
            except OSError:
                pass
    for process in processes:
        try:
            process.wait(timeout=_REAP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            try:
                process.kill()
            except OSError:
                pass
            process.wait()
        except OSError:
            pass
