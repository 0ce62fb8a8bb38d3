"""MULTICORE — process-parallel scale-out and the pickle-free wire codec.

Three measurements back the PR 10 gates:

* ``codec_vs_pickle_speedup`` — the isolated wire path (``encode_view`` into
  the reused buffer → ``decode_frame``, HLC stamp included, exactly what the
  relay does per frame) against the pickle baseline: one
  ``pickle.dumps((message, stamp))`` / ``pickle.loads`` per frame, which is
  what the v1 wire path did to a message.  Hard gate ≥1.5× on stamped MQP
  plan frames — the dominant traffic.  The generic control-payload path is
  recorded alongside without a gate: a pure-Python tagged codec does not
  outrun C pickle on arbitrary object graphs, and the honest number for
  that rare frame kind belongs in the report next to the reason the codec
  exists anyway (no arbitrary deserialization on the socket).
* ``encoder_reuse_speedup`` — steady-state framing against a fresh encoder
  (and thus a fresh buffer) per frame, isolating the buffer-reuse micro-opt.
* ``multicore_speedup`` — wall-clock run phase of an N-worker
  (``ScaleoutSpec.workers``) run against the single-process aio run of the same
  spec+seed, plus the sequence-identity gate (= 1.0) between 1-worker and
  N-worker runs.  The ≥2× speedup gate only attaches at its defining
  configuration — 4 workers, 1,000 peers, ``os.cpu_count() >= 4`` — because
  on a 1-core runner (or a barrier-dominated small scenario) process
  parallelism is all overhead and the honest value is recorded ungated.

``REPRO_BENCH_QUICK=1`` shrinks everything for CI smoke runs;
``REPRO_BENCH_MULTICORE_WORKERS`` / ``REPRO_BENCH_MULTICORE_PEERS`` size the
nightly full configuration (4 workers, 1,000 peers).
"""

from __future__ import annotations

import os
import pickle
import random
import statistics
import time
from dataclasses import replace

import benchjson
from conftest import emit
from repro.harness.scaleout import (
    ScaleoutSpec,
    build_scaleout_scenario,
    run_scaleout,
    schedule_queries,
)
from repro.multicore import HLCStamp, sequence_identity
from repro.network import build_transport
from repro.network.message import Message
from repro.network.transport.wire import FrameEncoder, decode_frame

QUICK = benchjson.quick_mode()
BENCH = "multicore"
CORES = os.cpu_count() or 1
WORKERS = int(os.environ.get("REPRO_BENCH_MULTICORE_WORKERS", "0")) or (2 if QUICK else 4)
PEERS = int(os.environ.get("REPRO_BENCH_MULTICORE_PEERS", "0")) or (60 if QUICK else 200)
QUERIES = 6 if QUICK else 12
CODEC_FRAMES = 400 if QUICK else 1500
CODEC_REPEATS = 5 if QUICK else 9

CODEC_SPEEDUP_FLOOR = 1.5
CODEC_FRAMES_PER_SEC_FLOOR = 10_000.0
MULTICORE_SPEEDUP_FLOOR = 2.0

SPEC = ScaleoutSpec(
    name="multicore-bench", topology="small-world", peers=PEERS,
    workload="garage-sale", churn="light", queries=QUERIES, seed=11,
)


# --------------------------------------------------------------------------- #
# Isolated codec path
# --------------------------------------------------------------------------- #


def _plan_frames(count: int) -> list[Message]:
    """Stamped MQP frames with plan-sized XML documents (exp-distributed)."""
    rng = random.Random(11)
    frames = []
    for index in range(count):
        operators = max(1, int(rng.expovariate(1.0 / 18)))
        document = (
            "<plan query='q%d'>" % index
            + "<op kind='select' source='peer%04d:9020'/>" % (index % 211) * operators
            + "</plan>"
        )
        frames.append(Message(
            sender="peer%04d:9020" % (index % 211),
            recipient="peer%04d:9020" % ((index * 7) % 211),
            kind="mqp", payload=document, size_bytes=len(document),
            message_id=index, sent_at=float(index), hop=2, attempt=0,
        ))
    return frames


def _control_frames(count: int) -> list[Message]:
    """Frames whose payloads ride the generic tagged-value path."""
    rng = random.Random(12)
    frames = []
    for index in range(count):
        payload = {
            "op": "register",
            "peers": ["peer%04d:9020" % rng.randrange(211) for _ in range(5)],
            "epoch": index,
            "graceful": bool(index % 2),
        }
        frames.append(Message(
            sender="peer%04d:9020" % (index % 211), recipient="meta-index:9020",
            kind="register", payload=payload, size_bytes=256,
            message_id=index, sent_at=float(index), hop=1, attempt=0,
        ))
    return frames


_STAMP = HLCStamp(physical=1250.5, logical=3, worker=1)


def _median_frames_per_sec(run, count: int) -> float:
    run()  # warm caches (struct formats, the encoder's buffer)
    rates = []
    for _ in range(CODEC_REPEATS):
        began = time.perf_counter()
        run()
        rates.append(count / (time.perf_counter() - began))
    return statistics.median(rates)


def _wire_roundtrip(encoder: FrameEncoder, frames: list[Message]):
    def run() -> None:
        for message in frames:
            view = encoder.encode_view(message, _STAMP)
            decode_frame(view[4:])
            view.release()
    return run


def _pickle_roundtrip(frames: list[Message]):
    # The baseline the v2 codec replaced: the v1 wire path pickled the
    # message for the socket; stamped multicore frames would carry the
    # stamp in the same blob.
    def run() -> None:
        for message in frames:
            pickle.loads(pickle.dumps((message, _STAMP), protocol=pickle.HIGHEST_PROTOCOL))
    return run


def test_codec_against_the_pickle_baseline():
    """The hard codec gate: stamped MQP frames ≥1.5× the pickle baseline."""
    plans = _plan_frames(CODEC_FRAMES)
    controls = _control_frames(max(CODEC_FRAMES // 4, 50))
    encoder = FrameEncoder()
    wire_fps = _median_frames_per_sec(_wire_roundtrip(encoder, plans), len(plans))
    pickle_fps = _median_frames_per_sec(_pickle_roundtrip(plans), len(plans))
    speedup = wire_fps / pickle_fps
    ctl_wire_fps = _median_frames_per_sec(_wire_roundtrip(encoder, controls), len(controls))
    ctl_pickle_fps = _median_frames_per_sec(_pickle_roundtrip(controls), len(controls))
    ctl_speedup = ctl_wire_fps / ctl_pickle_fps
    mean_bytes = sum(len(m.payload) for m in plans) / len(plans)
    emit(
        f"MULTICORE  Wire codec vs pickle ({len(plans)} stamped frames, "
        f"~{mean_bytes:,.0f}B plans)",
        f"mqp: codec {wire_fps:,.0f} frames/s vs pickle {pickle_fps:,.0f} "
        f"-> {speedup:.2f}x; control payloads (tagged values): "
        f"codec {ctl_wire_fps:,.0f} vs pickle {ctl_pickle_fps:,.0f} "
        f"-> {ctl_speedup:.2f}x (ungated; the tagged codec buys the socket "
        f"safety, the MQP fast path buys the throughput)",
    )
    context = {"frames": len(plans), "mean_payload_bytes": round(mean_bytes)}
    benchjson.record_metric(
        BENCH, "codec_frames_per_sec", wire_fps, unit="frames/s",
        gate_min=CODEC_FRAMES_PER_SEC_FLOOR, **context,
    )
    benchjson.record_metric(
        BENCH, "codec_vs_pickle_speedup", speedup, unit="x",
        gate_min=CODEC_SPEEDUP_FLOOR, **context,
    )
    benchjson.record_metric(
        BENCH, "codec_ctl_vs_pickle_speedup", ctl_speedup, unit="x",
        frames=len(controls),
    )
    assert speedup >= CODEC_SPEEDUP_FLOOR, (
        f"wire codec moved {wire_fps:,.0f} frames/s vs pickle's "
        f"{pickle_fps:,.0f} — {speedup:.2f}x is below the "
        f"{CODEC_SPEEDUP_FLOOR}x floor"
    )
    assert wire_fps >= CODEC_FRAMES_PER_SEC_FLOOR


def test_encode_buffer_reuse():
    """Reusing one encoder buffer vs a fresh allocation per frame."""
    plans = _plan_frames(CODEC_FRAMES)
    shared = FrameEncoder()
    backing = shared._writer.buf

    def reused() -> None:
        for message in plans:
            shared.encode(message, _STAMP)

    def fresh() -> None:
        for message in plans:
            FrameEncoder().encode(message, _STAMP)

    reused_fps = _median_frames_per_sec(reused, len(plans))
    fresh_fps = _median_frames_per_sec(fresh, len(plans))
    speedup = reused_fps / fresh_fps
    # The reuse claim itself: the backing buffer object never changed.
    assert shared._writer.buf is backing
    emit(
        f"MULTICORE  Encode-buffer reuse ({len(plans)} frames)",
        f"shared encoder {reused_fps:,.0f} frames/s vs fresh-per-frame "
        f"{fresh_fps:,.0f} -> {speedup:.2f}x; backing buffer unchanged "
        f"across the run ({len(backing):,} bytes)",
    )
    benchjson.record_metric(
        BENCH, "encoder_reuse_speedup", speedup, unit="x", frames=len(plans),
    )


# --------------------------------------------------------------------------- #
# Process-parallel run phase
# --------------------------------------------------------------------------- #


def _timed_single_run() -> tuple[float, int]:
    """Single-process aio: build, then time only the run phase."""
    transport = build_transport("aio")
    scenario = build_scaleout_scenario(SPEC, transport=transport)
    network = scenario.network
    try:
        schedule_queries(scenario)
        before = network.metrics.messages_sent
        began = time.perf_counter()
        network.run_until_idle()
        elapsed = time.perf_counter() - began
        return elapsed, network.metrics.messages_sent - before
    finally:
        network.close()


def test_multicore_run_phase():
    """N workers vs one process: identical sequences, wall-clock speedup."""
    single_wall, run_messages = _timed_single_run()
    one_worker = run_scaleout(replace(SPEC, workers=1))
    many_workers = run_scaleout(replace(SPEC, workers=WORKERS))
    identity = sequence_identity(one_worker, many_workers)
    block = many_workers["multicore"]
    multicore_wall = block["run_wall_s"]
    speedup = single_wall / multicore_wall
    throughput = run_messages / multicore_wall
    # The ≥2x gate is defined at the issue's configuration — 4 workers,
    # 1,000 peers, a box with the cores to run them — and stays advisory
    # below it: a barrier-dominated small scenario (or a 1-core runner)
    # measures coordination overhead, not parallelism.
    gated = CORES >= 4 and WORKERS >= 4 and PEERS >= 1000
    emit(
        f"MULTICORE  Run phase ({PEERS} peers, {QUERIES} queries, "
        f"{WORKERS} workers on {CORES} cores)",
        f"single aio {single_wall:.3f}s vs {WORKERS}-worker "
        f"{multicore_wall:.3f}s -> {speedup:.2f}x "
        f"({throughput:,.0f} msgs/s run phase); 1-vs-{WORKERS} worker "
        f"sequence identity {identity}; windows={block['windows']} "
        f"barriers={block['barriers']} relay_frames={block['relay_frames']}"
        + ("" if gated else f"; speedup ungated ({CORES} core(s), "
           f"{WORKERS} workers, {PEERS} peers — gate needs >=4/4/1000)"),
    )
    context = {"workers": WORKERS, "peers": PEERS, "queries": QUERIES, "cpu_count": CORES}
    benchjson.record_metric(
        BENCH, "sequence_identity", identity, unit="ratio",
        gate_min=1.0, **context,
    )
    benchjson.record_metric(
        BENCH, "single_aio_run_wall_s", single_wall, unit="s",
        direction="lower", **context,
    )
    benchjson.record_metric(
        BENCH, "multicore_run_wall_s", multicore_wall, unit="s",
        direction="lower", **context,
    )
    benchjson.record_metric(
        BENCH, "multicore_run_messages_per_sec", throughput, unit="msgs/s", **context,
    )
    benchjson.record_metric(
        BENCH, "multicore_speedup", speedup, unit="x",
        gate_min=MULTICORE_SPEEDUP_FLOOR if gated else None, **context,
    )
    assert identity == 1.0, (
        f"1-worker and {WORKERS}-worker runs diverged (identity {identity})"
    )
    if gated:
        assert speedup >= MULTICORE_SPEEDUP_FLOOR, (
            f"{WORKERS} workers only reached {speedup:.2f}x over single-process "
            f"aio on {CORES} cores (floor {MULTICORE_SPEEDUP_FLOOR}x)"
        )


if __name__ == "__main__":
    raise SystemExit(benchjson.run_as_script(__file__))
