"""Multicore execution: HLC laws, barrier service, sharding, identity, e2e."""

from __future__ import annotations

import threading
import time
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.harness.scaleout import ScaleoutSpec, run_scaleout
from repro.multicore import (
    BarrierBroken,
    BarrierService,
    HLCStamp,
    HybridLogicalClock,
    MulticoreError,
    WorkerCrashed,
    sequence_identity,
    shard_assignment,
)
from repro.multicore.launcher import window_ms_for
from repro.multicore.sharding import owner_of

# Derandomized so property failures reproduce in CI without a seed database.
derandomized = settings(derandomize=True, deadline=None, max_examples=60)

_SPEC = ScaleoutSpec(
    name="mc-test", topology="small-world", peers=24,
    workload="garage-sale", churn="light", queries=3, seed=11,
)


# --------------------------------------------------------------------------- #
# Hybrid logical clocks
# --------------------------------------------------------------------------- #


class TestHybridLogicalClock:
    @derandomized
    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=2, max_size=40))
    def test_ticks_are_strictly_increasing(self, times):
        # Even when simulated time stalls or regresses (window replay), the
        # stamp sequence is strictly monotone.
        clock = HybridLogicalClock(worker=0)
        stamps = [clock.tick(now) for now in times]
        assert all(a < b for a, b in zip(stamps, stamps[1:]))

    @derandomized
    @given(
        st.floats(min_value=0.0, max_value=1e6),
        st.integers(min_value=0, max_value=50),
        st.floats(min_value=0.0, max_value=1e6),
    )
    def test_observe_respects_happened_before(self, remote_physical, remote_logical, now):
        clock = HybridLogicalClock(worker=1)
        before = clock.tick(now)
        remote = HLCStamp(remote_physical, remote_logical, worker=0)
        merged = clock.observe(remote, now)
        # The receive stamp is strictly greater than both the carried stamp
        # and every stamp this clock issued earlier.
        assert merged > remote
        assert merged > before
        assert clock.tick(now) > merged

    def test_stamp_never_runs_behind_simulated_time(self):
        clock = HybridLogicalClock()
        assert clock.tick(5.0).physical == 5.0
        assert clock.tick(3.0).physical == 5.0  # regression absorbed
        assert clock.observe(HLCStamp(1.0, 9, 3), now=7.5).physical == 7.5

    def test_total_order_across_workers(self):
        # Same physical, same logical, different workers: never equal.
        assert HLCStamp(1.0, 0, 0) < HLCStamp(1.0, 0, 1)
        assert HLCStamp(1.0, 0, 1) != HLCStamp(1.0, 0, 2)


# --------------------------------------------------------------------------- #
# Barrier service
# --------------------------------------------------------------------------- #


class TestBarrierService:
    def test_single_party_rounds(self):
        barrier = BarrierService(1, lambda payloads: sum(payloads.values()))
        assert barrier.enter(0, 5) == 5
        assert barrier.enter(0, 7) == 7
        assert barrier.rounds_completed == 2

    def test_all_parties_see_one_reduction(self):
        barrier = BarrierService(3, lambda payloads: dict(sorted(payloads.items())))
        decisions = {}

        def party(wid: int) -> None:
            decisions[wid] = barrier.enter(wid, wid * 10)

        threads = [threading.Thread(target=party, args=(wid,)) for wid in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert decisions == {wid: {0: 0, 1: 10, 2: 20} for wid in range(3)}
        assert barrier.rounds_completed == 1

    def test_duplicate_entry_is_a_protocol_error(self):
        barrier = BarrierService(2, lambda payloads: None)

        def first_entry() -> None:
            with pytest.raises(BarrierBroken):  # released by the teardown below
                barrier.enter(0, "x")

        thread = threading.Thread(target=first_entry)
        thread.start()
        time.sleep(0.05)
        with pytest.raises(MulticoreError, match="twice"):
            barrier.enter(0, "again")
        barrier.break_barrier("test teardown")
        thread.join(timeout=10)

    def test_reducer_failure_breaks_the_barrier(self):
        def exploding(payloads):
            raise ValueError("boom")

        barrier = BarrierService(2, exploding)
        failures: list[Exception] = []

        def parked() -> None:
            try:
                barrier.enter(0, None)
            except Exception as error:  # noqa: BLE001 - collected for assertion
                failures.append(error)

        thread = threading.Thread(target=parked)
        thread.start()
        time.sleep(0.05)
        with pytest.raises(BarrierBroken, match="reducer failed"):
            barrier.enter(1, None)
        thread.join(timeout=10)
        assert len(failures) == 1 and isinstance(failures[0], BarrierBroken)

    def test_worker_crash_while_parked(self):
        # The regression the launcher depends on: a party is parked at the
        # barrier, another party's connection dies, break_barrier must wake
        # the parked thread with BarrierBroken instead of leaving it forever.
        barrier = BarrierService(2, lambda payloads: "never")
        failures: list[Exception] = []
        parked_event = threading.Event()

        def parked() -> None:
            parked_event.set()
            try:
                barrier.enter(0, None)
            except Exception as error:  # noqa: BLE001 - collected for assertion
                failures.append(error)

        thread = threading.Thread(target=parked)
        thread.start()
        assert parked_event.wait(timeout=5)
        time.sleep(0.05)
        barrier.break_barrier("worker 1 control connection lost")
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert len(failures) == 1 and isinstance(failures[0], BarrierBroken)
        assert "connection lost" in str(failures[0])
        # The barrier stays broken for any future entrant.
        with pytest.raises(BarrierBroken):
            barrier.enter(1, None)
        assert barrier.broken is not None

    def test_timeout_raises_instead_of_hanging(self):
        barrier = BarrierService(2, lambda payloads: None, timeout_s=0.2)
        began = time.perf_counter()
        with pytest.raises(BarrierBroken, match="timed out"):
            barrier.enter(0, None)
        assert time.perf_counter() - began < 5.0


# --------------------------------------------------------------------------- #
# Shard assignment
# --------------------------------------------------------------------------- #


class TestShardAssignment:
    @derandomized
    @given(st.integers(min_value=0, max_value=200), st.integers(min_value=1, max_value=9))
    def test_contiguous_and_balanced(self, count, workers):
        addresses = [f"peer{position:04d}:9020" for position in range(count)]
        assignment = shard_assignment(addresses, workers)
        assert len(assignment) == count
        owners = [assignment[address] for address in addresses]
        # Contiguous in population order: owners never decrease.
        assert owners == sorted(owners)
        sizes = [owners.count(worker) for worker in range(workers)]
        if count:
            assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == count

    def test_deterministic_across_calls(self):
        addresses = [f"peer{position:04d}:9020" for position in range(37)]
        assert shard_assignment(addresses, 4) == shard_assignment(list(addresses), 4)

    def test_infrastructure_defaults_to_worker_zero(self):
        assignment = shard_assignment(["a:1", "b:2"], 2)
        assert owner_of(assignment, "meta-index:9020") == 0
        assert owner_of(assignment, "b:2") == 1

    def test_rejects_zero_workers(self):
        with pytest.raises(SimulationError):
            shard_assignment(["a:1"], 0)


# --------------------------------------------------------------------------- #
# Sequence identity
# --------------------------------------------------------------------------- #


def _report_stub(answers: int = 3, workers: int | None = None) -> dict:
    scenario = {"name": "s", "peers": 24}
    if workers is not None:
        scenario["workers"] = workers
    report = {
        "scenario": scenario,
        "population": {"total_nodes": 30},
        "topology": {"kind": "small-world"},
        "traffic": {"messages": 13.0},
        "queries": [
            {"query": "q0", "answers": answers, "expected": answers,
             "recall": 1.0, "latency_ms": 50.0, "messages": 3},
        ],
        "processing": {"plans_processed": 9},
    }
    if workers is not None:
        report["multicore"] = {"workers": workers, "windows": 5}
    return report


class TestSequenceIdentity:
    def test_identical_reports_score_one(self):
        assert sequence_identity(_report_stub(), _report_stub()) == 1.0

    def test_multicore_block_and_workers_knob_are_excluded(self):
        # A multicore report carries the multicore block and the workers knob;
        # neither may count against identity with the in-process reference.
        assert sequence_identity(_report_stub(), _report_stub(workers=4)) == 1.0

    def test_answer_divergence_fails(self):
        assert sequence_identity(_report_stub(answers=3), _report_stub(answers=2)) < 1.0

    def test_schema_divergence_fails(self):
        mutated = _report_stub()
        mutated["resilience"] = {"retries_sent": 0}
        assert sequence_identity(_report_stub(), mutated) < 1.0

    def test_timing_columns_are_ignored(self):
        slower = _report_stub()
        slower["queries"][0]["latency_ms"] = 999.0
        slower["traffic"] = {"messages": 13.0}
        assert sequence_identity(_report_stub(), slower) == 1.0


# --------------------------------------------------------------------------- #
# Spec / API surface
# --------------------------------------------------------------------------- #


class TestSpecValidation:
    def test_negative_workers_rejected(self):
        with pytest.raises(SimulationError):
            replace(_SPEC, workers=-1).validate()

    def test_workers_require_mqp_routing(self):
        with pytest.raises(SimulationError):
            replace(_SPEC, workers=2, routing="gnutella").validate()

    def test_workers_exclude_subscriptions_and_catalog_tier(self):
        with pytest.raises(SimulationError):
            replace(_SPEC, workers=2, subscribers=4, mutation_rounds=1).validate()
        with pytest.raises(SimulationError):
            replace(_SPEC, workers=2, catalog_shards=2, catalog_replicas=2).validate()

    def test_cluster_accepts_a_worker_count(self):
        from repro.api import Cluster

        with Cluster(workers=2) as cluster:
            assert cluster.workers == 2

    def test_window_is_positive_and_bounded(self):
        window = window_ms_for(_SPEC)
        assert 0.0 < window <= 5.0


# --------------------------------------------------------------------------- #
# End to end: worker processes vs the in-process run
# --------------------------------------------------------------------------- #


class TestMulticoreEndToEnd:
    def test_two_workers_match_the_inprocess_run(self):
        single = run_scaleout(_SPEC)
        multi = run_scaleout(replace(_SPEC, workers=2))
        assert sequence_identity(single, multi) == 1.0
        # Answer rows agree column for column (timings legitimately differ).
        for mine, theirs in zip(single["queries"], multi["queries"]):
            for column in ("query", "answers", "expected", "recall", "messages"):
                assert mine[column] == theirs[column]
        # Deterministic replicated bootstrap + owner-only run phase keeps
        # even the traffic totals exact, not just the answer sequence.
        assert multi["traffic"]["messages"] == single["traffic"]["messages"]
        assert multi["traffic"]["bytes"] == single["traffic"]["bytes"]
        block = multi["multicore"]
        assert block["workers"] == 2
        assert block["windows"] >= 1
        assert block["barriers"] >= block["windows"]

    def test_flag_off_report_has_no_multicore_surface(self):
        report = run_scaleout(_SPEC)
        assert "multicore" not in report
        assert "workers" not in report["scenario"]

    def test_killed_worker_raises_typed_error_not_a_hang(self, monkeypatch):
        # The teardown regression: worker 1 dies at its third barrier while
        # the others are parked.  The launcher must reap every child and
        # surface WorkerCrashed promptly instead of wedging on the barrier.
        monkeypatch.setenv("REPRO_MULTICORE_KILL_WORKER", "1@3")
        began = time.perf_counter()
        with pytest.raises(WorkerCrashed):
            run_scaleout(replace(_SPEC, workers=2))
        assert time.perf_counter() - began < 60.0
