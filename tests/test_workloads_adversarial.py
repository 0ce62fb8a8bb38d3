"""Adversarial workload generators: properties, golden cases, live invariants."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import WorkloadError
from repro.harness.scaleout import ScaleoutSpec, build_scaleout_scenario, schedule_queries
from repro.workloads.adversarial import (
    FlashCrowdSchedule,
    flash_crowd_schedule,
    lying_area_swaps,
    select_free_riders,
    stale_crash_set,
    zipf_query_ranks,
)
from repro.workloads.distributions import make_rng, zipf_rank_sequence, zipf_weights

# Derandomized so property failures reproduce in CI without a seed database.
# Applied per-test (not via load_profile) so the choice cannot leak into other
# hypothesis suites through collection order.
derandomized = settings(derandomize=True, deadline=None, max_examples=40)


def _addresses(count: int) -> list[str]:
    return [f"peer{position:04d}:9020" for position in range(count)]


# --------------------------------------------------------------------------- #
# Zipf popularity
# --------------------------------------------------------------------------- #


class TestZipfProperties:
    @derandomized
    @given(st.integers(min_value=1, max_value=200), st.floats(min_value=0.0, max_value=3.0))
    def test_weights_are_a_monotone_distribution(self, count, skew):
        weights = zipf_weights(count, skew)
        assert len(weights) == count
        assert sum(weights) == pytest.approx(1.0)
        assert all(weights[i] >= weights[i + 1] for i in range(count - 1))
        assert all(weight > 0 for weight in weights)

    @derandomized
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=1, max_value=50),
        st.integers(min_value=0, max_value=100),
        st.floats(min_value=0.0, max_value=3.0),
    )
    def test_rank_sequence_shape(self, seed, count, length, skew):
        ranks = zipf_rank_sequence(make_rng(seed), count, length, skew)
        assert len(ranks) == length
        assert all(0 <= rank < count for rank in ranks)

    @derandomized
    @given(st.integers(min_value=0, max_value=10_000))
    def test_rank_sequence_is_seed_deterministic(self, seed):
        first = zipf_rank_sequence(make_rng(seed), 7, 40, 1.2)
        second = zipf_rank_sequence(make_rng(seed), 7, 40, 1.2)
        assert first == second

    def test_skew_concentrates_on_rank_zero(self):
        # With heavy skew the hottest rank dominates; uniform skew does not.
        skewed = zipf_query_ranks(make_rng(5), pool_size=10, length=2_000, skew=2.0)
        flat = zipf_rank_sequence(make_rng(5), 10, 2_000, 0.0)
        assert skewed.count(0) > 0.5 * len(skewed)
        assert flat.count(0) < 0.25 * len(flat)

    def test_rank_sequence_rejects_bad_arguments(self):
        with pytest.raises(WorkloadError):
            zipf_rank_sequence(make_rng(1), 0, 5)
        with pytest.raises(WorkloadError):
            zipf_rank_sequence(make_rng(1), 5, -1)
        assert zipf_rank_sequence(make_rng(1), 5, 0) == []

    def test_golden_sequence(self):
        # Pinned draw: any change to the sampling path shows up here first.
        assert zipf_rank_sequence(make_rng(11), 5, 10, 1.2) == [
            0, 1, 1, 0, 0, 3, 0, 0, 4, 1,
        ]


# --------------------------------------------------------------------------- #
# Flash crowds
# --------------------------------------------------------------------------- #


class TestFlashCrowdProperties:
    @derandomized
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=1, max_value=60),
        st.integers(min_value=1, max_value=12),
        st.floats(min_value=0.05, max_value=1.0),
    )
    def test_burst_invariants(self, seed, queries, pool_size, burst_fraction):
        schedule = flash_crowd_schedule(
            make_rng(seed), queries, pool_size,
            start_ms=100.0, interval_ms=50.0, burst_fraction=burst_fraction,
        )
        # The burst adds load on one area, not extra queries.
        assert len(schedule.times_ms) == queries
        assert len(schedule.ranks) == queries
        assert 1 <= schedule.burst_size <= queries
        # Burst members: hot query (rank 0), inside the burst window, sorted.
        burst_times = schedule.times_ms[-schedule.burst_size:]
        burst_ranks = schedule.ranks[-schedule.burst_size:]
        assert set(burst_ranks) == {0}
        assert all(
            schedule.burst_at_ms <= at <= schedule.burst_at_ms + schedule.burst_width_ms
            for at in burst_times
        )
        assert list(burst_times) == sorted(burst_times)
        # Background queries keep the steady cadence and avoid the hot query
        # whenever the pool offers an alternative.
        steady = queries - schedule.burst_size
        for position in range(steady):
            assert schedule.times_ms[position] == 100.0 + position * 50.0
            if pool_size > 1:
                assert 1 <= schedule.ranks[position] < pool_size
        assert len(schedule.burst_indexes) >= schedule.burst_size

    @derandomized
    @given(st.integers(min_value=0, max_value=10_000))
    def test_schedule_is_seed_deterministic(self, seed):
        def build():
            return flash_crowd_schedule(make_rng(seed), 20, 6, 0.0, 25.0)

        assert build() == build()

    def test_rejects_bad_arguments(self):
        rng = make_rng(1)
        with pytest.raises(WorkloadError):
            flash_crowd_schedule(rng, 0, 5, 0.0, 10.0)
        with pytest.raises(WorkloadError):
            flash_crowd_schedule(rng, 5, 0, 0.0, 10.0)
        with pytest.raises(WorkloadError):
            flash_crowd_schedule(rng, 5, 5, 0.0, 10.0, burst_fraction=0.0)
        with pytest.raises(WorkloadError):
            flash_crowd_schedule(rng, 5, 5, 0.0, 10.0, burst_width_ms=0.0)
        with pytest.raises(WorkloadError):
            FlashCrowdSchedule((1.0,), (0, 1), 0.0, 10.0, 1)


# --------------------------------------------------------------------------- #
# Misbehaving populations: free riders, stale crashes, lying pairs
# --------------------------------------------------------------------------- #


class TestPopulationSelectors:
    @derandomized
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=80),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_free_riders_are_a_sorted_subset(self, seed, count, fraction):
        addresses = _addresses(count)
        riders = select_free_riders(make_rng(seed), addresses, fraction)
        assert riders == sorted(riders)
        assert len(riders) == len(set(riders))
        assert set(riders) <= set(addresses)
        assert len(riders) == int(round(count * fraction))

    @derandomized
    @given(st.integers(min_value=0, max_value=10_000))
    def test_selection_ignores_caller_ordering(self, seed):
        addresses = _addresses(30)
        forward = select_free_riders(make_rng(seed), addresses, 0.3)
        backward = select_free_riders(make_rng(seed), list(reversed(addresses)), 0.3)
        assert forward == backward

    @derandomized
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=80),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_stale_crash_set_is_a_sorted_subset(self, seed, count, fraction):
        addresses = _addresses(count)
        crashed = stale_crash_set(make_rng(seed), addresses, fraction)
        assert crashed == sorted(crashed)
        assert set(crashed) <= set(addresses)
        assert len(crashed) == int(round(count * fraction))

    @derandomized
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=80),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_lying_pairs_are_disjoint(self, seed, count, fraction):
        addresses = _addresses(count)
        swaps = lying_area_swaps(make_rng(seed), addresses, fraction)
        touched = [address for pair in swaps for address in pair]
        assert len(touched) == len(set(touched))
        assert set(touched) <= set(addresses)

    def test_fraction_bounds_are_enforced(self):
        for selector in (select_free_riders, stale_crash_set, lying_area_swaps):
            with pytest.raises(WorkloadError):
                selector(make_rng(1), _addresses(10), -0.1)
            with pytest.raises(WorkloadError):
                selector(make_rng(1), _addresses(10), 1.1)


# --------------------------------------------------------------------------- #
# Live invariants on a built scenario
# --------------------------------------------------------------------------- #


def _run(spec: ScaleoutSpec):
    scenario = build_scaleout_scenario(spec)
    with scenario.cluster as cluster:
        schedule_queries(scenario)
        cluster.run_until_idle()
    return scenario


class TestScenarioInvariants:
    def test_free_riders_never_evaluate(self):
        spec = ScaleoutSpec(
            name="riders", topology="small-world", peers=40,
            workload="garage-sale", queries=6, free_rider_fraction=0.3,
        )
        scenario = _run(spec)
        assert len(scenario.free_riders) == int(round(40 * 0.3))
        for address in scenario.free_riders:
            processor = scenario.cluster.session(address).peer.processor
            assert processor.free_ride
            assert processor.subplans_evaluated == 0
        # The cooperative rest of the population still did the work.
        riders = set(scenario.free_riders)
        evaluated = sum(
            peer.processor.subplans_evaluated
            for peer in scenario.cluster.peers()
            if peer.address not in riders
        )
        assert evaluated > 0

    def test_stale_crashes_take_peers_offline_without_telling_catalogs(self):
        spec = ScaleoutSpec(
            name="stale", topology="small-world", peers=40,
            workload="garage-sale", queries=4, catalog_mode="stale",
        )
        scenario = _run(spec)
        assert scenario.stale_crashed
        for address in scenario.stale_crashed:
            assert not scenario.network.node(address).online
        # At least one live catalog still lists a dead peer as a server.
        crashed_set = set(scenario.stale_crashed)
        still_listed = any(
            crashed in peer.catalog.servers
            for crashed in crashed_set
            for peer in scenario.cluster.peers()
            if peer.address not in crashed_set
        )
        assert still_listed

    def test_lying_catalogs_rewrite_entries(self):
        spec = ScaleoutSpec(
            name="lying", topology="small-world", peers=40,
            workload="garage-sale", queries=4, catalog_mode="lying",
        )
        scenario = _run(spec)
        assert scenario.poisoned_entries > 0
