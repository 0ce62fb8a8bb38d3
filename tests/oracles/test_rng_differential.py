"""Differential test: ``repro.rng`` reproduces numpy's default generator.

Every method and every branch the package reaches is compared stream for
stream against ``numpy.random.default_rng`` on the same seed.  Skipped when
numpy is not installed (it is a test extra, not a runtime dependency).
"""

from __future__ import annotations

import math

import pytest

np = pytest.importorskip("numpy")

from repro.rng import _ZIGGURAT_NOR_R, default_rng  # noqa: E402
from repro.workloads.distributions import (  # noqa: E402
    zipf_choice,
    zipf_rank_sequence,
    zipf_weights,
)

SEEDS = (0, 1, 2, 7, 11, 12, 42, 99, 2**32 - 1, 2**32, 2**40 + 7, 2**64 + 3, 2**127 + 11)


def _pairs(seed):
    return np.random.default_rng(seed), default_rng(seed)


def _same_stream(seed, count, numpy_draw, draw):
    reference, ours = _pairs(seed)
    for index in range(count):
        expected = numpy_draw(reference, index)
        assert draw(ours, index) == expected, (seed, index)


@pytest.mark.parametrize("seed", SEEDS)
def test_random_and_uniform(seed):
    _same_stream(seed, 500, lambda r, i: float(r.random()), lambda r, i: r.random())
    _same_stream(
        seed, 500, lambda r, i: float(r.uniform(-3.5, 9.25)), lambda r, i: r.uniform(-3.5, 9.25)
    )


BOUNDS = (1, 2, 3, 5, 37, 100, 1000, 2**20 + 3, 2**31 + 5, 2**32 - 1, 2**32)


@pytest.mark.parametrize("seed", SEEDS)
def test_integers(seed):
    _same_stream(
        seed, 600,
        lambda r, i: int(r.integers(BOUNDS[i % len(BOUNDS)])),
        lambda r, i: r.integers(BOUNDS[i % len(BOUNDS)]),
    )
    _same_stream(seed, 300, lambda r, i: int(r.integers(1, 4)), lambda r, i: r.integers(1, 4))
    _same_stream(seed, 300, lambda r, i: int(r.integers(-7, 8)), lambda r, i: r.integers(-7, 8))


def test_integers_of_one_value_consume_nothing():
    reference, ours = _pairs(5)
    for _ in range(10):
        assert ours.integers(1) == int(reference.integers(1)) == 0
    assert ours.random() == float(reference.random())


@pytest.mark.parametrize("seed", SEEDS)
def test_integers_interleaved_with_random_keep_the_buffered_half(seed):
    # An odd number of 32-bit draws leaves the upper half of a 64-bit output
    # buffered; random() must not consume it, the next integers() must.
    pattern = (37, None, 5, None, None, 1000, 3, None)

    def draw(rng, index):
        bound = pattern[index % len(pattern)]
        if bound is None:
            return float(rng.random())
        return int(rng.integers(bound))

    _same_stream(seed, 800, draw, draw)


@pytest.mark.parametrize("lam", [0.0, 0.5, 2.5, 6.0, 9.99, 10.0, 12.0, 50.0, 1000.0])
def test_poisson(lam):
    for seed in SEEDS[:6]:
        _same_stream(seed, 400, lambda r, i: int(r.poisson(lam)), lambda r, i: r.poisson(lam))


def test_lognormal_hundred_thousand_draws_reach_the_ziggurat_base_layer():
    reference, ours = _pairs(11)
    tails = 0
    for index in range(100_000):
        expected = float(reference.standard_normal())
        assert ours.standard_normal() == expected, index
        tails += abs(expected) > _ZIGGURAT_NOR_R
    assert tails > 0  # only layer 0's tail sampler returns beyond r
    reference, ours = _pairs(12)
    for index in range(100_000):
        assert ours.lognormal(2.0, 0.8) == float(reference.lognormal(2.0, 0.8)), index


@pytest.mark.parametrize("count", range(1, 301))
def test_zipf_draws_match_choice_with_p(count):
    skew = (0.9, 1.0, 1.1, 1.2)[count % 4]
    weights = np.array(zipf_weights(count, skew))
    reference, ours = _pairs(count)
    expected = reference.choice(count, size=40, p=weights).tolist()
    assert zipf_rank_sequence(ours, count, 40, skew) == expected
    items = list(range(count))
    for _ in range(5):
        assert zipf_choice(ours, items, skew) == int(reference.choice(count, p=weights))


@pytest.mark.parametrize("skew,step", [(1.1, 1), (0.9, 1), (0.0, 7), (1.0, 7), (1.2, 7), (2.5, 7)])
def test_zipf_weights_normalise_by_numpys_pairwise_sum(skew, step):
    # The same powers (numpy's scalar pow is the C library's), numpy's sum.
    powers = np.array([np.float64(rank) ** np.float64(-skew) for rank in range(1, 2001)])
    for count in range(1, 2001, step):
        prefix = powers[:count]
        assert zipf_weights(count, skew) == (prefix / prefix.sum()).tolist(), count


def test_zipf_weights_within_a_few_ulp_of_numpys_vector_power():
    # numpy's array power may use SVML (AVX-512), which is not the C library's pow.
    for skew in (0.9, 1.1, 1.2):
        for count in (1, 7, 8, 9, 127, 128, 129, 300, 2000):
            powers = np.arange(1, count + 1, dtype=float) ** (-skew)
            for ours, theirs in zip(zipf_weights(count, skew), (powers / powers.sum()).tolist()):
                assert abs(ours - theirs) <= 8 * math.ulp(theirs)


SAMPLES = (
    (1, 1), (2, 2), (10, 10), (10, 0), (100, 1), (100, 2), (100, 3), (50, 1), (51, 2),
    (200, 10), (200, 200), (1000, 50), (1000, 5), (10000, 200), (10000, 201),
    (10001, 200), (10001, 201), (12000, 241), (20000, 30), (20000, 1000),
)


@pytest.mark.parametrize("seed", SEEDS[:5])
def test_choice_without_replacement(seed):
    reference, ours = _pairs(seed)
    for population, size in SAMPLES * 3:
        expected = reference.choice(population, size=size, replace=False).tolist()
        assert ours.choice(population, size=size, replace=False) == expected, (population, size)


@pytest.mark.parametrize("seed", SEEDS[:5])
def test_choice_of_strings_without_replacement(seed):
    peers = [f"peer{index:03d}:9020" for index in range(300)]
    reference, ours = _pairs(seed)
    for population, size in ((300, 15), (300, 1), (60, 60), (120, 6), (7, 3)) * 4:
        pool = peers[:population]
        expected = [str(value) for value in reference.choice(pool, size=size, replace=False)]
        assert ours.choice(pool, size=size, replace=False) == expected


@pytest.mark.parametrize("seed", SEEDS[:5])
def test_shuffle(seed):
    reference, ours = _pairs(seed)
    for length in list(range(51)) * 2:
        expected = list(range(length))
        reference.shuffle(expected)
        values = list(range(length))
        ours.shuffle(values)
        assert values == expected, length
