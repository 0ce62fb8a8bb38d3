"""Random-distribution helpers shared by the workload generators.

All randomness in the reproduction flows through seeded
:class:`repro.rng.Generator` instances — a pure-Python PCG64 stream that
reproduces ``numpy.random.default_rng`` draw for draw — so every dataset
and query workload is exactly reproducible from its parameters, with no
third-party package installed.

Zipf draws follow numpy's ``Generator.choice(count, size, p=weights)``: the
weights are normalised by numpy's pairwise sum, the CDF is their sequential
running sum divided by its last element, and each draw is one ``random()``
bisected to the right.  The CDF is built once per ``(count, skew)``.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache
from typing import Sequence, TypeVar

from ..errors import WorkloadError
from ..rng import Generator, default_rng

__all__ = [
    "zipf_weights",
    "zipf_choice",
    "zipf_rank_sequence",
    "make_rng",
]

T = TypeVar("T")

def make_rng(seed: int) -> Generator:
    """A seeded generator (one per workload object, never shared globally)."""
    return default_rng(seed)


def zipf_weights(count: int, skew: float = 1.0) -> list[float]:
    """Normalized Zipf weights for ranks ``1..count``.

    ``skew`` of 0 gives a uniform distribution; larger values concentrate
    probability on the first ranks.  File-sharing-style popularity (a few
    very popular categories, a long tail) is the regime the paper's
    locality argument assumes.
    """
    if count < 1:
        raise WorkloadError("zipf_weights needs count >= 1")
    return list(_zipf_weights(count, float(skew)))


@lru_cache(maxsize=256)
def _zipf_weights(count: int, skew: float) -> tuple[float, ...]:
    weights = [float(rank) ** -skew for rank in range(1, count + 1)]
    total = _pairwise_sum(weights, 0, count)
    return tuple(weight / total for weight in weights)


def _pairwise_sum(values: list[float], start: int, count: int) -> float:
    """numpy's float64 summation: 8 accumulators over blocks of at most 128.

    Plain loops, not ``sum()``: from Python 3.12 ``sum`` compensates.
    """
    if count < 8:
        total = 0.0
        for value in values[start : start + count]:
            total += value
        return total
    if count <= 128:
        lanes = values[start : start + 8]
        position = start + 8
        end = start + count - count % 8
        while position < end:
            for lane in range(8):
                lanes[lane] += values[position + lane]
            position += 8
        total = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) + (
            (lanes[4] + lanes[5]) + (lanes[6] + lanes[7])
        )
        for value in values[position : start + count]:
            total += value
        return total
    half = count // 2
    half -= half % 8
    return _pairwise_sum(values, start, half) + _pairwise_sum(values, start + half, count - half)


@lru_cache(maxsize=256)
def _zipf_cdf(count: int, skew: float) -> tuple[float, ...]:
    running = 0.0
    cumulative = []
    for weight in _zipf_weights(count, skew):
        running += weight
        cumulative.append(running)
    last = cumulative[-1]
    return tuple(value / last for value in cumulative)


def zipf_choice(
    rng: Generator,
    items: Sequence[T],
    skew: float = 1.0,
    size: int | None = None,
) -> T | list[T]:
    """Draw from ``items`` with Zipf-distributed popularity over their order."""
    if not items:
        raise WorkloadError("cannot draw from an empty sequence")
    cdf = _zipf_cdf(len(items), float(skew))
    if size is None:
        return items[bisect_right(cdf, rng.random())]
    return [items[bisect_right(cdf, rng.random())] for _ in range(size)]


def zipf_rank_sequence(
    rng: Generator, count: int, length: int, skew: float = 1.0
) -> list[int]:
    """Draw ``length`` rank indexes in ``[0, count)`` with Zipf popularity.

    The adversarial query mixes replay a fixed pool of distinct queries with
    skewed popularity — rank 0 is the hottest.  Returning plain indexes (not
    the items) lets callers replay *any* kind of pooled object: query specs,
    interest areas, peer addresses.
    """
    if length < 0:
        raise WorkloadError("zipf_rank_sequence needs length >= 0")
    if count < 1:
        raise WorkloadError("zipf_rank_sequence needs count >= 1")
    cdf = _zipf_cdf(count, float(skew))
    return [bisect_right(cdf, rng.random()) for _ in range(length)]
