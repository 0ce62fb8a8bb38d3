"""Adversarial workload generators: the scenarios that try to break us.

The steady-state workloads (:mod:`repro.workloads.garage_sale`,
:mod:`repro.workloads.gene_expression`) model cooperative populations.
Production claims need the opposite: query storms concentrated on a few hot
areas, peers that consume routing effort but contribute no answers, and
catalogs whose entries are wrong — either *stale* (they describe peers that
silently died) or *lying* (they claim interest areas their servers never
held, the multiple-origin/conflicting-authority failure mode of the BGP
MOAS analysis in PAPERS.md).

Everything here is a pure, seeded *decision* generator: given an RNG and a
population it decides who misbehaves, when bursts fire, and which catalog
entries to poison.  Applying those decisions to a live scenario is the
harness's job (:mod:`repro.harness.scaleout`), so the generators stay
trivially property-testable.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..catalog import ServerEntry
from ..errors import WorkloadError
from ..rng import Generator
from .distributions import zipf_rank_sequence

__all__ = [
    "QUERY_MIXES",
    "CATALOG_MODES",
    "FlashCrowdSchedule",
    "zipf_query_ranks",
    "flash_crowd_schedule",
    "select_free_riders",
    "stale_crash_set",
    "lying_area_swaps",
    "poison_catalog",
]

QUERY_MIXES = ("steady", "zipf", "flash-crowd")
"""Query popularity mixes a scale-out spec can select."""

CATALOG_MODES = ("honest", "stale", "lying")
"""Catalog integrity modes a scale-out spec can select."""


# --------------------------------------------------------------------------- #
# Query popularity: Zipf replay and flash crowds
# --------------------------------------------------------------------------- #


def zipf_query_ranks(
    rng: Generator, pool_size: int, length: int, skew: float = 1.2
) -> list[int]:
    """Which pooled query each issued query replays, Zipf-skewed.

    Rank 0 is the hottest query of the pool; with the default skew roughly
    a third of all issued queries hit it — the file-sharing-style popularity
    regime the paper's locality argument assumes.
    """
    return zipf_rank_sequence(rng, pool_size, length, skew)


@dataclass(frozen=True)
class FlashCrowdSchedule:
    """A resolved flash-crowd issue schedule.

    ``times_ms`` and ``ranks`` are parallel: query ``i`` of the run fires at
    ``times_ms[i]`` and replays pool entry ``ranks[i]``.  Burst members all
    replay the hot query (rank 0) and all fire inside
    ``[burst_at_ms, burst_at_ms + burst_width_ms]``; background queries keep
    the steady cadence.
    """

    times_ms: tuple[float, ...]
    ranks: tuple[int, ...]
    burst_at_ms: float
    burst_width_ms: float
    burst_size: int

    def __post_init__(self) -> None:
        if len(self.times_ms) != len(self.ranks):
            raise WorkloadError("flash-crowd times and ranks must be parallel")


def flash_crowd_schedule(
    rng: Generator,
    queries: int,
    pool_size: int,
    start_ms: float,
    interval_ms: float,
    burst_fraction: float = 0.5,
    burst_width_ms: float = 40.0,
) -> FlashCrowdSchedule:
    """Turn a steady query cadence into a flash crowd on the hottest query.

    The last ``burst_fraction`` of the scheduled queries collapse onto the
    hot query (pool rank 0) inside a ``burst_width_ms`` window opening where
    the steady schedule had reached; the leading queries keep their steady
    spacing and draw uniformly from the rest of the pool.  The burst is
    therefore *additional load on one area*, not extra queries: run reports
    stay comparable against the steady mix by query count.
    """
    if queries < 1:
        raise WorkloadError("flash_crowd_schedule needs at least one query")
    if pool_size < 1:
        raise WorkloadError("flash_crowd_schedule needs a non-empty query pool")
    if not 0.0 < burst_fraction <= 1.0:
        raise WorkloadError("burst_fraction must be in (0, 1]")
    if burst_width_ms <= 0.0:
        raise WorkloadError("burst_width_ms must be positive")
    burst_size = max(1, int(round(queries * burst_fraction)))
    steady_count = queries - burst_size
    times: list[float] = []
    ranks: list[int] = []
    for position in range(steady_count):
        times.append(start_ms + position * interval_ms)
        if pool_size == 1:
            ranks.append(0)
        else:
            ranks.append(1 + int(rng.integers(pool_size - 1)))
    burst_at = start_ms + steady_count * interval_ms
    offsets = sorted(float(rng.uniform(0.0, burst_width_ms)) for _ in range(burst_size))
    for offset in offsets:
        times.append(burst_at + offset)
        ranks.append(0)
    return FlashCrowdSchedule(
        times_ms=tuple(times),
        ranks=tuple(ranks),
        burst_at_ms=burst_at,
        burst_width_ms=burst_width_ms,
        burst_size=burst_size,
    )


# --------------------------------------------------------------------------- #
# Free riders: forward but never evaluate
# --------------------------------------------------------------------------- #


def select_free_riders(
    rng: Generator, addresses: list[str], fraction: float
) -> list[str]:
    """The seeded subset of peers that will forward but never evaluate.

    Sorted for determinism: the same rng state and population always yields
    the same rider set, independent of the caller's address ordering.
    """
    if not 0.0 <= fraction <= 1.0:
        raise WorkloadError(f"free-rider fraction must be in [0, 1], got {fraction}")
    count = int(round(len(addresses) * fraction))
    if count == 0:
        return []
    pool = sorted(addresses)
    chosen = rng.choice(len(pool), size=count, replace=False)
    return sorted(pool[int(index)] for index in chosen)


# --------------------------------------------------------------------------- #
# Catalog poisoning: stale and lying authority
# --------------------------------------------------------------------------- #


def stale_crash_set(
    rng: Generator, addresses: list[str], fraction: float = 0.2
) -> list[str]:
    """Peers that die silently at t≈0, leaving every catalog entry stale.

    The catalogs are never told: routing keeps chasing the dead addresses,
    which is precisely the staleness the currency/completeness tradeoff is
    supposed to surface as dropped messages and lost recall.
    """
    if not 0.0 <= fraction <= 1.0:
        raise WorkloadError(f"stale fraction must be in [0, 1], got {fraction}")
    count = int(round(len(addresses) * fraction))
    if count == 0:
        return []
    pool = sorted(addresses)
    chosen = rng.choice(len(pool), size=count, replace=False)
    return sorted(pool[int(index)] for index in chosen)


def lying_area_swaps(
    rng: Generator, addresses: list[str], fraction: float = 0.25
) -> list[tuple[str, str]]:
    """Disjoint pairs of base servers whose advertised areas get swapped.

    Each pair models conflicting authority: both catalogs' entries now claim
    an interest area the server does not hold, so area-routed plans arrive
    at peers with none of the requested data.  Pairs are disjoint and the
    pairing is seeded, so the same population lies the same way every run.
    """
    if not 0.0 <= fraction <= 1.0:
        raise WorkloadError(f"lying fraction must be in [0, 1], got {fraction}")
    pool = sorted(addresses)
    pair_count = int(round(len(pool) * fraction / 2.0))
    if pair_count == 0 or len(pool) < 2:
        return []
    chosen = rng.choice(len(pool), size=min(2 * pair_count, len(pool) - len(pool) % 2), replace=False)
    picked = [pool[int(index)] for index in chosen]
    return [(picked[i], picked[i + 1]) for i in range(0, len(picked) - 1, 2)]


def poison_catalog(catalog, swaps: list[tuple[str, str]]) -> int:
    """Apply lying-area swaps to one catalog; returns entries rewritten.

    Only catalogs that know *both* ends of a pair are affected — a regional
    index server that has never heard of one endpoint keeps its honest view,
    exactly like a BGP speaker outside the leak's propagation scope.
    """
    poisoned = 0
    for first, second in swaps:
        entry_a = catalog.servers.get(first)
        entry_b = catalog.servers.get(second)
        if entry_a is None or entry_b is None:
            continue
        area_a, area_b = entry_a.area, entry_b.area
        for address, role, area, authoritative, collections in (
            (first, entry_a.role, area_b, entry_a.authoritative, entry_a.collections),
            (second, entry_b.role, area_a, entry_b.authoritative, entry_b.collections),
        ):
            replacement = ServerEntry(
                address=address,
                role=role,
                area=area,
                authoritative=authoritative,
                collections=list(collections),
            )
            # register_server merges areas on re-registration (it is built
            # to never lose knowledge); a lie must *replace*, so drop the
            # honest entry first.
            catalog.forget_server(address)
            catalog.register_server(replacement)
            poisoned += 1
    return poisoned
