"""CATALOG TIER — sharded lookup throughput, hot-area caching, outage completeness.

Three claims from the sharded, replicated catalog tier
(:mod:`repro.catalogtier`):

* **Sharded lookup throughput** — at the thousand-peer entry population,
  routing each lookup to its owning shard (a quarter of the entries,
  answers memoized in the shard's :class:`AnswerCache`) sustains >= 2x
  the lookups-per-second of one monolithic catalog holding everything.
  The raw rates are recorded alongside as context.
* **Hot-area hit rate** — under a Zipf-skewed lookup workload (the
  file-sharing popularity regime of the paper's locality argument) the
  answer caches serve >= 80% of lookups without touching the catalog
  index.
* **Outage completeness** — the ``sharded-catalog`` configuration (4
  shards x 3 replicas, 10% seeded link loss, reliable delivery) keeps
  every query's recall at 1.0 while one replica of group 0 is crashed
  mid-query and later rejoins.

Wall-clock rates use ``time.perf_counter``; the completeness cell runs in
simulated time and is fully deterministic.  ``REPRO_BENCH_QUICK=1``
shrinks the entry population for CI smoke runs.
"""

from __future__ import annotations

import time

import pytest

import benchjson
from conftest import emit
from repro.catalog import Catalog, ServerEntry, ServerRole
from repro.catalogtier import AnswerCache, ShardMap
from repro.harness.report import format_table
from repro.harness.scaleout import (
    ScaleoutSpec,
    _garage_sale_population,
    _index_areas,
    _place_index_areas,
    run_scaleout,
)
from repro.workloads.adversarial import zipf_query_ranks
from repro.workloads.distributions import make_rng

QUICK = benchjson.quick_mode()
BENCH = "catalog_tier"

POP_PEERS = 200 if QUICK else 1000
LOOKUPS = 600 if QUICK else 3000
SHARDS = 4

SPEEDUP_GATE = 2.0
HIT_RATE_GATE = 0.8
COMPLETENESS_GATE = 1.0


@pytest.fixture(scope="module")
def population():
    """The thousand-peer garage-sale entry population plus a Zipf lookup tape."""
    spec = ScaleoutSpec(name="tier-bench", peers=POP_PEERS, workload="garage-sale", seed=11)
    namespace, data_peers, _ = _garage_sale_population(spec)
    hot_areas = _index_areas(namespace, data_peers)
    ranks = zipf_query_ranks(make_rng(spec.seed + 4), len(hot_areas), LOOKUPS)
    lookups = [hot_areas[rank] for rank in ranks]
    return hot_areas, data_peers, lookups


def _entries(data_peers):
    """Fresh entry objects per catalog — registration merges areas in place."""
    return [
        ServerEntry(peer.address, ServerRole.BASE, peer.area) for peer in data_peers
    ]


@pytest.fixture(scope="module")
def lookup_cell(population):
    """Time the same Zipf lookup tape against both catalog organizations."""
    hot_areas, data_peers, lookups = population

    monolith = Catalog("mono:1")
    for entry in _entries(data_peers):
        monolith.register_server(entry)
    started = time.perf_counter()
    for area in lookups:
        monolith.servers_overlapping(area)
    mono_s = time.perf_counter() - started

    # Placement as the harness does it; registrations and lookups then both
    # go to whoever owns the area — the tier's one rule.
    shard_map = ShardMap.build(
        [[f"idx-s{shard}:1"] for shard in range(SHARDS)], _place_index_areas(hot_areas, SHARDS)
    )
    catalogs = {f"idx-s{shard}:1": Catalog(f"idx-s{shard}:1") for shard in range(SHARDS)}
    caches = {address: AnswerCache(capacity=256) for address in catalogs}
    for address, catalog in catalogs.items():
        catalog.attach_answer_cache(caches[address])
    for entry in _entries(data_peers):
        for owner in shard_map.owners(entry.area):
            catalogs[owner].register_server(ServerEntry(entry.address, entry.role, entry.area))
    started = time.perf_counter()
    for area in lookups:
        catalogs[shard_map.owners(area)[0]].servers_overlapping(area)
    sharded_s = time.perf_counter() - started

    hits = sum(cache.hits for cache in caches.values())
    misses = sum(cache.misses for cache in caches.values())
    return {
        "entries": len(data_peers),
        "lookups": len(lookups),
        "mono_rate": len(lookups) / mono_s,
        "sharded_rate": len(lookups) / sharded_s,
        "hit_rate": hits / (hits + misses),
    }


@pytest.fixture(scope="module")
def outage_cell():
    """The sharded-catalog scenario with one replica of three crashed mid-query."""
    spec = ScaleoutSpec(
        name="tier-outage", topology="small-world", peers=120,
        workload="garage-sale", churn="none", queries=24, seed=11,
        catalog_shards=SHARDS, catalog_replicas=3, catalog_outages=1,
        fault_loss=0.10, reliable=True,
    )
    report = run_scaleout(spec)
    rows = report["queries"]
    complete = sum(1 for row in rows if row["recall"] == 1.0)
    tier = report["catalog_tier"]
    return {
        "queries": len(rows),
        "completeness": complete / len(rows),
        "failovers": tier["tier_failovers"],
        "reconciliations": tier["reconciliations"],
    }


def test_sharded_lookups_beat_the_monolith(lookup_cell):
    """Gate: 4-shard lookup throughput >= 2x the single-catalog baseline."""
    speedup = lookup_cell["sharded_rate"] / lookup_cell["mono_rate"]

    emit(
        f"CATALOG TIER: Zipf lookups over {lookup_cell['entries']} entries, "
        f"{SHARDS} shards vs one catalog ({lookup_cell['lookups']} lookups)",
        format_table(
            [
                {"organization": "monolithic catalog",
                 "lookups_per_s": round(lookup_cell["mono_rate"], 1)},
                {"organization": f"{SHARDS}-shard tier + answer cache",
                 "lookups_per_s": round(lookup_cell["sharded_rate"], 1)},
                {"organization": "speedup", "lookups_per_s": round(speedup, 2)},
            ],
            ["organization", "lookups_per_s"],
            precision=2,
        ),
    )

    benchjson.record_metric(
        BENCH, "monolithic_lookup_rate", lookup_cell["mono_rate"],
        unit="lookups/s", direction="higher", compare=False,
        entries=lookup_cell["entries"],
    )
    benchjson.record_metric(
        BENCH, "sharded_lookup_rate", lookup_cell["sharded_rate"],
        unit="lookups/s", direction="higher", compare=False,
        entries=lookup_cell["entries"], shards=SHARDS,
    )
    # compare=False: the ratio is wall-clock-derived, so cross-machine drift
    # would trip the 20% regression diff; the hard gate is the contract.
    benchjson.record_metric(
        BENCH, "sharded_lookup_speedup", speedup, unit="ratio",
        direction="higher", compare=False, gate_min=SPEEDUP_GATE,
        entries=lookup_cell["entries"], shards=SHARDS,
    )

    assert speedup >= SPEEDUP_GATE


def test_answer_cache_serves_the_hot_areas(lookup_cell):
    """Gate: Zipf workload hit rate >= 0.8 across the shard answer caches."""
    hit_rate = lookup_cell["hit_rate"]

    emit(
        f"CATALOG TIER: answer-cache hit rate under Zipf lookups "
        f"({lookup_cell['lookups']} lookups, {SHARDS} shards)",
        f"hit_rate = {hit_rate:.4f} (gate >= {HIT_RATE_GATE})",
    )

    benchjson.record_metric(
        BENCH, "answer_cache_hit_rate", hit_rate, unit="fraction",
        direction="higher", compare=True, gate_min=HIT_RATE_GATE,
        lookups=lookup_cell["lookups"], shards=SHARDS,
    )

    assert hit_rate >= HIT_RATE_GATE


def test_replica_outage_keeps_answers_complete(outage_cell):
    """Gate: completeness 1.0 with a replica crashed mid-query at 10% loss."""
    emit(
        "CATALOG TIER: completeness under a mid-query replica outage "
        f"({SHARDS} shards x 3 replicas, 10% link loss, reliable delivery)",
        format_table(
            [
                {"metric": "queries", "value": outage_cell["queries"]},
                {"metric": "completeness", "value": outage_cell["completeness"]},
                {"metric": "tier_failovers", "value": outage_cell["failovers"]},
                {"metric": "reconciliations", "value": outage_cell["reconciliations"]},
            ],
            ["metric", "value"],
            precision=4,
        ),
    )

    benchjson.record_metric(
        BENCH, "outage_completeness", outage_cell["completeness"],
        unit="fraction", direction="higher", compare=True,
        gate_min=COMPLETENESS_GATE, queries=outage_cell["queries"],
        shards=SHARDS, replicas=3, outages=1, fault_loss=0.10,
    )
    benchjson.record_metric(
        BENCH, "outage_tier_failovers", outage_cell["failovers"], unit="count",
        direction="lower", compare=False, queries=outage_cell["queries"],
    )

    assert outage_cell["completeness"] >= COMPLETENESS_GATE
    # Queries go to the group that owns their area, so the outage only
    # counts if one of the victim group's queries falls inside it.
    assert outage_cell["failovers"] >= 1
    assert outage_cell["reconciliations"] >= 1


if __name__ == "__main__":
    raise SystemExit(benchjson.run_as_script(__file__))
