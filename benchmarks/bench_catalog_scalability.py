"""EXP-SCALE — the distributed catalog scales with the number of peers (§1, §3).

Two layers of evidence:

* the original sweep: registration messages, per-peer catalog footprint,
  resolution hops and recall as the population grows (no peer holds a
  global catalog);
* the perf gates, both absolute (within ``check_regression.py``'s 20% band
  of the committed value): the lookup throughput of the trie-backed
  catalog index at 1,000 registered servers
  (``indexed_lookup_ops_per_sec``) and the wall time of the full scale-out
  scenario (``scaleout_runtime_s``).  That the index returns what a linear
  scan would is tier-1's job (``tests/test_catalog_index.py`` against
  ``tests/oracles/catalog_scan.py``).

``--json`` writes the measurements to ``BENCH_catalog_scalability.json``
(the perf trajectory's first committed point).  ``REPRO_BENCH_QUICK=1``
shrinks query counts and the end-to-end population for CI smoke runs —
the 1,000-server lookup gate keeps its full size (building the catalog is
cheap; the gate scale is the point).
"""

from __future__ import annotations

import random
import time

import pytest

import benchjson
from repro.catalog import Catalog, CollectionRef, IntensionalStatement, ServerEntry, ServerRole
from repro.harness import (
    ScaleoutSpec, build_scaleout_scenario, format_table, run_scaleout, run_scenario,
)
from repro.namespace.builtin import garage_sale_namespace
from repro.peers import BaseServer, IndexServer
from conftest import emit

QUICK = benchjson.quick_mode()
BENCH = "catalog_scalability"

GATE_SERVERS = 1000
GATE_SEED = 7
GATE_QUERIES = 150 if QUICK else 400

SCALEOUT_SPEC = (
    ScaleoutSpec(name="pr1-smoke", peers=200, queries=6)
    if QUICK
    else ScaleoutSpec(name="pr1")
)


def _sweep_spec(peers: int, seed: int) -> ScaleoutSpec:
    return ScaleoutSpec(name="exp-scale", topology="random", peers=peers,
                        workload="garage-sale", queries=4, seed=seed)


def _measure(sellers: int):
    scenario, report = run_scenario(_sweep_spec(sellers, seed=41))
    catalog_sizes = [peer.catalog.size() for peer in scenario.cluster.peers()]
    hops = [row["peers_visited"] for row in report["queries"]]
    traffic = report["traffic"]
    return {
        "peers": len(catalog_sizes),
        "registration_msgs": scenario.registrations,
        "max_catalog_size": max(catalog_sizes),
        "mean_catalog_size": sum(catalog_sizes) / len(catalog_sizes),
        "mean_peers_per_query": traffic["mean_peers_per_query"],
        "mean_messages_per_query": traffic["mean_messages_per_query"],
        "mean_recall": traffic["mean_recall"],
        "resolution_hops": sum(hops) / len(hops),
    }


def test_catalog_scalability_sweep(benchmark):
    sizes = [8, 16, 32, 64]
    rows = [_measure(size) for size in sizes[:-1]]

    def largest():
        return _measure(sizes[-1])

    rows.append(benchmark.pedantic(largest, rounds=1, iterations=1))
    emit("EXP-SCALE  Peer-count sweep", format_table(rows))

    # Registration traffic grows linearly (one registration per server),
    # not quadratically like all-to-all coordination would.
    assert rows[-1]["registration_msgs"] <= rows[-1]["peers"] * 2
    # No peer's catalog approaches global size.
    assert rows[-1]["max_catalog_size"] < rows[-1]["peers"]
    # Query cost stays bounded (a short resolution chain), independent of scale.
    assert rows[-1]["mean_peers_per_query"] <= rows[0]["mean_peers_per_query"] * 3
    assert all(row["mean_recall"] == pytest.approx(1.0) for row in rows)


def test_per_peer_catalog_stays_local(benchmark):
    spec = _sweep_spec(40, seed=47)
    scenario = benchmark.pedantic(build_scaleout_scenario, args=(spec,), rounds=1, iterations=1)
    with scenario.cluster as cluster:
        peers = cluster.peers()
    base_servers = [peer for peer in peers if isinstance(peer, BaseServer)]
    base_catalogs = [peer.catalog.size() for peer in base_servers]
    index_catalogs = [peer.catalog.size() for peer in peers if isinstance(peer, IndexServer)]
    emit(
        "EXP-SCALE  Catalog footprint by role (40 sellers)",
        format_table(
            [
                {"role": "base server (max)", "catalog_entries": max(base_catalogs)},
                {"role": "index server (max)", "catalog_entries": max(index_catalogs)},
                {"role": "meta-index", "catalog_entries": scenario.meta_index.catalog.size()},
            ]
        ),
    )
    # A base server knows itself, its indexer and its overlay neighbours;
    # an index server the servers of its own state; only the meta-index
    # sees every indexer.
    for peer in base_servers:
        assert peer.catalog.size() <= 2 + scenario.topology.degree(peer.address)
    assert max(index_catalogs) <= spec.peers + 2


# --------------------------------------------------------------------------- #
# Gates: indexed lookup throughput and end-to-end scenario wall time
# --------------------------------------------------------------------------- #


def _gate_catalog(servers: int = GATE_SERVERS, seed: int = GATE_SEED):
    """A realistic 1,000-server catalog plus a seeded query battery."""
    namespace = garage_sale_namespace()
    rng = random.Random(seed)
    locations = namespace.dimensions[0].categories()
    merchandise = namespace.dimensions[1].categories()
    catalog = Catalog("gate")
    addresses = []
    for position in range(servers):
        address = f"peer-{position:04d}:9020"
        addresses.append(address)
        area = namespace.area([rng.choice(locations), rng.choice(merchandise)])
        role = rng.choice([ServerRole.BASE] * 8 + [ServerRole.INDEX, ServerRole.META_INDEX])
        catalog.register_server(
            ServerEntry(
                address,
                role,
                area,
                authoritative=(role is not ServerRole.BASE),
                collections=[CollectionRef(address, "/items")],
            )
        )
    for position in range(0, servers, 50):
        left, right = addresses[position], addresses[(position + 1) % servers]
        area_text = "(USA.OR,*)" if position % 100 else "(USA.WA,*)"
        catalog.register_statement(
            IntensionalStatement.parse(f"base[{area_text}]@{left} >= base[{area_text}]@{right}")
        )
    queries = [
        namespace.area([rng.choice(locations), rng.choice(merchandise)])
        for _ in range(GATE_QUERIES)
    ]
    return catalog, queries


@pytest.fixture(scope="module")
def gate_catalog():
    return _gate_catalog()


def test_indexed_lookup_gate(gate_catalog):
    """Lookup throughput of the catalog index at 1,000 servers."""
    catalog, queries = gate_catalog

    operations = []
    for area in queries:
        operations.append(lambda a=area: catalog.servers_overlapping(a))
        operations.append(lambda a=area: catalog.servers_covering(a))

    indexed = benchjson.latency_stats(benchjson.sample_latencies(operations, repeats=3))

    emit(
        f"EXP-SCALE  Indexed catalog lookups ({len(catalog.servers)} servers)",
        f"indexed={indexed['ops_per_sec']:,.0f} ops/s "
        f"(p50={indexed['p50_us']:.1f}us p99={indexed['p99_us']:.1f}us)",
    )

    context = {"peers": len(catalog.servers), "seed": GATE_SEED, "queries": len(queries)}
    benchjson.record_metric(
        BENCH, "indexed_lookup_ops_per_sec", indexed["ops_per_sec"], unit="ops/s",
        compare=True, **context,
    )
    benchjson.record_metric(
        BENCH, "indexed_lookup_p50_us", indexed["p50_us"], unit="us", direction="lower", **context
    )
    benchjson.record_metric(
        BENCH, "indexed_lookup_p99_us", indexed["p99_us"], unit="us", direction="lower", **context
    )


def test_scaleout_runtime_gate():
    """End-to-end: the scale-out config in absolute seconds."""
    spec = SCALEOUT_SPEC

    started = time.perf_counter()
    run_scaleout(spec)
    elapsed_s = time.perf_counter() - started

    emit(
        f"EXP-SCALE  End-to-end scenario runtime ({spec.peers} peers, {spec.workload})",
        f"{elapsed_s:.2f}s",
    )
    # The gate: check_regression.py fails a run more than 20% slower than
    # the committed value (ROADMAP aim 1 - absolute numbers, not ratios).
    benchjson.record_metric(
        BENCH, "scaleout_runtime_s", elapsed_s, unit="s", direction="lower", compare=True,
        peers=spec.peers, seed=spec.seed, workload=spec.workload,
    )


if __name__ == "__main__":
    raise SystemExit(benchjson.run_as_script(__file__))
