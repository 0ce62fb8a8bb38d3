"""EXP-SCALE — the distributed catalog scales with the number of peers (§1, §3).

The sweep: registration messages, per-peer catalog footprint, resolution
hops and recall as the population grows (no peer holds a global
catalog).  What a lookup costs is ``catalog.lookup_s`` of the end-to-end
driver (``benchmarks/e2e/README.md``); that the index returns what a
linear scan would is tier-1's job (``tests/test_catalog_index.py``
against ``tests/oracles/catalog_scan.py``).
"""

from __future__ import annotations

import pytest

from repro.harness import ScaleoutSpec, build_scaleout_scenario, format_table, run_scenario
from repro.peers import BaseServer, IndexServer
from conftest import emit


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
