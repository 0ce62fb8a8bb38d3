"""Differential test: every overlay equals the one networkx builds, edge for edge.

Skipped when networkx is not installed (it is a test extra, not a runtime
dependency).
"""

from __future__ import annotations

import pytest

nx = pytest.importorskip("networkx")

from oracles.networkx_topology import build_graph  # noqa: E402

from repro.network import TOPOLOGY_KINDS, build_topology  # noqa: E402

SIZES = tuple(range(1, 41)) + (47, 64, 99, 100, 101, 120, 200, 257, 500, 1000, 1200)
SEEDS = (1, 7, 11)
VARIANTS = tuple((kind, kind, {}) for kind in TOPOLOGY_KINDS) + (
    ("random-d1", "random", {"degree": 1}),
    ("random-d2", "random", {"degree": 2}),
    ("random-d3", "random", {"degree": 3}),
    ("small-world-k6", "small-world", {"neighbors": 6, "rewire_probability": 0.5}),
    ("scale-free-m1", "scale-free", {"attachment": 1}),
    ("hierarchical-r3", "hierarchical", {"core_size": 3, "redundancy": 3}),
)


def _addresses(count: int) -> list[str]:
    # Alphabetical order differs from node order, so orientation shows.
    return [f"peer{(index * 37) % 1201:04d}:9020" for index in range(count)]


@pytest.mark.parametrize("label,kind,params", VARIANTS, ids=[variant[0] for variant in VARIANTS])
@pytest.mark.parametrize("seed", SEEDS)
def test_overlay_matches_networkx(label, kind, params, seed):
    for count in SIZES:
        addresses = _addresses(count)
        topology = build_topology(kind, addresses, seed=seed, **params)
        graph = build_graph(kind, addresses, seed=seed, **params)
        assert topology.number_of_nodes() == graph.number_of_nodes(), count
        assert sorted(topology.edges()) == sorted(graph.edges), count
        assert topology.is_connected() == nx.is_connected(graph), count


def test_random_regular_pairing_leaves_components_to_chain():
    """Degree-2 pairings split the graph, so the chaining above is exercised."""
    chained = 0
    for seed in SEEDS:
        for count in (10, 40, 120):
            raw = nx.random_regular_graph(2, count, seed=seed)
            chained += not nx.is_connected(raw)
    assert chained > 0
