"""The overlay builders as they were on networkx: the oracle for the ports.

``repro.network.topology`` builds its three random overlays with in-repo
ports of networkx's generators.  These functions are the builders the ports
replaced, kept verbatim on networkx; the topology must produce the same
nodes and the same oriented edges (networkx reports an edge from the endpoint
that comes first in node order).  Importing this module needs networkx.
"""

from __future__ import annotations

import networkx as nx


def random_graph(addresses: list[str], degree: int = 4, seed: int = 11) -> nx.Graph:
    count = len(addresses)
    if count < 2:
        graph = nx.Graph()
        graph.add_nodes_from(addresses)
        return graph
    degree = max(1, min(degree, count - 1))
    if (degree * count) % 2 == 1:
        degree += 1
        degree = min(degree, count - 1)
    graph = nx.random_regular_graph(degree, count, seed=seed)
    graph = nx.relabel_nodes(graph, dict(enumerate(addresses)))
    _ensure_connected(graph)
    return graph


def small_world_graph(
    addresses: list[str], neighbors: int = 4, rewire_probability: float = 0.2, seed: int = 11
) -> nx.Graph:
    count = len(addresses)
    if count < 3:
        return random_graph(addresses, seed=seed)
    neighbors = max(2, min(neighbors, count - 1))
    if neighbors % 2 == 1:
        neighbors += 1
    graph = nx.connected_watts_strogatz_graph(count, neighbors, rewire_probability, seed=seed)
    return nx.relabel_nodes(graph, dict(enumerate(addresses)))


def scale_free_graph(addresses: list[str], attachment: int = 3, seed: int = 11) -> nx.Graph:
    count = len(addresses)
    if count < 3:
        return random_graph(addresses, seed=seed)
    attachment = max(1, min(attachment, count - 1))
    graph = nx.barabasi_albert_graph(count, attachment, seed=seed)
    return nx.relabel_nodes(graph, dict(enumerate(addresses)))


def hierarchical_graph(
    addresses: list[str],
    core_size: int = 4,
    pops_per_core: int = 4,
    redundancy: int = 2,
    seed: int = 11,
) -> nx.Graph:
    count = len(addresses)
    core_size = max(1, core_size)
    if count < core_size + 2:
        return random_graph(addresses, seed=seed)
    core = addresses[:core_size]
    pop_count = min(core_size * pops_per_core, max(1, (count - core_size) // 2))
    pops = addresses[core_size : core_size + pop_count]
    leaves = addresses[core_size + pop_count :]
    graph = nx.Graph()
    graph.add_nodes_from(addresses)
    for index, first in enumerate(core):
        for second in core[index + 1 :]:
            graph.add_edge(first, second)
    for index, pop in enumerate(pops):
        for offset in range(max(1, redundancy)):
            graph.add_edge(pop, core[(index + offset) % len(core)])
    for index, leaf in enumerate(leaves):
        for offset in range(max(1, redundancy)):
            graph.add_edge(leaf, pops[(index + offset) % len(pops)])
    return graph


def star_graph(center: str, leaves: list[str]) -> nx.Graph:
    graph = nx.Graph()
    graph.add_node(center)
    for leaf in leaves:
        graph.add_edge(center, leaf)
    return graph


def build_graph(kind: str, addresses: list[str], seed: int = 11, **params) -> nx.Graph:
    if kind == "scale-free":
        return scale_free_graph(addresses, seed=seed, **params)
    if kind == "small-world":
        return small_world_graph(addresses, seed=seed, **params)
    if kind == "random":
        return random_graph(addresses, seed=seed, **params)
    if kind == "hierarchical":
        return hierarchical_graph(addresses, seed=seed, **params)
    if kind == "star":
        return star_graph(addresses[0], addresses[1:], **params)
    raise ValueError(kind)


def _ensure_connected(graph: nx.Graph) -> None:
    if nx.is_connected(graph):
        return
    components = [sorted(component) for component in nx.connected_components(graph)]
    for first, second in zip(components, components[1:]):
        graph.add_edge(first[0], second[0])
