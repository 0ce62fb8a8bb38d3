"""Overlay topologies for the unstructured-P2P baselines and scale-out runs.

Catalog-based routing (the paper's proposal) does not need an overlay graph:
peers contact the index / meta-index servers they know about.  The Gnutella
baseline, however, broadcasts along an unstructured overlay, and the routing
index baseline forwards along overlay edges, so both need neighbour graphs.
These builders produce deterministic graphs (seeded) over a list of peer
addresses; the three random ones are in-repo ports of networkx 3.x's
generators and match them edge for edge.

For thousand-peer experiments the parametric generators model the overlay
shapes observed in deployed P2P systems: ``scale_free_topology``
(Barabási–Albert preferential attachment — a few high-degree hubs, as in
measured Gnutella snapshots), ``small_world_topology`` (Watts–Strogatz),
and ``hierarchical_topology`` (an ISP-like core / point-of-presence / leaf
tiering).  ``build_topology`` dispatches on a kind name so the experiment
CLI can compose topology × workload × churn from strings.
"""

from __future__ import annotations

import random
from typing import Iterable, Iterator

from ..errors import SimulationError

__all__ = [
    "Topology",
    "TOPOLOGY_KINDS",
    "build_topology",
    "random_topology",
    "scale_free_topology",
    "small_world_topology",
    "hierarchical_topology",
    "star_topology",
]


class Topology:
    """A neighbour graph over peer addresses.

    Nodes keep the order they were added in, and :meth:`edges` yields every
    edge once, its earlier node first: the orientation networkx's
    ``Graph.edges`` reports, which :meth:`repro.api.Cluster.wire_topology`
    sorts, so the order in which catalogs learn of each other is pinned.
    """

    def __init__(self, nodes: Iterable[str], edges: Iterable[tuple[str, str]] = ()) -> None:
        self._adjacency: dict[str, set[str]] = {node: set() for node in nodes}
        for first, second in edges:
            self._add_edge(first, second)

    def _add_edge(self, first: str, second: str) -> None:
        self._adjacency.setdefault(first, set()).add(second)
        self._adjacency.setdefault(second, set()).add(first)

    @property
    def addresses(self) -> list[str]:
        """All peer addresses in the overlay, sorted."""
        return sorted(self._adjacency)

    def neighbors(self, address: str) -> list[str]:
        """Overlay neighbours of ``address``, sorted for determinism."""
        if address not in self._adjacency:
            raise SimulationError(f"{address!r} is not part of the overlay")
        return sorted(self._adjacency[address])

    def edges(self) -> Iterator[tuple[str, str]]:
        """Every edge once, as (earlier node, later node) in node order."""
        position = {node: index for index, node in enumerate(self._adjacency)}
        for node, neighbours in self._adjacency.items():
            for neighbour in sorted(neighbours, key=position.__getitem__):
                if position[neighbour] > position[node]:
                    yield node, neighbour

    def number_of_nodes(self) -> int:
        """Peers in the overlay."""
        return len(self._adjacency)

    def number_of_edges(self) -> int:
        """Undirected overlay links."""
        return sum(len(neighbours) for neighbours in self._adjacency.values()) // 2

    def degree(self, address: str) -> int:
        """Number of overlay neighbours."""
        return len(self.neighbors(address))

    def average_degree(self) -> float:
        """Mean degree of the overlay."""
        nodes = self.number_of_nodes()
        if nodes == 0:
            return 0.0
        return 2.0 * self.number_of_edges() / nodes

    def is_connected(self) -> bool:
        """True when every peer can reach every other peer."""
        return len(self._components()) <= 1

    def max_degree(self) -> int:
        """Largest degree in the overlay (hubs of scale-free graphs)."""
        return max((len(neighbours) for neighbours in self._adjacency.values()), default=0)

    def summary(self) -> dict[str, object]:
        """Flat description of the overlay for experiment reports."""
        return {
            "nodes": self.number_of_nodes(),
            "edges": self.number_of_edges(),
            "average_degree": round(self.average_degree(), 3),
            "max_degree": self.max_degree(),
            "connected": self.is_connected(),
        }

    def _components(self) -> list[list[str]]:
        """Connected components, each found by BFS from its first node in node order."""
        seen: set[str] = set()
        components = []
        for start in self._adjacency:
            if start in seen:
                continue
            seen.add(start)
            component = [start]
            for node in component:
                for neighbour in self._adjacency[node]:
                    if neighbour not in seen:
                        seen.add(neighbour)
                        component.append(neighbour)
            components.append(component)
        return components


def random_topology(addresses: list[str], degree: int = 4, seed: int = 11) -> Topology:
    """A connected random regular-ish overlay (Gnutella-style)."""
    count = len(addresses)
    if count < 2:
        return Topology(addresses)
    degree = max(1, min(degree, count - 1))
    if (degree * count) % 2 == 1:
        degree += 1
        degree = min(degree, count - 1)
    pairs = _random_regular_graph(degree, count, random.Random(seed))
    topology = Topology(addresses, ((addresses[a], addresses[b]) for a, b in pairs))
    _ensure_connected(topology)
    return topology


def small_world_topology(
    addresses: list[str], neighbors: int = 4, rewire_probability: float = 0.2, seed: int = 11
) -> Topology:
    """A Watts–Strogatz small-world overlay."""
    count = len(addresses)
    if count < 3:
        return random_topology(addresses, seed=seed)
    neighbors = max(2, min(neighbors, count - 1))
    if neighbors % 2 == 1:
        neighbors += 1
    return _connected_watts_strogatz_graph(
        addresses, neighbors, rewire_probability, random.Random(seed)
    )


def scale_free_topology(addresses: list[str], attachment: int = 3, seed: int = 11) -> Topology:
    """A Barabási–Albert preferential-attachment overlay.

    Each arriving peer attaches to ``attachment`` existing peers with
    probability proportional to their degree, producing the heavy-tailed
    degree distribution measured in real unstructured P2P networks.  The
    construction is connected by design and deterministic per seed.
    """
    count = len(addresses)
    if count < 3:
        return random_topology(addresses, seed=seed)
    attachment = max(1, min(attachment, count - 1))
    adjacency = _barabasi_albert_graph(count, attachment, random.Random(seed))
    return _labelled(addresses, adjacency)


def hierarchical_topology(
    addresses: list[str],
    core_size: int = 4,
    pops_per_core: int = 4,
    redundancy: int = 2,
    seed: int = 11,
) -> Topology:
    """An ISP-like three-tier overlay: core ring, PoP routers, leaf peers.

    The first ``core_size`` addresses form a fully meshed transit core; the
    next ``core_size * pops_per_core`` addresses are points of presence,
    each homed to ``redundancy`` core nodes; every remaining address is a
    leaf attached to ``redundancy`` PoPs chosen round-robin (deterministic,
    so the same address list and parameters always yield the same graph).
    """
    count = len(addresses)
    core_size = max(1, core_size)
    if count < core_size + 2:
        return random_topology(addresses, seed=seed)
    core = addresses[:core_size]
    pop_count = min(core_size * pops_per_core, max(1, (count - core_size) // 2))
    pops = addresses[core_size : core_size + pop_count]
    leaves = addresses[core_size + pop_count :]

    topology = Topology(addresses)
    for index, first in enumerate(core):
        for second in core[index + 1 :]:
            topology._add_edge(first, second)
    for index, pop in enumerate(pops):
        for offset in range(max(1, redundancy)):
            topology._add_edge(pop, core[(index + offset) % len(core)])
    for index, leaf in enumerate(leaves):
        for offset in range(max(1, redundancy)):
            topology._add_edge(leaf, pops[(index + offset) % len(pops)])
    return topology


def star_topology(center: str, leaves: list[str]) -> Topology:
    """A hub-and-spoke overlay (the Napster-style central index)."""
    return Topology([center], ((center, leaf) for leaf in leaves))


TOPOLOGY_KINDS = ("scale-free", "small-world", "random", "hierarchical", "star")
"""Topology kind names accepted by :func:`build_topology` (and the CLI)."""


def build_topology(kind: str, addresses: list[str], seed: int = 11, **params) -> Topology:
    """Build a named overlay over ``addresses`` — the CLI's dispatch point."""
    if kind == "scale-free":
        return scale_free_topology(addresses, seed=seed, **params)
    if kind == "small-world":
        return small_world_topology(addresses, seed=seed, **params)
    if kind == "random":
        return random_topology(addresses, seed=seed, **params)
    if kind == "hierarchical":
        return hierarchical_topology(addresses, seed=seed, **params)
    if kind == "star":
        if not addresses:
            raise SimulationError("star topology needs at least one address")
        return star_topology(addresses[0], addresses[1:], **params)
    raise SimulationError(
        f"unknown topology kind {kind!r}; expected one of {', '.join(TOPOLOGY_KINDS)}"
    )


def _ensure_connected(topology: Topology) -> None:
    """Patch a disconnected random graph by chaining its components.

    Components come in the order of their first node; each is joined to the
    next through the two components' alphabetically smallest addresses.
    """
    anchors = [min(component) for component in topology._components()]
    for first, second in zip(anchors, anchors[1:]):
        topology._add_edge(first, second)


# --------------------------------------------------------------------------- #
# The random graph generators, over node positions 0..n-1
#
# These reproduce networkx 3.x's ``random_regular_graph``,
# ``connected_watts_strogatz_graph`` and ``barabasi_albert_graph`` edge for
# edge from the same seed.  They draw only through ``random.Random.random``
# and ``getrandbits`` (``_randbelow`` is written out below), so a change to
# the standard library's ``choice`` or ``shuffle`` cannot move an overlay.
# --------------------------------------------------------------------------- #


def _randbelow(rng: random.Random, bound: int) -> int:
    """Uniform in ``[0, bound)`` by rejection on ``bound.bit_length()`` bits."""
    bits = bound.bit_length()
    value = rng.getrandbits(bits)
    while value >= bound:
        value = rng.getrandbits(bits)
    return value


def _shuffle(rng: random.Random, values: list) -> None:
    for index in range(len(values) - 1, 0, -1):
        other = _randbelow(rng, index + 1)
        values[index], values[other] = values[other], values[index]


def _labelled(addresses: list[str], adjacency: list[set[int]]) -> Topology:
    return Topology(
        addresses,
        (
            (addresses[node], addresses[neighbour])
            for node, neighbours in enumerate(adjacency)
            for neighbour in neighbours
            if neighbour > node
        ),
    )


def _random_regular_graph(degree: int, count: int, rng: random.Random) -> set[tuple[int, int]]:
    """Stub pairing, retried from scratch until a pass cannot get stuck."""
    while True:
        pairs = _try_stub_pairing(degree, count, rng)
        if pairs is not None:
            return pairs


def _try_stub_pairing(degree: int, count: int, rng: random.Random) -> set[tuple[int, int]] | None:
    pairs: set[tuple[int, int]] = set()
    stubs = list(range(count)) * degree
    while stubs:
        leftover: dict[int, int] = {}
        _shuffle(rng, stubs)
        paired = iter(stubs)
        for first, second in zip(paired, paired):
            if first > second:
                first, second = second, first
            if first != second and (first, second) not in pairs:
                pairs.add((first, second))
            else:
                leftover[first] = leftover.get(first, 0) + 1
                leftover[second] = leftover.get(second, 0) + 1
        if not _pairable(pairs, leftover):
            return None
        stubs = [node for node, stub_count in leftover.items() for _ in range(stub_count)]
    return pairs


def _pairable(pairs: set[tuple[int, int]], leftover: dict[int, int]) -> bool:
    """Whether two distinct leftover stubs could still form a new edge."""
    if not leftover:
        return True
    for first in leftover:
        for second in leftover:
            if first == second:
                break
            if (min(first, second), max(first, second)) not in pairs:
                return True
    return False


def _connected_watts_strogatz_graph(
    addresses: list[str], neighbors: int, probability: float, rng: random.Random, tries: int = 100
) -> Topology:
    for _ in range(tries):
        adjacency = _watts_strogatz_graph(len(addresses), neighbors, probability, rng)
        topology = _labelled(addresses, adjacency)
        if topology.is_connected():
            return topology
    raise SimulationError("no connected Watts–Strogatz graph within the tries allowed")


def _watts_strogatz_graph(
    count: int, neighbors: int, probability: float, rng: random.Random
) -> list[set[int]]:
    """A ring lattice of ``neighbors`` nearest neighbours, each edge rewired at ``probability``."""
    if neighbors == count:
        return [set(range(count)) - {node} for node in range(count)]
    adjacency: list[set[int]] = [set() for _ in range(count)]
    for offset in range(1, neighbors // 2 + 1):
        for node in range(count):
            target = (node + offset) % count
            adjacency[node].add(target)
            adjacency[target].add(node)
    for offset in range(1, neighbors // 2 + 1):
        for node in range(count):
            target = (node + offset) % count
            if rng.random() < probability:
                new_target = _randbelow(rng, count)
                while new_target == node or new_target in adjacency[node]:
                    new_target = _randbelow(rng, count)
                    if len(adjacency[node]) >= count - 1:
                        break  # the node already links to everyone: keep the edge
                else:
                    adjacency[node].discard(target)
                    adjacency[target].discard(node)
                    adjacency[node].add(new_target)
                    adjacency[new_target].add(node)
    return adjacency


def _barabasi_albert_graph(count: int, attachment: int, rng: random.Random) -> list[set[int]]:
    """Preferential attachment grown from a star on ``attachment + 1`` nodes."""
    adjacency: list[set[int]] = [set() for _ in range(count)]
    for leaf in range(1, attachment + 1):
        adjacency[0].add(leaf)
        adjacency[leaf].add(0)
    # Every node once per edge end, in node order: the degree-weighted urn.
    repeated = [0] * attachment + list(range(1, attachment + 1))
    for source in range(attachment + 1, count):
        # A set, like networkx's _random_subset: its iteration order feeds the urn.
        targets: set[int] = set()
        while len(targets) < attachment:
            targets.add(repeated[_randbelow(rng, len(repeated))])
        for target in targets:
            adjacency[source].add(target)
            adjacency[target].add(source)
        repeated.extend(targets)
        repeated.extend([source] * attachment)
    return adjacency
