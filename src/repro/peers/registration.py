"""Wiring the distributed catalog: registration and bootstrap helpers (paper §3.3).

"A base server joining the P2P network needs to register with index or
meta-index servers that intersect with its interest area ... Ideally, the
servers it registers with should include authoritative servers whose union
covers its interest area.  Thus servers with more specific interest areas
push the data about their existence to an authoritative server that covers
them."

Two styles are provided:

* :func:`register_online` drives the registration protocol over the
  simulated network (so registration traffic shows up in the metrics —
  used by the scalability benchmark);
* :func:`register_offline` populates catalogs directly (used by tests and
  by benchmarks that only care about query-time behaviour).

Both implement the same policy: every server registers with the *most
specific* authoritative index/meta-index servers that cover it, falling
back to any overlapping indexer when no single server covers its area.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..catalog import ServerRole
from ..errors import RegistrationError
from .peer import QueryPeer

__all__ = [
    "covering_indexers",
    "register_offline",
    "register_online",
    "seed_with_meta_index",
    "registration_plan",
]


def _indexers(peers: Sequence[QueryPeer]) -> list[QueryPeer]:
    return [
        peer
        for peer in peers
        if {ServerRole.INDEX, ServerRole.META_INDEX} & peer.roles
    ]


def covering_indexers(peer: QueryPeer, indexers: Sequence[QueryPeer]) -> list[QueryPeer]:
    """The index/meta-index servers ``peer`` should register with.

    Preference order: authoritative servers covering the peer's whole area,
    most specific (smallest) first; otherwise any server whose area overlaps.
    With the catalog tier on (and a shard map attached to ``peer``), each
    chosen indexer expands to its whole replica group — registering with
    every group member is what replicates the shard's catalog.
    """
    candidates = [indexer for indexer in indexers if indexer.address != peer.address]
    covering = [
        indexer
        for indexer in candidates
        if indexer.authoritative and indexer.interest_area.covers(peer.interest_area)
    ]
    if covering:
        covering.sort(key=lambda indexer: (-indexer.interest_area.specificity(), indexer.address))
        return _expand_replica_groups(peer, [covering[0]], candidates)
    overlapping = [
        indexer for indexer in candidates if indexer.interest_area.overlaps(peer.interest_area)
    ]
    overlapping.sort(key=lambda indexer: (-indexer.interest_area.specificity(), indexer.address))
    return _expand_replica_groups(peer, overlapping, candidates)


def _expand_replica_groups(
    peer: QueryPeer, chosen: list[QueryPeer], candidates: Sequence[QueryPeer]
) -> list[QueryPeer]:
    """Widen each chosen indexer to its full replica group (catalog tier)."""
    shard_map = peer.replicas.shard_map
    if shard_map is None:
        return chosen
    by_address = {candidate.address: candidate for candidate in candidates}
    expanded: list[QueryPeer] = []
    seen: set[str] = set()
    for indexer in chosen:
        group = shard_map.group_of(indexer.address)
        members = group.members if group is not None else (indexer.address,)
        for address in members:
            target = by_address.get(address)
            if target is None and address == indexer.address:
                target = indexer
            if target is not None and target.address not in seen:
                seen.add(target.address)
                expanded.append(target)
    return expanded


def registration_plan(peers: Sequence[QueryPeer]) -> list[tuple[str, str]]:
    """Return (registering peer, indexer) pairs the policy would produce."""
    indexers = _indexers(peers)
    plan: list[tuple[str, str]] = []
    for peer in peers:
        if ServerRole.CLIENT in peer.roles and len(peer.roles) == 1:
            continue
        for indexer in covering_indexers(peer, indexers):
            plan.append((peer.address, indexer.address))
    return plan


def register_offline(peers: Sequence[QueryPeer]) -> int:
    """Directly populate catalogs according to the registration policy.

    Returns the number of registrations performed.  Both directions are
    recorded: the indexer learns the registering server's entry (with
    statements and named resources), and the registering server learns the
    indexer's entry so it can route future plans.
    """
    indexers = {peer.address: peer for peer in _indexers(peers)}
    by_address = {peer.address: peer for peer in peers}
    count = 0
    for registering_address, indexer_address in registration_plan(peers):
        registering = by_address[registering_address]
        indexer = indexers[indexer_address]
        indexer.adopt_registration(registering.registration())
        registering.learn_about(indexer.server_entry())
        # Remember where we registered so a rejoin after churn can
        # re-propagate the registration over the network.
        if indexer_address not in registering.registration_targets:
            registering.registration_targets.append(indexer_address)
        count += 1
    return count


def register_online(peers: Sequence[QueryPeer]) -> int:
    """Run the registration protocol over the simulated network.

    Every peer must already be attached to a network.  Returns the number
    of registration messages initiated; callers should then run the
    simulator so acknowledgements flow back.
    """
    indexers = _indexers(peers)
    count = 0
    for peer in peers:
        if peer.network is None:
            raise RegistrationError(f"{peer.address} is not attached to a network")
        if ServerRole.CLIENT in peer.roles and len(peer.roles) == 1:
            continue
        for indexer in covering_indexers(peer, indexers):
            # The registering peer must know the indexer's address to push
            # to it (bootstrap is out-of-band, §3.2), so record it first.
            peer.learn_about(indexer.server_entry())
            peer.register_with(indexer.address)
            count += 1
    return count


def seed_with_meta_index(clients: Iterable[QueryPeer], meta_servers: Iterable[QueryPeer]) -> None:
    """Give clients their out-of-band knowledge of top-level meta-index servers.

    The paper notes a peer joining for the first time "will have to discover
    category servers, and also meta-index servers that serve top-level
    categories ... for example by doing a search on a web search engine".
    """
    meta_entries = [server.server_entry() for server in meta_servers]
    for client in clients:
        for entry in meta_entries:
            client.learn_about(entry)
