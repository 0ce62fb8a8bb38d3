"""Replica membership: a peer's place in the sharded catalog tier.

Message kinds handled here:

``recon-request`` / ``recon-reply``
    Replica reconciliation: a replica rejoining its group asks the
    surviving members for the catalog entries covering its shard; the
    reply is merged through :func:`reconcile_authoritative`, which adopts
    what the rejoiner missed and surfaces conflicting authority as
    ``AuthorityConflict``-shaped records instead of double-answering.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Collection

from ..catalog import Catalog
from ..namespace import InterestArea
from ..network.message import Message
from ..network.node import NetworkNode
from .reconcile import reconcile_authoritative
from .shardmap import ShardMap

if TYPE_CHECKING:  # pragma: no cover - repro.peers imports this package
    from ..peers.subscriptions import Subscriptions

__all__ = ["ReplicaMembership"]


@dataclass(slots=True, eq=False, repr=False)
class ReplicaMembership:
    """The shard map a peer routes by and, for a replica, its group duties.

    ``subscriptions`` is the peer's subscription layer, whose
    ``sub-conflict`` machinery (tell once, one tally) reconciliation reuses
    for its own conflicting authorities; ``suspected_dead`` is the peer's,
    read only.
    """

    port: NetworkNode
    catalog: Catalog
    area: InterestArea
    subscriptions: "Subscriptions"
    suspected_dead: Collection[str] = ()
    shard_map: ShardMap | None = None
    replica_peers: list[str] = field(default_factory=list)
    reconciliations: int = 0
    recon_entries_adopted: int = 0
    recon_conflicts: list[dict] = field(default_factory=list)
    tier_failovers: int = 0

    def join(self, shard_map: ShardMap) -> None:
        """Adopt the cluster's shard map (and this peer's replica group).

        Every peer gets the map — it is what makes registrations and plan
        routing shard-aware — while replicas (members of some group)
        additionally learn their siblings for rejoin reconciliation.
        """
        self.shard_map = shard_map
        group = shard_map.group_of(self.port.address)
        if group is not None:
            self.replica_peers = group.siblings_of(self.port.address)

    def note_failure(self, dead: str) -> None:
        """Count a detected replica death: routing falls to a group sibling."""
        if self.shard_map is not None and self.shard_map.group_of(dead) is not None:
            self.tier_failovers += 1

    def rejoin(self) -> None:
        """Back from an outage: ask surviving group members for the shard's
        authoritative view (the group kept registering and pruning while
        this replica was down) before serving from a stale one."""
        for sibling in self.replica_peers:
            if sibling not in self.suspected_dead:
                self.port.send(
                    sibling,
                    "recon-request",
                    {"requester": self.port.address, "area": self.area},
                    size_bytes=128,
                )

    def on_request(self, message: Message) -> None:
        area: InterestArea = message.payload["area"]
        entries = self.catalog.servers_overlapping(area)
        statements = [
            statement
            for statement in self.catalog.statements
            if statement.lhs.area.overlaps(area)
        ]
        self.port.send(
            message.sender,
            "recon-reply",
            {"source": self.port.address, "entries": entries, "statements": statements},
            size_bytes=64 + 96 * len(entries),
        )

    def on_reply(self, message: Message) -> None:
        payload: dict = message.payload
        result = reconcile_authoritative(
            self.catalog,
            payload["entries"],
            rejoiner=self.port.address,
            source=str(payload["source"]),
            same_group=self._same_group,
            now=self.port.now,
        )
        self.reconciliations += 1
        self.recon_entries_adopted += result.adopted
        for conflict in result.conflicts:
            # One surfaced record per contested address, counted on the
            # tally the subscription layer reports.
            if self.subscriptions.first_conflict(str(conflict["sub"]), str(conflict["publisher"])):
                self.subscriptions.authority_conflicts += 1
                self.recon_conflicts.append(conflict)
        for statement in payload.get("statements", ()):
            # register_statement dedupes structurally, so replies from two
            # survivors can never double-count a statement.
            self.catalog.register_statement(statement)

    def _same_group(self, first: str, second: str) -> bool:
        if self.shard_map is None:
            return False
        group = self.shard_map.group_of(first)
        other = self.shard_map.group_of(second)
        return group is not None and other is not None and group.shard_id == other.shard_id
