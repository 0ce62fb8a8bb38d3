"""Ownership of the catalog by replica group (the sharded tier).

At "millions of users" scale the index servers are both the routing
bottleneck and the single point of failure.  The tier splits catalog
ownership across :class:`ReplicaGroup` s of N index servers: each group is
authoritative over an interest area, and a registration or a lookup goes
to the group(s) whose area *contains or overlaps* it — the paper's rule
(§3.2–3.3: a server registers with "an authoritative server that covers"
it, and a query is routed the same way), so the two agree by construction.

*Placement* — which index area a group is given — is the builder's choice;
:func:`shard_of_cell` is the one the harness uses: BLAKE2b over the index
cell's canonical text.  Python's builtin ``hash()`` is salted per process
and would break the repo's determinism contract (byte-identical reports
across runs and transports); the digest is stable across processes,
platforms, and Python versions.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from ..errors import CatalogError
from ..namespace import InterestArea, InterestCell

__all__ = ["ReplicaGroup", "ShardMap", "shard_of_cell"]


def shard_of_cell(cell: InterestCell, shards: int) -> int:
    """Place an *index* cell on a shard via a stable hash of its canonical text.

    This decides which group is handed an index area when the tier is
    built; it is never how a query finds its group (:meth:`ShardMap.owners`
    goes by the areas the groups were handed).  ``str(cell)`` is the cell's
    interned textual form, so equal cells land on the same shard whoever
    computes the placement.
    """
    if shards < 1:
        raise CatalogError("shard count must be positive")
    digest = hashlib.blake2b(str(cell).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % shards


@dataclass(frozen=True)
class ReplicaGroup:
    """The ordered set of index servers that co-own one shard.

    Member order is the failover order: reads prefer the primary (a
    deterministic rotation of the member list so distinct shards spread
    load across the same physical servers), then fall through to the
    surviving members when the preferred replica is suspected dead.
    ``area`` is what the group is authoritative over; a group standing by
    with nothing placed on it (``None``) owns nothing and answers for nothing.
    """

    shard_id: int
    members: tuple[str, ...]
    area: InterestArea | None = None

    def __post_init__(self) -> None:
        if not self.members:
            raise CatalogError(f"replica group {self.shard_id} needs at least one member")

    def preferred_order(self) -> tuple[str, ...]:
        """Members rotated by shard id — the deterministic read preference."""
        pivot = self.shard_id % len(self.members)
        return self.members[pivot:] + self.members[:pivot]

    def alive_members(self, suspected: frozenset[str] | set[str] = frozenset()) -> list[str]:
        """The preferred order with suspected-dead members filtered out."""
        return [member for member in self.preferred_order() if member not in suspected]

    def siblings_of(self, address: str) -> list[str]:
        """The other members of this group, in member order."""
        return [member for member in self.members if member != address]


class ShardMap:
    """The cluster-wide assignment of interest areas to replica groups.

    Built once by the harness (or an operator) and shared by reference
    across peers — the map is immutable after construction, so there is no
    coordination problem in handing every peer the same object.
    """

    def __init__(self, groups: dict[int, ReplicaGroup]) -> None:
        if not groups:
            raise CatalogError("a shard map needs at least one replica group")
        expected = set(range(len(groups)))
        if set(groups) != expected:
            raise CatalogError(
                f"shard ids must be contiguous from 0, got {sorted(groups)}"
            )
        self._groups = {shard_id: groups[shard_id] for shard_id in sorted(groups)}

    @classmethod
    def build(
        cls, members_by_shard: list[list[str]], areas: list[InterestArea | None]
    ) -> "ShardMap":
        """Build a map from each shard's member addresses and owned area, in shard order."""
        if len(areas) != len(members_by_shard):
            raise CatalogError("a shard map needs one owned area (or None) per replica group")
        groups = {
            shard_id: ReplicaGroup(shard_id, tuple(members), area)
            for shard_id, (members, area) in enumerate(zip(members_by_shard, areas))
        }
        return cls(groups)

    # -- structure ------------------------------------------------------- #

    @property
    def shards(self) -> int:
        """Number of shards in the map."""
        return len(self._groups)

    @property
    def groups(self) -> tuple[ReplicaGroup, ...]:
        """All replica groups, in shard order."""
        return tuple(self._groups.values())

    def group(self, shard_id: int) -> ReplicaGroup:
        """The replica group owning ``shard_id``."""
        try:
            return self._groups[shard_id]
        except KeyError:
            raise CatalogError(f"unknown shard {shard_id}") from None

    def group_of(self, address: str) -> ReplicaGroup | None:
        """The group ``address`` belongs to, or ``None`` if it is no replica."""
        for group in self._groups.values():
            if address in group.members:
                return group
        return None

    # -- routing --------------------------------------------------------- #

    def owners(
        self, area: InterestArea, suspected: frozenset[str] | set[str] = frozenset()
    ) -> list[str]:
        """Replica addresses responsible for ``area``, failover-ordered.

        Ownership is containment: every group whose area overlaps ``area``
        (ascending shard id) contributes its preferred order, skipping
        suspected-dead members — primary first, surviving siblings next,
        other owning groups after.  An area nobody owns returns ``[]``, and
        routing goes by cache, catalog and meta-index as without a tier.
        """
        ordered: dict[str, None] = {}
        for group in self._groups.values():
            if group.area is not None and group.area.overlaps(area):
                ordered.update(dict.fromkeys(group.alive_members(suspected)))
        return list(ordered)

    def __repr__(self) -> str:
        sizes = [len(group.members) for group in self.groups]
        return f"ShardMap(shards={self.shards}, replicas={sizes})"
