"""The sharded, replicated catalog tier (``QueryPeer.join_catalog_tier``).

Partitions catalog ownership across replica groups via consistent hashing
over interest-area cells, fans registrations out to whole groups, orders
lookups primary-first with deterministic failover, and reconciles
authoritative sets when a crashed replica rejoins its group.  The hot-area
answer cache (``AnswerCache``, re-exported here) is every catalog's, not
the tier's.

See ``docs/catalog.md`` for the walkthrough.
"""

from ..catalog.answercache import AnswerCache
from .membership import ReplicaMembership
from .reconcile import ReconcileResult, reconcile_authoritative
from .shardmap import ReplicaGroup, ShardMap, shard_of_cell

__all__ = [
    "AnswerCache",
    "ReplicaGroup",
    "ShardMap",
    "shard_of_cell",
    "ReconcileResult",
    "reconcile_authoritative",
    "ReplicaMembership",
]
