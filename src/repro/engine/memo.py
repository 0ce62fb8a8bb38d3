"""Cross-plan evaluation memoization for the batched MQP fast path.

When many mutant query plans arrive at the same peer in one simulated tick
(the thousand-peer regime), most of them reduce the *same* sub-plans over
the *same* local collections — a popular query shape differs between plans
only in its query id.  :class:`EvaluationMemo` keys a sub-plan by its
canonical XML serialization — node ids are excluded by the wire format,
while annotations serialize and so are part of the key (identically-shaped
plans carry identical annotations, which is exactly when sharing is safe) —
and replays the evaluated items, so the query engine runs each distinct
sub-plan once per batch instead of once per plan.

The memo is deliberately scoped to a single batch: local collections are
free to change between ticks, so nothing is carried across batches unless
the caller chooses to reuse the object.
"""

from __future__ import annotations

from typing import Sequence

from ..algebra.operators import PlanNode
from ..algebra.serialization import node_to_xml
from ..xmlmodel import XMLElement, serialize_xml

__all__ = ["EvaluationMemo"]


class EvaluationMemo:
    """Structural (sub-plan → evaluated items) cache shared across one batch."""

    def __init__(self) -> None:
        self._items: dict[str, tuple[XMLElement, ...]] = {}
        self.hits = 0
        self.misses = 0

    @staticmethod
    def key_for(node: PlanNode) -> str:
        """The canonical serialization of a plan node (structural identity)."""
        return serialize_xml(node_to_xml(node, opaque=True))

    def lookup(self, key: str) -> list[XMLElement] | None:
        """Return the memoized items for ``key``, or ``None`` on a miss."""
        cached = self._items.get(key)
        if cached is None:
            self.misses += 1
            return None
        self.hits += 1
        return list(cached)

    def store(self, key: str, items: Sequence[XMLElement]) -> None:
        """Memoize the evaluated items of the sub-plan behind ``key``."""
        self._items[key] = tuple(items)

    def __len__(self) -> int:
        return len(self._items)

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the memo."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
