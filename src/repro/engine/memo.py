"""The evaluation cache: what a server has reduced, kept until it writes.

Most plans that reach a peer reduce the *same* sub-plans over the *same*
local collections — a popular query shape differs between plans only in
its query id.  :class:`EvaluationMemo` keys a sub-plan by its XML text, as
the plan writer writes it — node ids are excluded by the wire format, while annotations
serialize and so are part of the key (identically-shaped plans carry
identical annotations, which is exactly when sharing is safe) — and replays
its *result leaf*: annotated and serialized once, handed to each plan as a
copy that shares the items and the wire text (nothing downstream mutates
them).  The query engine runs each distinct sub-plan once, not once per plan.

A cached result is a function of the sub-plan's text and the owner's local
collections only, so the owner clears the cache on every local write
(:class:`repro.mqp.processor.MQPProcessor`, ``QueryPeer``'s collection
verbs) and a replay is byte-identical to a re-evaluation.  Only the leaf is
kept — the result text is what costs memory — and the cache is bounded in
entries and in bytes of that text: past either bound the oldest entries go.
"""

from __future__ import annotations

from typing import cast

from ..algebra.operators import PlanNode, VerbatimData
from ..algebra.serialization import node_text

__all__ = ["EvaluationMemo", "MAX_ENTRIES", "MAX_BYTES"]

MAX_ENTRIES = 256
MAX_BYTES = 1 << 20
"""Bounds of one peer's cache: results kept, and bytes of key + result text."""


class EvaluationMemo:
    """Structural (sub-plan → result leaf) cache of one peer."""

    def __init__(self) -> None:
        self._leaves: dict[str, VerbatimData] = {}
        self.bytes = 0
        self.hits = 0
        self.misses = 0

    @staticmethod
    def key_for(node: PlanNode) -> str:
        """The compact text of a plan node (structural identity)."""
        return node_text(node)

    def lookup(self, key: str) -> VerbatimData | None:
        """A copy of the result leaf cached for ``key``, or ``None`` on a miss."""
        cached = self._leaves.get(key)
        if cached is None:
            self.misses += 1
            return None
        self.hits += 1
        return cast(VerbatimData, cached.copy())

    def store(self, key: str, leaf: VerbatimData) -> VerbatimData:
        """Keep ``leaf`` as the result of the sub-plan behind ``key``.

        The cache owns ``leaf`` from here on; the caller hands its plan the
        copy returned, as :meth:`lookup` will the next.  A result that alone
        exceeds the byte bound is not kept.
        """
        self._drop(key)
        size = _size_of(key, leaf)
        if size <= MAX_BYTES:
            self._leaves[key] = leaf
            self.bytes += size
            while len(self._leaves) > MAX_ENTRIES or self.bytes > MAX_BYTES:
                self._drop(next(iter(self._leaves)))
        return cast(VerbatimData, leaf.copy())

    def _drop(self, key: str) -> None:
        cached = self._leaves.pop(key, None)
        if cached is not None:
            self.bytes -= _size_of(key, cached)

    def clear(self) -> None:
        """Forget every result (the counters keep counting)."""
        self._leaves.clear()
        self.bytes = 0

    def __len__(self) -> int:
        return len(self._leaves)

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


def _size_of(key: str, leaf: VerbatimData) -> int:
    """What an entry is charged: its key plus its result text (serialized by
    the first call, once for every copy to come; the leaf remembers the size)."""
    return len(key) + leaf.items_size()
