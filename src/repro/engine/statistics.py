"""Collection statistics: the cardinality and size a plan leaf carries.

Section 5.1 of the paper proposes annotating plan leaves with "cardinality,
the unique cardinality of the join column, or even a histogram" so later
servers can make better routing and evaluation decisions.  A holder
annotates each leaf it evaluates with the item count and byte size of the
result, and the cost model reads them back; this module renders them to /
from the flat string form carried in plan-node annotations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

__all__ = ["CollectionStatistics"]


@dataclass
class CollectionStatistics:
    """Statistics of a whole collection."""

    cardinality: int
    bytes: int

    def to_annotations(self, prefix: str = "stats") -> dict[str, str]:
        """Flatten to the string key/value form stored in plan annotations."""
        return {
            f"{prefix}.cardinality": str(self.cardinality),
            f"{prefix}.bytes": str(self.bytes),
        }

    @classmethod
    def from_annotations(
        cls, annotations: Mapping[str, str], prefix: str = "stats"
    ) -> "CollectionStatistics | None":
        """Rebuild from plan annotations; ``None`` when absent."""
        cardinality_key = f"{prefix}.cardinality"
        if cardinality_key not in annotations:
            return None
        return cls(
            cardinality=int(annotations[cardinality_key]),
            bytes=int(annotations.get(f"{prefix}.bytes", "0")),
        )
