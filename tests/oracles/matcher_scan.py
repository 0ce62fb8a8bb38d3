"""Linear matcher scan: the oracle for ``SubscriptionMatcher.matching``.

Answers a publish-time lookup by testing every armed shape's area against
the mutated area and ordering the matches by subscription id — what a
matcher without an index does.  The matcher must return the identical list,
order included.
"""

from __future__ import annotations

from repro.catalog import SubscriptionShape
from repro.namespace import InterestArea


def scan_matching(
    armed: dict[str, SubscriptionShape], area: InterestArea
) -> list[tuple[str, SubscriptionShape]]:
    return [(sub_id, shape) for sub_id, shape in sorted(armed.items()) if shape.area.overlaps(area)]
