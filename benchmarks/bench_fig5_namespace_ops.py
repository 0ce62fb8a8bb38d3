"""FIG-5 — multi-hierarchic namespace geometry at scale.

Figure 5 visualizes interest areas as regions over the Location x
Merchandise grid.  This benchmark times the three relations everything
else is built on — cover, overlap, and intersection of interest areas — as
the number of areas grows, and reports how selective overlap pruning is
for a Portland-furniture style query.
"""

from __future__ import annotations

import pytest

from repro.namespace import InterestArea, InterestCell, garage_sale_namespace
from repro.workloads import make_rng
from conftest import emit


def _random_areas(count: int, seed: int = 5) -> list[InterestArea]:
    namespace = garage_sale_namespace()
    rng = make_rng(seed)
    # Country/state-level locations and top-level merchandise categories:
    # the granularity at which servers advertise interest areas (Figure 5).
    locations = [c for c in namespace.dimensions[0].categories() if c.depth <= 2]
    categories = [c for c in namespace.dimensions[1].categories() if c.depth <= 1]
    areas = []
    for _ in range(count):
        cells = []
        for _ in range(int(rng.integers(1, 4))):
            location = locations[int(rng.integers(len(locations)))]
            category = categories[int(rng.integers(len(categories)))]
            cells.append(InterestCell((location, category)))
        areas.append(InterestArea(cells))
    return areas


@pytest.mark.parametrize("count", [50, 200])
def test_overlap_pruning(benchmark, count):
    namespace = garage_sale_namespace()
    areas = _random_areas(count)
    query = namespace.area(["USA/OR/Portland", "Furniture"])

    def prune():
        return sum(1 for area in areas if area.overlaps(query))

    overlapping = benchmark(prune)
    emit(
        f"FIG-5  Overlap pruning over {count} interest areas",
        f"areas={count} overlapping={overlapping} selectivity={overlapping / count:.2f}",
    )
    assert 0 < overlapping < count


def test_cover_and_intersection(benchmark):
    areas = _random_areas(100)
    figure5_a = InterestArea.of(
        ["USA/OR/Portland", "Furniture"], ["USA/WA/Vancouver", "Furniture"]
    )

    def relate_all():
        covered = sum(1 for area in areas if figure5_a.covers(area))
        intersections = sum(1 for area in areas if figure5_a.intersection(area))
        return covered, intersections

    covered, intersections = benchmark(relate_all)
    emit(
        "FIG-5  Cover / intersection against area (a)",
        f"covered={covered} non_empty_intersections={intersections} out_of={len(areas)}",
    )
    assert intersections >= covered


def test_urn_codec_throughput(benchmark):
    from repro.namespace import decode_interest_area, encode_interest_area

    areas = _random_areas(100)

    def roundtrip_all():
        return sum(len(decode_interest_area(encode_interest_area(area)).cells) for area in areas)

    total_cells = benchmark(roundtrip_all)
    emit("FIG-5  URN codec", f"areas={len(areas)} total_cells_roundtripped={total_cells}")
    assert total_cells >= len(areas)
