"""Ground truth: the cell-indexed workload oracles against the per-query scan.

``GarageSaleWorkload.matching_items`` and
``GeneExpressionWorkload.matching_records`` answer from an index built once
per population; ``oracles.ground_truth_scan`` walks every item per query.
Both must return the same item objects in the same order — and the harness,
which asks once per distinct area, must end with the expected counts the
scan gives every query.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.harness import scaleout
from repro.harness.cli import SCENARIOS
from repro.namespace import CategoryPath, InterestArea, InterestCell
from repro.namespace.interest import _cell_covers, _cell_overlaps
from repro.workloads import (
    GarageSaleConfig,
    GarageSaleWorkload,
    GeneExpressionConfig,
    GeneExpressionWorkload,
    QueryWorkload,
)

from oracles.ground_truth_scan import scan_matching_items, scan_matching_records


def assert_same_items(got, expected):
    assert len(got) == len(expected)
    assert all(mine is theirs for mine, theirs in zip(got, expected))


def _uncovered_area(workload_areas, namespace) -> InterestArea | None:
    """A leaf cell that overlaps none of the population's areas, if one is left."""
    locations, categories = namespace.dimensions
    for location in locations.leaves():
        for category in categories.leaves():
            area = InterestArea([InterestCell((location, category))])
            if not any(area.overlaps(held) for held in workload_areas):
                return area
    return None


def _garage_sale_areas(workload: GarageSaleWorkload, seed: int) -> list[InterestArea]:
    namespace = workload.namespace
    drawn = [
        query.area
        for generator in (
            QueryWorkload(namespace, seed=seed + 1, price_ceiling_range=None),
            QueryWorkload(namespace, location_level=2, category_level=2, seed=seed),
        )
        for query in generator.batch(40)
    ]
    leaves = [
        InterestArea([InterestCell((seller.city, CategoryPath.parse(item.child_text("category"))))])
        for seller in workload.sellers[:5]
        for item in seller.items[:2]
    ]
    sellers = workload.sellers
    multi = [
        InterestArea([sellers[0].cell, sellers[-1].cell]),
        InterestArea([cell for area in drawn[:4] for cell in area]),
        namespace.area(["USA/OR", "*"], ["*", "Music"]),
    ]
    uncovered = _uncovered_area([seller.area for seller in sellers], namespace)
    assert uncovered is not None
    return [*drawn, namespace.top_area(), *leaves, *multi, uncovered]


class TestGarageSaleGroundTruth:
    @pytest.mark.parametrize("sellers, seed", [(20, 42), (60, 7), (200, 11), (35, 23)])
    @pytest.mark.parametrize("max_price", [None, 50, 400])
    def test_index_equals_scan(self, sellers, seed, max_price):
        workload = GarageSaleWorkload(
            GarageSaleConfig(sellers=sellers, mean_items_per_seller=6.0, seed=seed)
        )
        for area in _garage_sale_areas(workload, seed):
            assert_same_items(
                workload.matching_items(area, max_price),
                scan_matching_items(workload, area, max_price),
            )

    def test_deeper_seller_categories(self):
        workload = GarageSaleWorkload(GarageSaleConfig(sellers=40, seller_category_depth=2, seed=5))
        for area in _garage_sale_areas(workload, 5):
            assert_same_items(workload.matching_items(area), scan_matching_items(workload, area))

    def test_price_ceiling_is_exclusive(self):
        workload = GarageSaleWorkload(GarageSaleConfig(sellers=30, seed=3))
        top = workload.namespace.top_area()
        for item in workload.all_items()[:10]:
            ceiling = float(item.child_text("price"))
            matched = workload.matching_items(top, ceiling)
            assert item not in matched
            assert_same_items(matched, scan_matching_items(workload, top, ceiling))

    def test_top_area_is_everything_and_uncovered_is_nothing(self):
        workload = GarageSaleWorkload(GarageSaleConfig(sellers=30, seed=3))
        namespace = workload.namespace
        assert_same_items(workload.matching_items(namespace.top_area()), workload.all_items())
        uncovered = _uncovered_area([seller.area for seller in workload.sellers], namespace)
        assert workload.matching_items(uncovered) == []


class TestGeneExpressionGroundTruth:
    @pytest.mark.parametrize("extra, seed", [(0, 7), (25, 5), (120, 11), (300, 23)])
    def test_index_equals_scan(self, extra, seed):
        workload = GeneExpressionWorkload(
            GeneExpressionConfig(extra_repositories=extra, records_per_cell=2, seed=seed)
        )
        namespace = workload.namespace
        organisms, cell_types = namespace.dimensions
        drawn = [
            query.area
            for query in QueryWorkload(
                namespace, location_level=3, category_level=1, seed=seed + 1,
                price_ceiling_range=None,
            ).batch(40)
        ]
        leaves = [
            InterestArea([InterestCell((
                organisms.approximate(record.child_text("organism")),
                cell_types.approximate(record.child_text("cellType")),
            ))])
            for repository in workload.repositories[::7]
            for record in repository.records[:1]
        ]
        multi = [repository.area for repository in workload.repositories[:3]]
        multi.append(InterestArea([cell for area in drawn[:5] for cell in area]))
        areas = [
            workload.mammalian_cardiac_query_area(), *drawn, namespace.top_area(),
            *leaves, *multi,
        ]
        for area in areas:
            assert_same_items(workload.matching_records(area), scan_matching_records(workload, area))

    def test_uncovered_cell_matches_nothing(self):
        # Larger populations cover every leaf cell; the Figure 1 groups leave gaps.
        workload = GeneExpressionWorkload(GeneExpressionConfig(extra_repositories=5, seed=7))
        uncovered = _uncovered_area(
            [repository.area for repository in workload.repositories], workload.namespace
        )
        assert uncovered is not None
        assert workload.matching_records(uncovered) == []
        assert scan_matching_records(workload, uncovered) == []


class TestGroundTruthStaysOutOfTheMemo:
    """The ground truth is the harness's: its cell pairs never enter the
    process-wide comparison memo the catalog's lookups share."""

    @pytest.mark.parametrize("build, ask", [
        (lambda: GarageSaleWorkload(GarageSaleConfig(sellers=60, seed=7)), "matching_items"),
        (
            lambda: GeneExpressionWorkload(GeneExpressionConfig(extra_repositories=25, seed=5)),
            "matching_records",
        ),
    ], ids=["garage-sale", "gene-expression"])
    def test_covered_by_leaves_the_cell_memos_as_they_were(self, build, ask):
        workload = build()
        namespace = workload.namespace
        queries = QueryWorkload(namespace, seed=3, price_ceiling_range=None).batch(30)
        areas = [query.area for query in queries] + [namespace.top_area()]

        # Lookups, not sizes: a memo already full keeps its size while it inserts.
        def lookups():
            return [(info.hits, info.misses) for info in (
                _cell_overlaps.cache_info(), _cell_covers.cache_info())]

        before = lookups()
        answered = [getattr(workload, ask)(area) for area in areas]
        assert sum(map(len, answered)) > 0
        assert lookups() == before


class _Spy:
    """Record the workload a population builds and each ground-truth call it answers."""

    def __init__(self, monkeypatch, base: type, method: str) -> None:
        self.built: list = []
        self.asked: list[InterestArea] = []
        spy = self

        def __init__(workload, *args, **kwargs):
            base.__init__(workload, *args, **kwargs)
            spy.built.append(workload)

        def answer(workload, area, *args):
            spy.asked.append(area)
            return getattr(base, method)(workload, area, *args)

        subclass = type(f"Spied{base.__name__}", (base,), {"__init__": __init__, method: answer})
        monkeypatch.setattr(scaleout, base.__name__, subclass)


class TestHarnessGroundTruth:
    @pytest.mark.parametrize("preset, peers, queries", [
        ("flash-crowd", 40, 60),
        ("sharded-catalog", 40, 30),
        ("thousand-peers", 60, 30),
    ])
    def test_expected_counts_equal_the_scan(self, monkeypatch, preset, peers, queries):
        spec = replace(SCENARIOS[preset], peers=peers, queries=queries)
        if spec.workload == "garage-sale":
            spy = _Spy(monkeypatch, GarageSaleWorkload, "ground_truth_count")

            def scan(workload, area):
                return scan_matching_items(workload, area, None)
        else:
            spy = _Spy(monkeypatch, GeneExpressionWorkload, "matching_records")
            scan = scan_matching_records
        scenario = scaleout.build_scaleout_scenario(spec)
        scenario.network.close()
        (workload,) = spy.built
        assert len(scenario.queries) == queries
        assert [(query.area, query.expected) for query in scenario.queries] == [
            (query.area, len(scan(workload, query.area))) for query in scenario.queries
        ]
        # The oracle is asked once per distinct area, and the batch repeats areas.
        assert len(spy.asked) == len(set(spy.asked)) < queries
