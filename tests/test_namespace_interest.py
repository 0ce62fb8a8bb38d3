"""Tests for interest cells, areas, and the multi-hierarchic namespace."""

import pytest

from repro.errors import NamespaceError
from repro.namespace import (
    InterestArea,
    InterestCell,
    MultiHierarchicNamespace,
    garage_sale_namespace,
    gene_expression_namespace,
    location_hierarchy,
)


class TestInterestCell:
    def test_covers_requires_every_dimension(self):
        broad = InterestCell.of("USA", "Furniture")
        narrow = InterestCell.of("USA/OR/Portland", "Furniture/Chairs")
        assert broad.covers(narrow)
        assert not narrow.covers(broad)

    def test_figure5_interest_cells(self):
        # [USA, Furniture] covers all furniture in the United States.
        usa_furniture = InterestCell.of("USA", "Furniture")
        portland_tables = InterestCell.of("USA/OR/Portland", "Furniture/Tables")
        assert usa_furniture.covers(portland_tables)

    def test_overlap_is_symmetric(self):
        left = InterestCell.of("USA/OR", "Furniture")
        right = InterestCell.of("USA/OR/Portland", "*")
        assert left.overlaps(right) and right.overlaps(left)

    def test_disjoint_cells(self):
        portland = InterestCell.of("USA/OR/Portland", "Furniture")
        seattle = InterestCell.of("USA/WA/Seattle", "Furniture")
        assert not portland.overlaps(seattle)
        assert portland.intersect(seattle) is None

    def test_intersection_picks_most_specific(self):
        left = InterestCell.of("USA/OR", "Furniture/Chairs")
        right = InterestCell.of("USA/OR/Portland", "Furniture")
        met = left.intersect(right)
        assert met == InterestCell.of("USA/OR/Portland", "Furniture/Chairs")

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(NamespaceError):
            InterestCell.of("USA").covers(InterestCell.of("USA", "Furniture"))

    def test_specificity(self):
        assert InterestCell.of("USA/OR/Portland", "Furniture").specificity() == 4
        assert InterestCell.of("*", "*").specificity() == 0


class TestInterestArea:
    def test_paper_example_areas_overlap(self):
        # Figure 5: (a) Vancouver-Portland furniture, (b) everything in Portland.
        area_a = InterestArea.of(
            ["USA/OR/Portland", "Furniture"], ["USA/WA/Vancouver", "Furniture"]
        )
        area_b = InterestArea.of(["USA/OR/Portland", "*"])
        assert area_a.overlaps(area_b)
        assert not area_a.covers(area_b)
        assert area_b.covers_cell(InterestCell.of("USA/OR/Portland", "Furniture"))

    def test_maximal_cell_invariant_absorbs_covered_cells(self):
        area = InterestArea.of(["USA/OR/Portland", "Furniture/Chairs"])
        area.add(InterestCell.of("USA/OR", "Furniture"))
        assert len(area) == 1
        assert area.cells[0] == InterestCell.of("USA/OR", "Furniture")

    def test_adding_covered_cell_is_noop(self):
        area = InterestArea.of(["USA/OR", "Furniture"])
        area.add(InterestCell.of("USA/OR/Portland", "Furniture/Tables"))
        assert len(area) == 1

    def test_union_and_intersection(self):
        portland = InterestArea.of(["USA/OR/Portland", "*"])
        furniture = InterestArea.of(["USA", "Furniture"])
        union = portland.union(furniture)
        assert union.covers(portland) and union.covers(furniture)
        intersection = portland.intersection(furniture)
        assert intersection.covers_cell(InterestCell.of("USA/OR/Portland", "Furniture/Tables"))
        assert not intersection.covers_cell(InterestCell.of("USA/OR/Portland", "Music/CDs"))

    def test_cover_transitivity_on_areas(self):
        big = InterestArea.of(["USA", "*"])
        medium = InterestArea.of(["USA/OR", "Furniture"], ["USA/WA", "Furniture"])
        small = InterestArea.of(["USA/OR/Portland", "Furniture/Chairs"])
        assert big.covers(medium) and medium.covers(small) and big.covers(small)

    def test_equality_and_hash(self):
        first = InterestArea.of(["USA/OR", "Furniture"], ["USA/WA", "Music"])
        second = InterestArea.of(["USA/WA", "Music"], ["USA/OR", "Furniture"])
        assert first == second
        assert hash(first) == hash(second)

    def test_empty_area_is_falsy(self):
        assert not InterestArea()
        assert InterestArea().specificity() == 0

    def test_mixed_dimensionality_rejected(self):
        area = InterestArea.of(["USA", "Furniture"])
        with pytest.raises(NamespaceError):
            area.add(InterestCell.of("USA"))


class TestMultiHierarchicNamespace:
    def test_dimension_lookup(self):
        namespace = garage_sale_namespace()
        assert [dimension.name for dimension in namespace.dimensions] == [
            "Location", "Merchandise",
        ]
        assert namespace.dimension("Location").name == "Location"
        with pytest.raises(NamespaceError):
            namespace.dimension("Color")

    def test_cell_validation(self):
        namespace = garage_sale_namespace()
        cell = namespace.cell("USA/OR/Portland", "Furniture/Chairs")
        assert cell.dimensionality == 2
        with pytest.raises(NamespaceError):
            namespace.cell("USA/OR/Portland", "NotACategory")
        with pytest.raises(NamespaceError):
            namespace.validate_cell(InterestCell.of("USA"))

    def test_top_area_covers_everything(self):
        namespace = garage_sale_namespace()
        assert namespace.top_area().covers(namespace.area(["USA/OR", "Music"]))

    def test_duplicate_dimension_names_rejected(self):
        with pytest.raises(NamespaceError):
            MultiHierarchicNamespace([location_hierarchy(), location_hierarchy()])

    def test_needs_at_least_one_dimension(self):
        with pytest.raises(NamespaceError):
            MultiHierarchicNamespace([])

    def test_figure1_gene_expression_coverage(self):
        """The Figure 1 routing decision: group 2 and 3 overlap the query, group 1 does not."""
        namespace = gene_expression_namespace()
        query = namespace.area(["Coelomata/Deuterostomia/Mammalia", "Muscle/Cardiac"])
        fly_neural = namespace.area(["Coelomata/Protostomia/Drosophila/Melanogaster", "Neural"])
        rodent = namespace.area(
            ["Coelomata/Deuterostomia/Mammalia/Eutheria/Rodentia", "Connective"],
            ["Coelomata/Deuterostomia/Mammalia/Eutheria/Rodentia", "Muscle"],
        )
        human = namespace.area(
            ["Coelomata/Deuterostomia/Mammalia/Eutheria/Primates/HomoSapiens", "*"]
        )
        assert not query.overlaps(fly_neural)
        assert query.overlaps(rodent)
        assert query.overlaps(human)
