"""Tests for category paths and hierarchies."""

import pytest

from repro.errors import NamespaceError
from repro.namespace import TOP, CategoryPath, Hierarchy, location_hierarchy


class TestCategoryPath:
    def test_parse_and_str_roundtrip(self):
        path = CategoryPath.parse("USA/OR/Portland")
        assert str(path) == "USA/OR/Portland"
        assert path.depth == 3
        assert path.label == "Portland"

    def test_top_category(self):
        assert CategoryPath.parse("*") == TOP
        assert TOP.is_top
        assert str(TOP) == "*"
        assert TOP.parent == TOP

    def test_invalid_segment_rejected(self):
        with pytest.raises(NamespaceError):
            CategoryPath(("bad/segment",))
        with pytest.raises(NamespaceError):
            CategoryPath(("",))

    def test_parent(self):
        path = CategoryPath.parse("USA/OR/Portland")
        assert str(path.parent) == "USA/OR"

    def test_covers_is_reflexive_and_ancestral(self):
        oregon = CategoryPath.parse("USA/OR")
        portland = CategoryPath.parse("USA/OR/Portland")
        assert oregon.covers(portland)
        assert oregon.covers(oregon)
        assert not portland.covers(oregon)
        assert TOP.covers(portland)

    def test_overlaps_and_meet(self):
        oregon = CategoryPath.parse("USA/OR")
        portland = CategoryPath.parse("USA/OR/Portland")
        seattle = CategoryPath.parse("USA/WA/Seattle")
        assert oregon.overlaps(portland)
        assert not portland.overlaps(seattle)
        assert oregon.meet(portland) == portland
        assert portland.meet(seattle) is None

    def test_child(self):
        assert str(CategoryPath.parse("USA").child("OR")) == "USA/OR"


class TestHierarchy:
    def test_add_creates_ancestors(self):
        hierarchy = Hierarchy("Location")
        hierarchy.add("USA/OR/Portland")
        assert "USA" in hierarchy
        assert "USA/OR" in hierarchy
        assert "USA/OR/Portland" in hierarchy

    def test_children_sorted(self):
        hierarchy = Hierarchy("M", ["Music/CDs", "Music/Vinyl", "Music/Cassettes"])
        labels = [child.label for child in hierarchy.children("Music")]
        assert labels == sorted(labels)
        assert len(labels) == 3

    def test_children_of_unknown_raises(self):
        with pytest.raises(NamespaceError):
            Hierarchy("X").children("Nope")

    def test_leaves(self):
        hierarchy = location_hierarchy()
        leaves = hierarchy.leaves()
        assert all(not hierarchy.children(leaf) for leaf in leaves)

    def test_approximate_unknown_to_known_ancestor(self):
        hierarchy = location_hierarchy()
        approx = hierarchy.approximate("USA/OR/Portland/Hawthorne")
        assert str(approx) == "USA/OR/Portland"
        assert hierarchy.approximate("Atlantis/Coral") == TOP

    def test_descendants(self):
        hierarchy = location_hierarchy()
        descendants = hierarchy.descendants("USA/OR")
        assert CategoryPath.parse("USA/OR/Portland") in descendants
        assert CategoryPath.parse("USA/WA/Seattle") not in descendants
        without_self = hierarchy.descendants("USA/OR", include_self=False)
        assert CategoryPath.parse("USA/OR") not in without_self

    def test_add_tree(self):
        hierarchy = Hierarchy("T")
        hierarchy.add_tree({"A": {"B": {}, "C": {"D": {}}}})
        assert "A/C/D" in hierarchy
        assert len(hierarchy.children("A")) == 2

    def test_empty_name_rejected(self):
        with pytest.raises(NamespaceError):
            Hierarchy("")
