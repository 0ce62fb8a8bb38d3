"""The category-server questions of the paper (§3.5), asked of the namespace.

A category server answers questions about the dimensions themselves: which
dimensions there are, the immediate subcategories of a category, a
category's parent, whether a category is known, and the nearest known
ancestor of an unknown one.  The namespace's own hierarchies answer all of
them.
"""

import pytest

from repro.errors import NamespaceError
from repro.namespace import CategoryPath, garage_sale_namespace


@pytest.fixture()
def service():
    return garage_sale_namespace()


class TestCategoryQueries:
    def test_dimensions(self, service):
        assert [dimension.name for dimension in service.dimensions] == [
            "Location", "Merchandise",
        ]

    def test_subcategories_question_from_paper(self, service):
        # "What are the immediate subcategories of Furniture?"
        labels = [path.label for path in service.dimension("Merchandise").children("Furniture")]
        assert labels == sorted(labels)
        assert {"Tables", "Chairs", "Sofas", "Beds"} == set(labels)

    def test_parent(self, service):
        portland = CategoryPath.parse("USA/OR/Portland")
        assert portland in service.dimension("Location")
        assert portland.parent == CategoryPath.parse("USA/OR")

    def test_contains(self, service):
        assert "USA/OR" in service.dimension("Location")
        assert "Narnia" not in service.dimension("Location")

    def test_approximate(self, service):
        assert service.dimension("Location").approximate(
            "USA/OR/Portland/Hawthorne"
        ) == CategoryPath.parse("USA/OR/Portland")

    def test_unknown_dimension_raises(self, service):
        with pytest.raises(NamespaceError):
            service.dimension("Color").children("Red")
