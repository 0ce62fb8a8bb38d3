"""The P2P garage-sale workload (paper §2): sellers, items, and their locality.

"Data about items in garage sales, second hand stores, and auctions come
online ... For-sale data is likely to have locality in terms of geographic
location or category of merchandise."  The generator models exactly that
locality assumption: each seller picks one city and one merchandise
specialty (with Zipf-skewed popularity), and all of its items fall inside
that interest cell.  Item bundles are XML, with the fields the paper lists
(name, location, description, condition, price, quantity).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..namespace import (
    CategoryPath,
    InterestArea,
    InterestCell,
    MultiHierarchicNamespace,
    garage_sale_namespace,
)
from ..xmlmodel import XMLElement, text_element
from .distributions import make_rng, zipf_choice
from .queries import CellIndex

__all__ = ["GarageSaleConfig", "SellerData", "GarageSaleWorkload"]


_ADJECTIVES = ["Vintage", "Used", "Refurbished", "Classic", "Handmade", "Antique", "Modern", "Compact"]
_CONDITIONS = ["mint", "good", "fair", "worn"]


@dataclass(frozen=True)
class GarageSaleConfig:
    """Parameters of a generated garage-sale population."""

    sellers: int = 20
    mean_items_per_seller: float = 12.0
    city_skew: float = 1.1
    category_skew: float = 0.9
    price_range: tuple[float, float] = (2.0, 400.0)
    seller_category_depth: int = 1
    seed: int = 42


@dataclass
class SellerData:
    """One seller: its address, interest cell, and generated item bundles."""

    address: str
    cell: InterestCell
    items: list[XMLElement] = field(default_factory=list)

    @property
    def area(self) -> InterestArea:
        """The seller's interest area (a single cell)."""
        return InterestArea([self.cell])

    @property
    def city(self) -> CategoryPath:
        """The seller's location category."""
        return self.cell.coordinate(0)


class GarageSaleWorkload:
    """Generates sellers, items and ground-truth answers for the garage sale."""

    CELL_FIELDS = ("city", "category")
    """The item fields that carry its interest cell, one per namespace dimension."""

    def __init__(
        self,
        config: GarageSaleConfig | None = None,
        namespace: MultiHierarchicNamespace | None = None,
    ) -> None:
        self.config = config or GarageSaleConfig()
        self.namespace = namespace or garage_sale_namespace()
        self._rng = make_rng(self.config.seed)
        self._cities = self.namespace.dimensions[0].leaves()
        merchandise = self.namespace.dimensions[1]
        depth = max(1, self.config.seller_category_depth)
        self._categories = [
            category for category in merchandise.categories() if 1 <= category.depth <= depth
        ]
        self.sellers: list[SellerData] = []
        self._index = CellIndex()  # every item in seller order, by item cell
        self._generate()

    # -- generation ------------------------------------------------------------------ #

    def _generate(self) -> None:
        for index in range(self.config.sellers):
            city = zipf_choice(self._rng, self._cities, self.config.city_skew)
            category = zipf_choice(self._rng, self._categories, self.config.category_skew)
            cell = self.namespace.cell(city, category)
            seller = SellerData(address=f"seller{index:03d}:9020", cell=cell)
            item_count = max(1, int(self._rng.poisson(self.config.mean_items_per_seller)))
            leaf_categories = self.namespace.dimensions[1].descendants(category)
            for item_index in range(item_count):
                item_category = leaf_categories[int(self._rng.integers(len(leaf_categories)))]
                item = self._make_item(seller, item_index, item_category)
                seller.items.append(item)
                self._index.add(cell, InterestCell((city, item_category)), item)
            self.sellers.append(seller)

    def _make_item(self, seller: SellerData, index: int, category: CategoryPath) -> XMLElement:
        adjective = _ADJECTIVES[int(self._rng.integers(len(_ADJECTIVES)))]
        condition = _CONDITIONS[int(self._rng.integers(len(_CONDITIONS)))]
        low, high = self.config.price_range
        price = round(float(self._rng.uniform(low, high)), 2)
        quantity = int(self._rng.integers(1, 4))
        title = f"{adjective} {category.label} #{index}"
        return XMLElement(
            "item",
            {"id": f"{seller.address}-{index}"},
            [
                text_element("title", title),
                text_element("price", price),
                text_element("condition", condition),
                text_element("quantity", quantity),
                text_element("city", str(seller.city)),
                text_element("category", str(category)),
                text_element("seller", seller.address),
                text_element("description", f"{adjective} {category.label} in {condition} condition"),
            ],
        )

    # -- ground truth ------------------------------------------------------------------- #

    def all_items(self) -> list[XMLElement]:
        """Every generated item, across sellers."""
        return list(self._index.items)

    def matching_items(self, area: InterestArea, max_price: float | None = None) -> list[XMLElement]:
        """Ground-truth answer: items covered by ``area`` (optionally below a price),
        in seller order."""
        matches = self._index.covered_by(area)
        if max_price is not None:
            matches = [
                item for item in matches
                if float(item.child_text("price") or "inf") < max_price
            ]
        return matches

    def ground_truth_count(self, area: InterestArea, max_price: float | None = None) -> int:
        """Number of items a complete answer should contain."""
        return len(self.matching_items(area, max_price))
