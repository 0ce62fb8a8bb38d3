"""Per-query population scans: the oracle for the workloads' indexed ground truth.

Each function answers one ground-truth query by walking every item of every
seller (or record of every repository) and re-deriving its cell from its
text — what ``GarageSaleWorkload.matching_items`` and
``GeneExpressionWorkload.matching_records`` did before they were indexed by
cell.  The index must return the identical list: the same item objects, in
the same order.
"""

from __future__ import annotations

from repro.namespace import CategoryPath, InterestArea, InterestCell
from repro.workloads import GarageSaleWorkload, GeneExpressionWorkload
from repro.xmlmodel import XMLElement


def scan_matching_items(
    workload: GarageSaleWorkload, area: InterestArea, max_price: float | None = None
) -> list[XMLElement]:
    matches: list[XMLElement] = []
    for seller in workload.sellers:
        if not area.covers_cell(seller.cell) and not area.overlaps(seller.area):
            continue
        for item in seller.items:
            category = CategoryPath.parse(item.child_text("category") or "*")
            cell = InterestCell((seller.city, category))
            if not area.covers_cell(cell):
                continue
            if max_price is not None and float(item.child_text("price") or "inf") >= max_price:
                continue
            matches.append(item)
    return matches


def scan_matching_records(workload: GeneExpressionWorkload, area: InterestArea) -> list[XMLElement]:
    organisms, cell_types = workload.namespace.dimensions
    matches: list[XMLElement] = []
    for repository in workload.repositories:
        for record in repository.records:
            cell = InterestCell((
                organisms.approximate(record.child_text("organism") or "*"),
                cell_types.approximate(record.child_text("cellType") or "*"),
            ))
            if area.covers_cell(cell):
                matches.append(record)
    return matches
