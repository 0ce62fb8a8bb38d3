"""The gene-expression workload of Figure 1 ("Of Mice and Men").

Biomedical groups host repositories of MIAME-style expression records and
"indicate their interest areas relative to organism and cell-type
hierarchies".  The three groups of Figure 1 are generated verbatim (fruit
fly neural cells; rodent connective and muscle cells; all human cell
types), plus any number of additional synthetic groups, and the canonical
query — "a query related to cardiac muscle cells in mammals" — is provided
together with its ground truth: it must reach groups 2 and 3 but never
group 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..namespace import (
    InterestArea,
    InterestCell,
    MultiHierarchicNamespace,
    gene_expression_namespace,
)
from ..xmlmodel import XMLElement, text_element
from .distributions import make_rng
from .queries import CellIndex

__all__ = ["GeneExpressionConfig", "Repository", "GeneExpressionWorkload"]

_GENES = ["BRCA1", "TP53", "MYC", "ACTB", "GATA4", "NKX2-5", "TNNT2", "MYH7", "SCN5A", "FOXP2"]


@dataclass(frozen=True)
class GeneExpressionConfig:
    """Parameters of the generated repository population."""

    extra_repositories: int = 0
    records_per_cell: int = 5
    seed: int = 7


@dataclass
class Repository:
    """One research group's repository: address, interest area, records."""

    address: str
    name: str
    area: InterestArea
    records: list[XMLElement] = field(default_factory=list)


class GeneExpressionWorkload:
    """Generates the Figure 1 repositories and their expression records."""

    CELL_FIELDS = ("organism", "cellType")
    """The record fields that carry its interest cell, one per namespace dimension."""

    def __init__(
        self,
        config: GeneExpressionConfig | None = None,
        namespace: MultiHierarchicNamespace | None = None,
    ) -> None:
        self.config = config or GeneExpressionConfig()
        self.namespace = namespace or gene_expression_namespace()
        self._rng = make_rng(self.config.seed)
        self.repositories: list[Repository] = []
        self._index = CellIndex()  # every record in repository order, by its cell
        self._build_figure1_groups()
        self._build_extra_groups()

    # -- the three groups of Figure 1 ----------------------------------------------------- #

    def _build_figure1_groups(self) -> None:
        fly_neural = self.namespace.area(
            ["Coelomata/Protostomia/Drosophila/Melanogaster", "Neural"]
        )
        rodent_conn_muscle = self.namespace.area(
            ["Coelomata/Deuterostomia/Mammalia/Eutheria/Rodentia", "Connective"],
            ["Coelomata/Deuterostomia/Mammalia/Eutheria/Rodentia", "Muscle"],
        )
        human_all = self.namespace.area(
            ["Coelomata/Deuterostomia/Mammalia/Eutheria/Primates/HomoSapiens", "*"]
        )
        self.repositories.append(self._make_repository("fly-lab:9020", "Fly neural lab", fly_neural))
        self.repositories.append(
            self._make_repository("rodent-lab:9020", "Rodent connective/muscle lab", rodent_conn_muscle)
        )
        self.repositories.append(self._make_repository("human-lab:9020", "Human atlas project", human_all))

    def _build_extra_groups(self) -> None:
        organisms = self.namespace.dimensions[0].leaves()
        cell_types = [
            category
            for category in self.namespace.dimensions[1].categories()
            if category.depth == 1
        ]
        for index in range(self.config.extra_repositories):
            organism = organisms[int(self._rng.integers(len(organisms)))]
            cell_type = cell_types[int(self._rng.integers(len(cell_types)))]
            area = InterestArea([InterestCell((organism, cell_type))])
            self.repositories.append(
                self._make_repository(f"lab{index:03d}:9020", f"Synthetic lab {index}", area)
            )

    def _make_repository(self, address: str, name: str, area: InterestArea) -> Repository:
        repository = Repository(address, name, area)
        for cell in area:
            leaves = self._covered_leaf_cells(cell)
            for leaf in leaves:
                for record_index in range(self.config.records_per_cell):
                    record = self._make_record(leaf, record_index)
                    repository.records.append(record)
                    self._index.add(cell, leaf, record)
        return repository

    def _covered_leaf_cells(self, cell: InterestCell) -> list[InterestCell]:
        organism_dim, cell_dim = self.namespace.dimensions
        organisms = [leaf for leaf in organism_dim.leaves() if cell.coordinate(0).covers(leaf)]
        cell_types = [leaf for leaf in cell_dim.leaves() if cell.coordinate(1).covers(leaf)]
        return [InterestCell((organism, cell_type)) for organism in organisms for cell_type in cell_types]

    def _make_record(self, cell: InterestCell, index: int) -> XMLElement:
        gene = _GENES[int(self._rng.integers(len(_GENES)))]
        level = round(float(self._rng.lognormal(2.0, 0.8)), 3)
        return XMLElement(
            "experiment",
            {"id": f"{cell.coordinate(0).label}-{cell.coordinate(1).label}-{index}"},
            [
                text_element("organism", str(cell.coordinate(0))),
                text_element("cellType", str(cell.coordinate(1))),
                text_element("gene", gene),
                text_element("expression", level),
                text_element("platform", "microarray"),
            ],
        )

    # -- the Figure 1 query --------------------------------------------------------------- #

    def mammalian_cardiac_query_area(self) -> InterestArea:
        """The paper's example query: cardiac muscle cells in mammals."""
        return self.namespace.area(
            ["Coelomata/Deuterostomia/Mammalia", "Muscle/Cardiac"]
        )

    def relevant_repositories(self, area: InterestArea) -> list[Repository]:
        """Repositories whose interest area overlaps the query (may hold data)."""
        return [repository for repository in self.repositories if repository.area.overlaps(area)]

    def irrelevant_repositories(self, area: InterestArea) -> list[Repository]:
        """Repositories that can safely be skipped (the paper's group 1)."""
        return [repository for repository in self.repositories if not repository.area.overlaps(area)]

    def matching_records(self, area: InterestArea) -> list[XMLElement]:
        """Ground truth: records whose (organism, cellType) cell is covered by the area,
        in repository order."""
        return self._index.covered_by(area)
