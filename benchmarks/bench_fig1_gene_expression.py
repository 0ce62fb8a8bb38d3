"""FIG-1 — "Of Mice and Men": coverage-based routing over gene-expression repositories.

Reproduces Figure 1's routing decision: a query about cardiac muscle cells
in mammals is routed to the rodent and human repositories (whose interest
areas overlap the query) and never to the fruit-fly neural repository.
The table reports, per repository, whether the catalog contacts it and how
many matching records it actually holds; the benchmark times the
overlap-pruning decision across a growing repository population.
"""

from __future__ import annotations

from repro.workloads import GeneExpressionConfig, GeneExpressionWorkload
from conftest import emit


def _decision_rows(workload: GeneExpressionWorkload):
    from repro.namespace import InterestCell

    query = workload.mammalian_cardiac_query_area()
    organism_dim, cell_dim = workload.namespace.dimensions
    rows = []
    for repository in workload.repositories:
        overlapping = repository.area.overlaps(query)
        matching = sum(
            1
            for record in repository.records
            if query.covers_cell(
                InterestCell(
                    (
                        organism_dim.approximate(record.child_text("organism") or "*"),
                        cell_dim.approximate(record.child_text("cellType") or "*"),
                    )
                )
            )
        )
        rows.append(
            {
                "repository": repository.name,
                "interest_area": str(repository.area),
                "contacted": overlapping,
                "matching_records": matching,
                "records_held": len(repository.records),
            }
        )
    return rows


def test_figure1_routing_decision(benchmark):
    workload = GeneExpressionWorkload(GeneExpressionConfig(records_per_cell=3))
    query = workload.mammalian_cardiac_query_area()

    def prune():
        return [repo for repo in workload.repositories if repo.area.overlaps(query)]

    contacted = benchmark(prune)
    rows = _decision_rows(workload)
    emit(
        "FIG-1  Gene-expression query routing ([Mammalia, Muscle/Cardiac])",
        "\n".join(
            f"{row['repository']:32s} contacted={str(row['contacted']):5s} "
            f"matching={row['matching_records']:3d} held={row['records_held']:3d}"
            for row in rows
        ),
    )
    names = {repo.name for repo in contacted}
    assert names == {"Rodent connective/muscle lab", "Human atlas project"}


def test_figure1_pruning_scales_with_population(benchmark):
    workload = GeneExpressionWorkload(GeneExpressionConfig(extra_repositories=60, records_per_cell=1))
    query = workload.mammalian_cardiac_query_area()

    def prune_all():
        return sum(1 for repo in workload.repositories if repo.area.overlaps(query))

    contacted = benchmark(prune_all)
    skipped = len(workload.repositories) - contacted
    emit(
        "FIG-1  Pruning at scale",
        f"repositories={len(workload.repositories)} contacted={contacted} skipped={skipped}",
    )
    assert contacted < len(workload.repositories)
