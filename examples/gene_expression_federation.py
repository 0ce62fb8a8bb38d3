"""Figure 1 scenario: federated gene-expression repositories ("Of Mice and Men").

Run with::

    python examples/gene_expression_federation.py

Three research groups host MIAME-style expression data and describe their
holdings with interest areas over the Organism x CellType namespace.  A
query about cardiac muscle cells in mammals — issued through the public
client API (``repro.api``) and streamed back through a future-like
:class:`~repro.api.QueryHandle` — is routed only to the groups whose
interest areas overlap the query; the fruit-fly neural repository is never
contacted.
"""

from __future__ import annotations

from repro.api import Cluster
from repro.workloads import GeneExpressionConfig, GeneExpressionWorkload
from repro.xmlmodel import evaluate_path


def main() -> None:
    workload = GeneExpressionWorkload(GeneExpressionConfig(records_per_cell=3))
    namespace = workload.namespace

    with Cluster(namespace=namespace) as cluster:
        for repository in workload.repositories:
            session = cluster.base_server(repository.address, repository.area)
            session.publish("experiments", repository.records)
            print(f"{repository.name:32s} serves {repository.area}")

        cluster.meta_index("nih-meta-index:9020")
        researcher = cluster.client("researcher:9020")
        cluster.connect()

        query_area = workload.mammalian_cardiac_query_area()
        expected = workload.matching_records(query_area)
        print(f"\nQuery area: {query_area}")
        print(f"Ground truth: {len(expected)} matching expression records")

        handle = (
            researcher.query()
            .area(query_area)
            .where("cellType contains 'Muscle/Cardiac'")
            .expecting(len(expected))
            .submit()
        )
        result = handle.result(timeout=60_000)

        trace = handle.trace()
        print("\nRoute taken:", " -> ".join(trace.visited))
        skipped = [
            repository.address
            for repository in workload.repositories
            if repository.address not in trace.visited
        ]
        print("Repositories never contacted:", ", ".join(skipped) or "(none)")
        print(f"Records returned: {result.count} (recall {trace.recall:.2f})")
        genes = sorted({item.child_text("gene") or "?" for item in result.items})
        print("Genes observed in cardiac records:", ", ".join(genes))
        # An XPath-lite qualifier picks records out of the answer.
        strong = "/experiment[expression > 10]"
        count = sum(1 for item in result.items if evaluate_path(item, strong))
        print(f"Records expressed above 10: {count}")


if __name__ == "__main__":
    main()
