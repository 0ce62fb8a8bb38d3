"""EXP-PROVENANCE — provenance: spoof detection and its wire-format overhead (§5.1).

One benchmark reproduces the paper's spoofing example: a misbehaving server
binds a competitor's resource to the empty set; the provenance log shows
the plan never visited any server for that resource, which triggers a
verification count query that exposes the discrepancy.  The second
benchmark measures how much carrying provenance and the original plan
inflates the MQP wire size — the cost §5.1 accepts for those benefits on a
plan that still has a URN to bind.  (A leaf piece of a scatter has none and
leaves the original behind, as ``bare`` does here; its provenance travels.)
"""

from __future__ import annotations

from repro.algebra import PlanBuilder
from repro.engine import QueryEngine
from repro.harness import format_table
from repro.mqp import MutantQueryPlan, ProvenanceAction, ProvenanceLog
from repro.xmlmodel import XMLElement, text_element
from conftest import emit


def _records(count: int, seller: str):
    return [
        XMLElement("item", {}, [text_element("title", f"{seller}-{index}"), text_element("price", 5)])
        for index in range(count)
    ]


def test_spoof_detection_with_verification_query(benchmark):
    """Server S binds its own resource A but spoofs competitor T's resource B to empty."""
    a_items = _records(4, "S")
    b_items = _records(3, "T")

    def detect():
        # The spoofed execution: S evaluated A, never visited T for B.
        provenance = ProvenanceLog()
        provenance.add("S:9020", ProvenanceAction.BOUND, 1.0, detail="urn:ForSale:A")
        provenance.add("S:9020", ProvenanceAction.EVALUATED, 2.0, detail="select->4 items")
        provenance.add("S:9020", ProvenanceAction.DELIVERED, 3.0, detail="client:9020")
        suspicious = provenance.suspicious_resources(["urn:ForSale:A", "urn:ForSale:B"])
        # The client sends the verification query count(sigma(B)) to T directly.
        verification = PlanBuilder.data(b_items, name="B").count().build()
        count_items = QueryEngine().evaluate(verification)
        true_count = int(count_items[0].child_text("value"))
        return suspicious, true_count

    suspicious, true_count = benchmark(detect)
    emit(
        "EXP-PROVENANCE  Spoof detection",
        format_table(
            [
                {
                    "suspicious_resources": ", ".join(suspicious),
                    "reported_items_for_B": 0,
                    "verification_count_at_T": true_count,
                    "spoof_detected": true_count > 0,
                }
            ]
        ),
    )
    assert suspicious == ["urn:ForSale:B"]
    assert true_count == 3


def test_provenance_wire_overhead(benchmark):
    items = _records(20, "S")
    plan = PlanBuilder.data(items, name="partial").display("client:9020")

    def sizes():
        bare = MutantQueryPlan(plan.copy())
        bare.original = None
        bare_size = bare.wire_size()

        full = MutantQueryPlan(plan.copy())
        for hop in range(8):
            full.provenance.add(f"peer{hop}:9020", ProvenanceAction.FORWARDED, float(hop), detail=f"peer{hop + 1}:9020")
            full.provenance.add(f"peer{hop}:9020", ProvenanceAction.EVALUATED, float(hop) + 0.5, detail="select->5 items")
        return bare_size, full.wire_size()

    bare_size, full_size = benchmark(sizes)
    overhead = (full_size - bare_size) / bare_size
    emit(
        "EXP-PROVENANCE  Wire-format overhead",
        format_table(
            [
                {"variant": "plan only", "bytes": bare_size},
                {"variant": "plan + original + 16 provenance records", "bytes": full_size},
                {"variant": "relative overhead", "bytes": round(overhead, 3)},
            ]
        ),
    )
    assert full_size > bare_size
