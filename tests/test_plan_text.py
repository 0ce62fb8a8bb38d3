"""The plan text writers against the element-tree oracle, byte for byte.

``serialize_plan``, ``EvaluationMemo.key_for`` and ``MutantQueryPlan.serialize``
write text directly; ``tests/oracles/mqp_tree.py`` builds the element tree
the codec used to build and lets ``serialize_xml`` write it.  Both must agree
on every operator, every optional attribute, escaping, data as a tree and as
a carried span, and every part of a mutant query plan.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

import pytest

from repro.algebra import (
    DATA_SPANS,
    PlanBuilder,
    QueryPlan,
    URLRef,
    VerbatimData,
    parse_plan,
    plan_from_xml,
    plan_to_xml,
    serialize_plan,
)
from repro.engine import EvaluationMemo
from repro.harness.cli import SCENARIOS
from repro.harness.scaleout import run_scaleout
from repro.mqp import MutantQueryPlan, ProvenanceAction, QueryPreferences
from repro.xmlmodel import XMLElement, XMLSpan, parse_xml, serialize_xml, text_element

from oracles.mqp_tree import mqp_text, node_to_xml
from oracles.mqp_tree import plan_to_xml as oracle_plan_to_xml
from tests.conftest import make_item

AWKWARD = "say \"hi\" & <bye> 'ok' ☕"
"""Both quote characters, ``&``, ``<`` and non-ASCII: every escaping branch."""


def _items():
    return [make_item("Abbey Road", 8.0), make_item("Café ☕ & <Co>", 12.5, city="USA/WA/Seattle")]


def _carried(items, name="cargo"):
    """A data leaf that arrived as text (its span only, no tree)."""
    return VerbatimData(XMLSpan(serialize_xml(XMLElement("collection", {}, items))), name)


def _plans():
    items = _items()
    annotated = PlanBuilder.data(items, name="cds").select("price < 10")
    annotated.node.annotate("stats.cardinality", 2)
    annotated.node.annotate("note", AWKWARD)
    return {
        "every-unary-operator": (
            PlanBuilder.data(items, name="cds")
            .select("title = 'a&b<c é' and price < 10")
            .project([("title", "title"), ("price", "cost")], item_tag="row")
            .order_by("price")
            .top_n(3, "price", descending=False)
            .aggregate("sum", value_path="price", group_path="city", output_tag="total")
            .display("client:9020")
        ),
        "binary-and-nary": (
            PlanBuilder.urn("urn:ForSale:Portland-CDs")
            .join(PlanBuilder.url("http://tl:9020", "/tl"), on=("//title", "//CD/title"),
                  join_type="left_outer", output_tag="pair")
            .union(PlanBuilder.url("bare:9020"), PlanBuilder.data(items))
            .conjoint_or(PlanBuilder.url("r:9020", "/a"))
            .difference(PlanBuilder.data(items[:1]), key_path="title")
            .difference(PlanBuilder.url("s:9020", "/b"))
            .order_by("price", descending=True)
            .top_n(5, "//price")
            .count()
            .display("client:9020")
        ),
        "annotations-and-named-data": annotated.union(_carried(items)).display("client:9020"),
        "awkward-attribute-values": (
            PlanBuilder.url(f"h{AWKWARD}:1", f"/p{AWKWARD}")
            .project([(f"a{AWKWARD}", f"t{AWKWARD}")], item_tag="é")
            .union(PlanBuilder.data(items, name=AWKWARD), PlanBuilder.urn(f"urn:X:{AWKWARD}"))
            .display(f"client {AWKWARD}:9020")
        ),
        "non-ascii-and-text-data": (
            PlanBuilder.data(XMLElement("cds", {"lang": "fr ☕"}, [text_element("n", "é & <")]))
            .union(PlanBuilder.data(text_element("note", "é")), PlanBuilder.data([]))
            .display("client:9020")
        ),
        "bare-leaf": QueryPlan(URLRef("only:9020", "/x")),
    }


PLANS = sorted(_plans())


class TestPlanText:
    @pytest.mark.parametrize("name", PLANS)
    def test_a_plan_is_written_as_the_tree_writer_wrote_it(self, name):
        plan = _plans()[name]
        assert serialize_plan(plan) == serialize_xml(oracle_plan_to_xml(plan))
        carried = serialize_xml(oracle_plan_to_xml(plan, opaque=True))
        assert serialize_xml(plan_to_xml(plan, opaque=True)) == carried
        assert serialize_xml(plan_to_xml(plan)) == serialize_plan(plan)
        assert parse_plan(serialize_plan(plan)).root == plan.root
        assert serialize_plan(plan, indent=2) == serialize_xml(oracle_plan_to_xml(plan), indent=2)

    @pytest.mark.parametrize("name", PLANS)
    def test_every_node_keys_the_evaluation_cache_as_the_tree_writer_did(self, name):
        for node in _plans()[name].iter_nodes():
            assert EvaluationMemo.key_for(node) == serialize_xml(node_to_xml(node, opaque=True))

    def test_a_carried_span_is_written_as_received_canonical_plans_parse_it(self):
        foreign = serialize_xml(XMLElement("collection", {}, _items()), indent=4).replace('"', "'")
        document = f"<mqp><data name='cds'><collection>\n{foreign}</collection></data></mqp>"
        plan = plan_from_xml(parse_xml(document, opaque=DATA_SPANS))
        assert EvaluationMemo.key_for(plan.root) == serialize_xml(node_to_xml(plan.root, opaque=True))
        assert foreign.strip() in EvaluationMemo.key_for(plan.root)
        assert serialize_plan(plan) == serialize_xml(oracle_plan_to_xml(plan))
        assert foreign.strip() not in serialize_plan(plan)


def _mqps():
    """Every part of a mutant query plan: preferences, provenance, original, piece marks."""
    plans = _plans()
    fresh = MutantQueryPlan(
        plans["annotations-and-named-data"],
        query_id=f"q{AWKWARD}",
        preferences=QueryPreferences(target_time_ms=1234567, prefer="current"),
        issued_at=12.5,
    )
    fresh.provenance.add("a:1", ProvenanceAction.BOUND, 1.0, detail=AWKWARD, staleness_minutes=10)
    fresh.provenance.add("b:1", ProvenanceAction.EVALUATED, 2.25, staleness_minutes=1 / 3)
    fresh.provenance.add("c é:1", ProvenanceAction.FORWARDED, 3.0, detail="d:1")
    bare = MutantQueryPlan(plans["every-unary-operator"], query_id="bare")
    bare.original = None
    piece = fresh.piece(plans["binary-and-nary"], (7, 1), Fraction(1, 3))
    awkward = MutantQueryPlan(
        plans["awkward-attribute-values"], query_id="awk",
        preferences=QueryPreferences(target_time_ms=0.1 + 0.2),
    )
    return {
        "built-original-budget-staleness": fresh,
        "no-original-empty-provenance": bare,
        "piece-with-carried-original": piece,
        "awkward-everything": awkward,
        "arrived-carried-original": MutantQueryPlan.deserialize(piece.serialize()),
        "arrived-without-original": MutantQueryPlan.deserialize(bare.serialize()),
    }


MQPS = sorted(_mqps())


class TestMutantQueryPlanText:
    @pytest.mark.parametrize("name", MQPS)
    def test_a_plan_is_shipped_as_the_tree_writer_shipped_it(self, name):
        mqp = _mqps()[name]
        document = mqp.serialize()
        assert document == mqp_text(mqp)
        arrived = MutantQueryPlan.deserialize(document)
        assert arrived.serialize() == document == mqp_text(arrived)
        assert mqp.serialize(indent=2) == serialize_xml(parse_xml(document), indent=2)

    def test_the_corpus_carries_what_it_claims_to(self):
        mqps = _mqps()
        assert "<provenance/>" in mqps["no-original-empty-provenance"].serialize()
        assert "<original>" not in mqps["no-original-empty-provenance"].serialize()
        carried = mqps["arrived-carried-original"]
        assert carried._original_text is not None and carried._original is None
        built = mqps["built-original-budget-staleness"].serialize()
        assert 'staleness="10"' in built and 'branch="' not in built
        assert 'branch="7.1" credit="1/3"' in mqps["piece-with-carried-original"].serialize()


class TestQueryIds:
    def test_parsing_a_plan_that_has_an_id_draws_no_fresh_one(self):
        plan = PlanBuilder.urn("urn:A:b").display("c:1")
        document = MutantQueryPlan(plan, query_id="fixed").serialize()
        before = int(MutantQueryPlan(plan).query_id[1:])
        for _ in range(5):
            assert MutantQueryPlan.deserialize(document).query_id == "fixed"
        assert int(MutantQueryPlan(plan).query_id[1:]) == before + 1

    def test_a_plan_without_an_id_still_gets_a_fresh_one(self):
        plan = PlanBuilder.urn("urn:A:b").display("c:1")
        document = MutantQueryPlan(plan, query_id="gone").serialize().replace(' id="gone"', "")
        first, second = (MutantQueryPlan.deserialize(document).query_id for _ in range(2))
        assert first.startswith("q") and int(second[1:]) == int(first[1:]) + 1


class TestNumbersKeepTheirDigits:
    @pytest.mark.parametrize("budget", [1234567, 1234567.25, 0.1 + 0.2, 1 / 3, 1e-7, 2.5e300])
    def test_a_time_budget_survives_a_hop(self, budget):
        mqp = MutantQueryPlan(
            PlanBuilder.urn("urn:A:b").display("c:1"),
            preferences=QueryPreferences(target_time_ms=budget),
        )
        arrived = MutantQueryPlan.deserialize(mqp.serialize())
        assert arrived.preferences.target_time_ms == budget
        assert MutantQueryPlan.deserialize(arrived.serialize()).preferences == mqp.preferences

    @pytest.mark.parametrize("staleness", [1234567, 1234567.25, 0.1 + 0.2, 1 / 3, 1e-7])
    def test_a_staleness_survives_a_hop(self, staleness):
        mqp = MutantQueryPlan(PlanBuilder.urn("urn:A:b").display("c:1"))
        mqp.provenance.add("a:1", ProvenanceAction.BOUND, 1.0, staleness_minutes=staleness)
        arrived = MutantQueryPlan.deserialize(mqp.serialize())
        assert arrived.provenance.records[0].staleness_minutes == staleness
        assert arrived.provenance.max_staleness() == staleness

    @pytest.mark.parametrize(
        "value, text", [(500, "500"), (10, "10"), (0.5, "0.5"), (30.0, "30"), (1e-7, "1e-07")]
    )
    def test_a_short_value_keeps_its_short_text(self, value, text):
        mqp = MutantQueryPlan(
            PlanBuilder.urn("urn:A:b").display("c:1"),
            preferences=QueryPreferences(target_time_ms=value),
        )
        mqp.provenance.add("a:1", ProvenanceAction.BOUND, 1.0, staleness_minutes=value)
        document = mqp.serialize()
        assert f'target-time-ms="{text}"' in document and f'staleness="{text}"' in document


def _payloads_of(spec, monkeypatch):
    """Every plan document one run ships, in order."""
    shipped: list[str] = []
    serialize = MutantQueryPlan.serialize

    def recording(self, indent=None):
        document = serialize(self, indent)
        shipped.append(document)
        return document

    with monkeypatch.context() as patch:
        patch.setattr(MutantQueryPlan, "serialize", recording)
        run_scaleout(spec)
    return shipped


class TestShippedPlansRoundTrip:
    @pytest.mark.parametrize(
        "preset, size",
        [("thousand-peers", {"peers": 60, "queries": 3}), ("flash-crowd", {"peers": 40, "queries": 30})],
    )
    def test_every_shipped_plan_is_written_back_as_it_arrived(self, preset, size, monkeypatch):
        payloads = _payloads_of(replace(SCENARIOS[preset], **size), monkeypatch)
        assert len(payloads) > 20
        for document in payloads:
            arrived = MutantQueryPlan.deserialize(document)
            assert arrived.serialize() == document
            assert mqp_text(arrived) == document
