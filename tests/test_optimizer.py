"""Tests for the rewrite framework, classical rules, and MQP-specific rules."""


from repro.algebra import (
    ConjointOr,
    Join,
    PlanBuilder,
    Select,
    TopN,
    Union,
    URLRef,
    VerbatimData,
    serialize_plan,
)
from repro.engine import CostModel, QueryEngine
from repro.optimizer import (
    STANDARD_REWRITES,
    Optimizer,
    RewriteEngine,
    RewriteRule,
    absorption_rule,
    consolidation_rule,
    merge_adjacent_selects,
    mqp_rules,
    standard_rules,
)
from repro.xmlmodel import element, text_element
from tests.conftest import make_item


def local_to(address):
    """Availability check: URL leaves on the given host are local."""
    return lambda leaf: isinstance(leaf, URLRef) and leaf.url == address


class TestStandardRules:
    def test_push_select_through_union_figure4a(self, cd_items):
        """Figure 4(a): the price selection is pushed through the seller union."""
        plan = (
            PlanBuilder.url("seller1:9020", "/cds")
            .union(PlanBuilder.url("seller2:9020", "/cds"))
            .select("price < 10")
            .display("client:9020")
        )
        result = RewriteEngine(standard_rules()).rewrite_plan(plan)
        assert "push-select-through-union" in result.fired_rules
        body = result.plan.body
        assert isinstance(body, Union)
        assert all(isinstance(child, Select) for child in body.children)

    def test_push_select_through_conjoint_or(self, cd_items):
        plan = (
            PlanBuilder.url("r:9020", "/a")
            .conjoint_or(PlanBuilder.url("s:9020", "/a"))
            .select("price < 10")
            .plan()
        )
        result = RewriteEngine(standard_rules()).rewrite_plan(plan)
        assert isinstance(result.plan.root, ConjointOr)

    def test_merge_adjacent_selects(self, cd_items):
        plan = PlanBuilder.data(cd_items).select("price < 10").select("price > 3").plan()
        result = RewriteEngine([merge_adjacent_selects]).rewrite_plan(plan)
        assert result.count("merge-adjacent-selects") == 1
        assert isinstance(result.plan.root, Select)
        assert not isinstance(result.plan.root.child, Select)

    def test_rewrites_preserve_semantics(self, cd_items):
        plan = (
            PlanBuilder.data(cd_items[:3], name="a")
            .union(PlanBuilder.data(cd_items[3:], name="b"))
            .select("price < 10")
            .plan()
        )
        before = QueryEngine().evaluate(plan)
        rewritten = RewriteEngine(standard_rules()).rewrite_plan(plan).plan
        after = QueryEngine().evaluate(rewritten)
        assert {item.child_text("title") for item in before} == {
            item.child_text("title") for item in after
        }

    def test_original_plan_untouched(self, cd_items):
        plan = PlanBuilder.data(cd_items).select("a = 1").select("b = 2").plan()
        RewriteEngine(standard_rules()).rewrite_plan(plan)
        assert isinstance(plan.root.child, Select)


class TestConsolidation:
    def test_join_distributed_over_union_when_one_branch_local(self):
        listings = [element("CD", {}, text_element("title", "A"))]
        plan = (
            PlanBuilder.url("local:9020", "/cds")
            .union(PlanBuilder.url("remote:9020", "/cds"))
            .join(PlanBuilder.data(listings, name="tl"), on=("//title", "//title"))
            .plan()
        )
        rule = consolidation_rule(local_to("local:9020"))
        result = RewriteEngine([rule]).rewrite_plan(plan)
        assert result.count("consolidation") == 1
        assert isinstance(result.plan.root, Union)
        assert all(isinstance(child, Join) for child in result.plan.root.children)

    def test_no_rewrite_when_all_branches_remote(self):
        listings = [element("CD", {}, text_element("title", "A"))]
        plan = (
            PlanBuilder.url("remote1:9020", "/cds")
            .union(PlanBuilder.url("remote2:9020", "/cds"))
            .join(PlanBuilder.data(listings), on=("//title", "//title"))
            .plan()
        )
        result = RewriteEngine([consolidation_rule(local_to("local:9020"))]).rewrite_plan(plan)
        assert result.count("consolidation") == 0

    def test_no_rewrite_when_other_side_remote(self):
        plan = (
            PlanBuilder.url("local:9020", "/cds")
            .union(PlanBuilder.url("remote:9020", "/cds"))
            .join(PlanBuilder.url("elsewhere:9020", "/tl"), on=("//title", "//title"))
            .plan()
        )
        result = RewriteEngine([consolidation_rule(local_to("local:9020"))]).rewrite_plan(plan)
        assert result.count("consolidation") == 0


class TestAbsorption:
    def _three_way_plan(self, a_items, b_items):
        return (
            PlanBuilder.data(a_items, name="A")
            .join(PlanBuilder.url("remote:9020", "/x"), on=("//seller", "//seller"))
            .join(PlanBuilder.data(b_items, name="B"), on=("//title", "//title"))
            .plan()
        )

    def test_absorption_fires_when_prejoin_is_small(self):
        a_items = [make_item(f"t{i}", 5, seller=f"s{i}") for i in range(6)]
        b_items = [make_item("t0", 5)]
        plan = self._three_way_plan(a_items, b_items)
        rule = absorption_rule(lambda leaf: isinstance(leaf, VerbatimData), CostModel())
        result = RewriteEngine([rule]).rewrite_plan(plan)
        assert result.count("absorption") == 1
        root = result.plan.root
        assert isinstance(root, Join)
        assert isinstance(root.left, Join)
        assert isinstance(root.right, URLRef)

    def test_absorption_skipped_when_outer_key_not_in_a(self):
        """The Figure 3 shape: the outer join key (song) comes from the remote input."""
        a_items = [make_item(f"t{i}", 5) for i in range(3)]
        b_items = [element("fav", {}, text_element("song", "s1"))]
        plan = (
            PlanBuilder.data(a_items, name="A")
            .join(PlanBuilder.url("remote:9020", "/tl"), on=("//title", "//CD/title"))
            .join(PlanBuilder.data(b_items, name="B"), on=("//song", "//fav/song"))
            .plan()
        )
        rule = absorption_rule(lambda leaf: isinstance(leaf, VerbatimData), CostModel())
        result = RewriteEngine([rule]).rewrite_plan(plan)
        assert result.count("absorption") == 0

    def test_absorption_skipped_when_prejoin_would_grow(self):
        a_items = [make_item("same", 5, seller="s") for _ in range(4)]
        b_items = [make_item("same", 5) for _ in range(50)]
        plan = self._three_way_plan(a_items, b_items)
        rule = absorption_rule(
            lambda leaf: isinstance(leaf, VerbatimData), CostModel(join_selectivity=1.0)
        )
        result = RewriteEngine([rule]).rewrite_plan(plan)
        assert result.count("absorption") == 0


class TestDefermentAndOptimizer:
    def test_deferrable_flags_exploding_join(self, cd_items):
        plan = (
            PlanBuilder.data(cd_items, name="a")
            .join(PlanBuilder.data(cd_items, name="b"), on=("//seller", "//seller"))
            .plan()
        )
        outcome = Optimizer(CostModel(join_selectivity=1.0)).optimize(plan, lambda leaf: True)
        assert len(outcome.deferrable) == 1

    def test_optimizer_outcome_reports_evaluable(self, cd_items):
        plan = (
            PlanBuilder.url("here:9020", "/cds")
            .select("price < 10")
            .join(PlanBuilder.urn("urn:CD:TrackListings"), on=("//title", "//title"))
            .display("client:9020")
        )
        outcome = Optimizer().optimize(plan, local_to("here:9020"))
        assert len(outcome.evaluable) == 1
        assert outcome.deferrable == []

    def test_optimizer_without_mqp_rules(self, cd_items):
        plan = (
            PlanBuilder.url("here:9020", "/a")
            .union(PlanBuilder.url("remote:9020", "/a"))
            .join(PlanBuilder.data(cd_items), on=("//title", "//title"))
            .plan()
        )
        with_rules = Optimizer().optimize(plan, local_to("here:9020"))
        without_rules = STANDARD_REWRITES.rewrite_plan(plan)
        assert "consolidation" in with_rules.fired_rules
        assert "consolidation" not in without_rules.fired_rules

    def test_optimizer_does_not_mutate_input(self, cd_items):
        plan = PlanBuilder.data(cd_items).select("a = 1").select("b = 2").plan()
        size_before = plan.size()
        Optimizer().optimize(plan)
        assert plan.size() == size_before


class TestCopyOnWriteRewriting:
    def _snapshot(self, plan):
        return serialize_plan(plan), [id(node) for node in plan.iter_nodes()]

    def test_no_rule_fires_returns_the_input_plan_object(self, cd_items):
        plan = (
            PlanBuilder.data(cd_items, name="carried")
            .union(PlanBuilder.url("far:9020", "/cds").select("price < 5"))
            .display("client:9020")
        )
        before = self._snapshot(plan)
        result = RewriteEngine(standard_rules()).rewrite_plan(plan)
        assert result.fired_rules == []
        assert result.plan is plan
        assert self._snapshot(plan) == before
        outcome = Optimizer().optimize(plan, local_to("here:9020"))
        assert outcome.fired_rules == [] and outcome.plan is plan

    def test_a_firing_rule_rewrites_a_copy_and_leaves_the_input_alone(self, cd_items):
        plan = (
            PlanBuilder.data(cd_items, name="carried")
            .union(PlanBuilder.url("far:9020", "/cds"))
            .select("price < 10")
            .select("price > 3")
            .display("client:9020")
        )
        before = self._snapshot(plan)
        result = RewriteEngine(standard_rules()).rewrite_plan(plan)
        assert result.fired_rules == ["merge-adjacent-selects", "push-select-through-union"]
        assert result.plan is not plan
        assert self._snapshot(plan) == before
        # The copy shares no plan node with the input, only write-once cargo.
        assert not {id(node) for node in result.plan.iter_nodes()} & set(before[1])
        (old,), (new,) = plan.verbatim_leaves(), result.plan.verbatim_leaves()
        assert new.collection is old.collection

    def test_rules_that_share_subtrees_with_their_argument_cannot_reach_the_input(self):
        # A rule may return part of its argument; the engine only ever hands
        # it nodes of the working copy, so the input plan is still untouched.
        unwrap = RewriteRule(
            "unwrap-select", lambda node: node.child if isinstance(node, Select) else None
        )
        plan = PlanBuilder.url("a:1", "/x").select("p = 1").select("q = 2").display("c:1")
        before = self._snapshot(plan)
        result = RewriteEngine([unwrap]).rewrite_plan(plan)
        assert result.count("unwrap-select") == 2
        assert isinstance(result.plan.body, URLRef)
        assert self._snapshot(plan) == before

    def test_iter_nodes_survives_a_5000_deep_select_chain(self):
        node = URLRef("deep:9020", "/x")
        predicate = PlanBuilder.url("a:1").select("p = 1").node.predicate
        for _ in range(5000):
            node = Select(node, predicate)
        nodes = list(node.iter_nodes())
        assert len(nodes) == 5001
        assert nodes[0] is node and isinstance(nodes[-1], URLRef)

    def test_iter_nodes_is_pre_order(self):
        plan = (
            PlanBuilder.url("a:1", "/x").select("p = 1")
            .union(PlanBuilder.url("b:1", "/y"), PlanBuilder.url("c:1", "/z"))
            .display("c:1")
        )
        assert [node.operator for node in plan.iter_nodes()] == [
            "display", "union", "select", "url", "url", "url"
        ]


class _EveryRuleToEveryNode(RewriteEngine):
    """The reference: the engine as it was before a rule named its operator."""

    def _first_match(self, plan):
        for node in plan.iter_nodes():
            for rule in self.rules:
                replacement = rule.apply(node)
                if replacement is not None and replacement is not node:
                    return node, rule, replacement
        return None


class TestRuleDispatch:
    def _plans(self, cd_items):
        """The plan shapes of this file, one of each."""
        url, data = PlanBuilder.url, PlanBuilder.data
        listings = [element("CD", {}, text_element("title", "A"))]
        a_items = [make_item(f"t{i}", 5, seller=f"s{i}") for i in range(6)]
        on = ("//title", "//title")
        return [
            url("seller1:9020", "/cds").union(url("seller2:9020", "/cds")).select("price < 10")
            .display("client:9020"),
            url("r:9020", "/a").conjoint_or(url("s:9020", "/a")).select("price < 10").plan(),
            data(cd_items).select("price < 10").select("price > 3").plan(),
            data(cd_items, name="carried").union(url("far:9020", "/cds")).select("price < 10")
            .select("price > 3").display("client:9020"),
            url("local:9020", "/cds").union(url("remote:9020", "/cds"))
            .join(data(listings, name="tl"), on=on).plan(),
            url("remote1:9020", "/cds").union(url("remote2:9020", "/cds"))
            .join(data(listings), on=on).plan(),
            data(a_items, name="A").join(url("remote:9020", "/x"), on=("//seller", "//seller"))
            .join(data([make_item("t0", 5)], name="B"), on=on).plan(),
            url("local:9020", "/cds").select("price < 10")
            .join(PlanBuilder.urn("urn:CD:TrackListings"), on=on).display("client:9020"),
            data(cd_items, name="carried").union(url("far:9020", "/cds").select("price < 5"))
            .display("client:9020"),
            url("local:9020", "/cds").order_by("price").top_n(3, "price").display("client:9020"),
            PlanBuilder(Union([url("local:9020", "/cds").select("a = 1").select("b = 2").node]))
            .display("client:9020"),
        ]

    def test_dispatch_by_operator_fires_what_offering_every_rule_fires(self, cd_items):
        def available(leaf):
            return isinstance(leaf, VerbatimData) or local_to("local:9020")(leaf)

        unwrap = RewriteRule(  # names no operator: offered every node
            "unwrap-topn", lambda node: node.child if isinstance(node, TopN) else None
        )
        fired = set()
        for plan in self._plans(cd_items):
            rules = standard_rules() + mqp_rules(available, CostModel()) + [unwrap]
            result = RewriteEngine(rules).rewrite_plan(plan)
            reference = _EveryRuleToEveryNode(rules).rewrite_plan(plan)
            assert result.applications == reference.applications
            assert serialize_plan(result.plan) == serialize_plan(reference.plan)
            fired.update(result.fired_rules)
        assert fired == {rule.name for rule in rules}  # every rule had its turn

    def test_a_rule_is_not_offered_another_operator(self):
        offered = []
        probe = RewriteRule("probe", lambda node: offered.append(node.operator), operator=Select)
        plan = PlanBuilder.url("a:1", "/x").select("p = 1").union(PlanBuilder.url("b:1", "/y"))
        RewriteEngine([probe]).rewrite_plan(plan.display("c:1"))
        assert offered == ["select"]
