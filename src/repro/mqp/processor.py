"""The per-server MQP processing pipeline of Figure 2.

    MQP (XML) → Parser → Catalog (URN resolution) → Optimizer →
    Policy Manager → Query Engine → mutated MQP (XML) → next server

The :class:`MQPProcessor` implements one server's worth of that pipeline.
It is network-agnostic: the peer classes in :mod:`repro.peers` feed it
incoming plans and act on the returned :class:`ProcessingResult` (deliver
the result, forward the plan, or report that it is stuck).

Transport neutrality is a hard contract here: on the asyncio backend
(:mod:`repro.network.transport.aio`) this pipeline runs inside the event
loop's delivery callbacks, so nothing in it may block on I/O or wall-clock
waits — time enters only through the ``now`` parameter (the shared logical
clock), and every catalog/engine step is pure CPU.  That is what lets the
same processing produce byte-identical scenario reports on both backends.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Collection, Sequence
from zlib import crc32

from ..algebra import QueryPlan
from ..algebra.operators import (
    ConjointOr,
    Display,
    LeafNode,
    PlanNode,
    Union,
    URLRef,
    URNRef,
    VerbatimData,
)
from ..catalog import Binder, Catalog, ServerRole, canonical_address
from ..engine import EvaluationMemo, QueryEngine
from ..engine.statistics import CollectionStatistics
from ..namespace import (
    InterestArea,
    InterestAreaURN,
    MultiHierarchicNamespace,
    NamedURN,
    parse_urn_cached,
)
from ..optimizer import STANDARD_REWRITES, Optimizer, RewriteResult
from ..xmlmodel import XMLElement
from .plan import MutantQueryPlan
from .policy import PolicyManager
from .provenance import ProvenanceAction

if TYPE_CHECKING:  # pragma: no cover - typing-only import (avoids a cycle)
    from ..catalogtier import ShardMap

__all__ = [
    "ProcessingAction",
    "ProcessingResult",
    "Piece",
    "PARTIAL_REASONS",
    "MQPProcessor",
    "RetryPolicy",
]


@dataclass(frozen=True)
class RetryPolicy:
    """How a peer retransmits unacknowledged forwards (``Cluster(reliable=True)``).

    The paper's forwarding step is fire-and-forget; under injected link
    faults (:mod:`repro.network.faults`) a lost MQP silently kills the
    query.  With reliable delivery on, every MQP and result envelope a peer
    forwards carries a transfer id the receiver acknowledges; this policy
    decides when the sender gives up waiting and retransmits.

    ``timeout_ms`` is the retransmission timeout (RTO) of a first contact
    and the ceiling of the one the sender then measures for the recipient
    (:class:`repro.peers.transfers.Transfers`); each further attempt waits
    ``backoff`` times longer; ``jitter_ms`` is the width of the jitter at
    an RTO of ``timeout_ms`` and shrinks with it.  ``budget`` sets the
    give-up *horizon* — the time ``budget`` retransmissions of a first
    contact span, not a count: a short RTO spends its doublings early, and
    a peer cut off for a second must not fail sooner for being close.  Past
    it the transfer fails: the peer records per-hop failure provenance and
    falls back to rerouting (plans) or dead-lettering (results).

    Timeouts live on the *logical* clock and the jitter draw is a stable
    hash of (transfer, attempt) — never wall-clock or ``random`` — so the
    retransmit schedule is identical on every transport backend.
    """

    timeout_ms: float = 160.0
    backoff: float = 2.0
    jitter_ms: float = 24.0
    budget: int = 4

    def delay_for(self, transfer: str, attempt: int, rto: float | None = None) -> float:
        """Simulated ms to wait for the ack of ``attempt`` before retrying;
        ``rto`` is the sender's measured timeout (``None``: none yet)."""
        from ..network.faults import stable_unit

        rto = self.timeout_ms if rto is None else min(rto, self.timeout_ms)
        return (
            rto * (self.backoff ** attempt)
            + self.jitter_ms * (rto / self.timeout_ms) * stable_unit("retry", transfer, attempt)
        )

    @property
    def horizon_ms(self) -> float:
        """How long after its first attempt an unacknowledged transfer fails."""
        return sum(self.timeout_ms * self.backoff ** attempt for attempt in range(self.budget + 1))


class ProcessingAction(str, Enum):
    """What the hosting peer should do with the plan after processing."""

    DELIVER = "deliver"            # fully evaluated: send result to the target
    DELIVER_PARTIAL = "partial"    # time or hop budget exhausted: send what we have
    FORWARD = "forward"            # send the mutated plan on, as one piece or several
    STUCK = "stuck"                # nothing evaluable and nowhere to route


PARTIAL_REASONS = ("time-budget", "hop-budget", "stuck", "unreachable")
"""Why a partial answer is partial, mildest first: the query's own time
budget ran out, a plan hit ``max_hops``, no server is left that could
continue it, or the servers that could are down."""


@dataclass
class Piece:
    """One outgoing part of a processed plan.

    ``next_hop`` names the server the piece travels to; ``None`` means its
    journey ends here and whatever it holds is shipped to the target — as a
    complete result of its branch, or (``reason`` set, one of
    :data:`PARTIAL_REASONS`) as a partial one.
    """

    mqp: MutantQueryPlan
    next_hop: str | None = None
    reason: str | None = None


@dataclass
class ProcessingResult:
    """Outcome of one server's processing step.

    ``pieces`` is what leaves this server.  A plan that is delivered, stuck
    or forwarded whole has exactly one piece (``mqp`` itself); a scattered
    union has one per group of branches, each its own MQP — ``action`` is
    then ``FORWARD`` although single pieces may end here.
    """

    action: ProcessingAction
    mqp: MutantQueryPlan
    pieces: list[Piece] = field(default_factory=list)
    bound_urns: int = 0
    evaluated_subplans: int = 0
    route_candidates: list[str] = field(default_factory=list)

    @property
    def next_hop(self) -> str | None:
        """Where a plan forwarded whole goes next (``None`` otherwise)."""
        return self.pieces[0].next_hop if len(self.pieces) == 1 else None

    @property
    def reason(self) -> str | None:
        """Why a plan delivered whole is partial (``None`` when it is not)."""
        return self.pieces[0].reason if len(self.pieces) == 1 else None


_HELD = "="
_RESIDUAL = "?"
"""Group keys of :meth:`MQPProcessor._scatter` that are not a holder's address."""


class MQPProcessor:
    """One peer's mutant-query-plan pipeline."""

    def __init__(
        self,
        address: str,
        catalog: Catalog,
        namespace: MultiHierarchicNamespace | None = None,
        collections: dict[str, list[XMLElement]] | None = None,
        optimizer: Optimizer | None = None,
        policy: PolicyManager | None = None,
        max_hops: int = 32,
        max_buffered_items: int | None = None,
    ) -> None:
        self.address = address
        self._canonical_address = canonical_address(address)
        self.catalog = catalog
        self.namespace = namespace
        self.collections = collections if collections is not None else {}
        self.optimizer = optimizer or Optimizer()
        self.policy = policy or PolicyManager()
        self.max_hops = max_hops
        self.max_buffered_items = max_buffered_items
        self.binder = Binder(catalog)
        self.processed_plans = 0
        self.subplans_evaluated = 0
        # What this server has already reduced.  Whoever writes
        # ``collections`` clears it: no result outlives a local write.
        self.evaluations = EvaluationMemo()
        # Free riders (adversarial workloads) route and forward like any
        # peer but never contribute answers: local data stays invisible to
        # plans passing through, and no sub-plan is ever evaluated here.
        self.free_ride = False
        # The cluster's shard map (the sharded catalog tier), set by
        # QueryPeer.join_catalog_tier: plan routing then leads with the
        # replica group owning the queried area.
        self.shard_map: ShardMap | None = None
        # The area this server answers for authoritatively (set by the
        # hosting peer): every source overlapping it has registered here
        # (§3.3), so knowing none for a covered area *is* the answer.
        self.authority: InterestArea | None = None

    # ------------------------------------------------------------------ #
    # Local data availability
    # ------------------------------------------------------------------ #

    def has_collection(self, path: str) -> bool:
        """True when this peer stores the collection at ``path``."""
        return path in self.collections

    def _is_local_url(self, leaf: URLRef) -> bool:
        if self.free_ride:
            return False  # a free rider's data never resolves into a plan
        if canonical_address(leaf.url) != self._canonical_address:
            return False
        return leaf.path is None or self.has_collection(leaf.path)

    def _leaf_available(self, leaf: LeafNode) -> bool:
        if isinstance(leaf, VerbatimData):
            return True
        if isinstance(leaf, URLRef):
            return self._is_local_url(leaf)
        return False

    def _resolve_local_leaf(self, leaf: PlanNode) -> list[XMLElement] | None:
        if isinstance(leaf, URLRef) and self._is_local_url(leaf):
            if leaf.path is None:
                merged: list[XMLElement] = []
                for items in self.collections.values():
                    merged.extend(items)
                return merged
            return self.collections[leaf.path]
        return None

    # ------------------------------------------------------------------ #
    # The pipeline
    # ------------------------------------------------------------------ #

    def process(
        self,
        mqp: MutantQueryPlan,
        now: float = 0.0,
        avoid: Collection[str] = (),
    ) -> ProcessingResult:
        """Run the Figure-2 pipeline once and decide what happens next.

        ``avoid`` lists servers the hosting peer currently believes dead
        (churn); they are excluded from routing.  A leaf hop
        (:meth:`_is_leaf_hop`) has nothing to bind, route or defer, and
        skips straight to the rewrite and the evaluation of its body.

        Nothing this call reads to route — the catalog, the routing cache,
        the shard map — changes during it, so each area's routing servers
        are looked up once (``routes``) for binding and routing alike.
        """
        self.processed_plans += 1
        route_candidates: list[str] = []
        routes: dict[str, list[str]] = {}

        if self._is_leaf_hop(mqp):
            bound, evaluated = 0, self._reduce_leaf_hop(mqp, now)
        else:
            bound = self._bind_urns(mqp, now, route_candidates, routes)
            evaluated = self._optimize_and_evaluate(mqp, now)

        ordered: list[str] = []
        if mqp.is_fully_evaluated():
            action, pieces = ProcessingAction.DELIVER, [Piece(mqp)]
        elif mqp.over_budget(now):
            action, pieces = ProcessingAction.DELIVER_PARTIAL, [Piece(mqp, reason="time-budget")]
        elif mqp.provenance.hop_count() >= self.max_hops:
            action, pieces = ProcessingAction.DELIVER_PARTIAL, [Piece(mqp, reason="hop-budget")]
        else:
            parts = self._scatter(mqp)
            pieces = []
            for part in parts:
                if part.is_fully_evaluated():
                    pieces.append(Piece(part))  # what this server holds goes straight home
                    continue
                # Candidates gathered while binding lead to whoever can bind
                # the URNs still left; only a plan that kept some follows them.
                hints = route_candidates if len(parts) == 1 or part.remaining_urns() else []
                piece, ordered = self._route(part, hints, now, avoid, routes)
                pieces.append(piece)
            stuck = len(pieces) == 1 and pieces[0].next_hop is None
            action = ProcessingAction.STUCK if stuck else ProcessingAction.FORWARD
        return ProcessingResult(
            action,
            mqp,
            pieces,
            bound_urns=bound,
            evaluated_subplans=evaluated,
            route_candidates=ordered,
        )

    def _route(
        self,
        mqp: MutantQueryPlan,
        hints: list[str],
        now: float,
        avoid: Collection[str],
        routes: dict[str, list[str]],
    ) -> tuple[Piece, list[str]]:
        """Pick the next hop of one unfinished plan (or declare it stuck)."""
        urn_candidates, data_candidates = self._candidates_for_remaining(mqp, routes)
        candidates = hints + urn_candidates + data_candidates
        ordered = self._order_candidates(candidates, avoid)
        revisitable = self._order_candidates(data_candidates, avoid)
        next_hop = self.policy.choose_next_hop(
            ordered, mqp.provenance.visited_servers(), revisitable=revisitable
        )
        if next_hop is None:
            down = any(canonical_address(candidate) in avoid for candidate in candidates)
            return Piece(mqp, reason="unreachable" if down else "stuck"), ordered
        mqp.provenance.add(self.address, ProvenanceAction.FORWARDED, now, detail=next_hop)
        return Piece(mqp, next_hop), ordered

    # ------------------------------------------------------------------ #
    # Scatter: a union travels as one piece per server that can reduce it
    # ------------------------------------------------------------------ #

    def _scatter(self, mqp: MutantQueryPlan) -> list[MutantQueryPlan]:
        """Split a plan whose body is a union into independent pieces.

        Branches are grouped, in plan order, by the one server that holds
        every URL a branch reads (verbatim inputs travel with it); branches
        already reduced to data form a group of their own, and branches
        that still carry URNs or read from several servers stay together in
        a residual group, always last.  One group — or a body that is not a
        union: a join, ``order_by``, ``top_n`` or aggregate on top needs all
        its input in one place — is no split: the plan goes on whole, path
        and credit untouched.

        Each of ``k`` pieces extends the branch path by ``(tag, index)``
        and carries ``1/k`` of the plan's credit.  ``tag`` digests where
        the pieces go, so two servers that split the same plan differently
        (a rerouted copy bound against another catalog) mark their pieces
        as rival lineages; the gathering target keeps one.
        """
        body = mqp.plan.body
        if not isinstance(body, Union):
            return [mqp]
        groups: dict[str, list[PlanNode]] = {}
        stack = list(reversed(body.children))
        while stack:
            branch = stack.pop()
            if isinstance(branch, Union):  # a URN bound to a union inside the union
                stack.extend(reversed(branch.children))
            else:
                groups.setdefault(self._site_of(branch), []).append(branch)
        if len(groups) == 1:
            return [mqp]
        if _RESIDUAL in groups:
            groups[_RESIDUAL] = groups.pop(_RESIDUAL)
        tag = crc32("|".join(groups).encode("utf-8"))
        credit = mqp.credit / len(groups)
        target = mqp.target
        pieces = []
        for index, (site, branches) in enumerate(groups.items()):
            if site == _HELD and len(branches) > 1:
                items = [item for leaf in branches for item in leaf.items]  # type: ignore[attr-defined]
                part: PlanNode = VerbatimData.from_items(items, tag="result", copy_items=False)
            else:
                part = branches[0] if len(branches) == 1 else Union(branches)
            plan = QueryPlan(Display(part, target) if target is not None else part)
            pieces.append(mqp.piece(plan, mqp.branch + (tag, index), credit))
        return pieces

    def _site_of(self, branch: PlanNode) -> str:
        """The group a union branch scatters into (see :meth:`_scatter`)."""
        if isinstance(branch, VerbatimData):
            return _HELD
        holders = set()
        for node in branch.iter_nodes():
            if isinstance(node, URLRef):
                holders.add(canonical_address(node.url))
            elif isinstance(node, URNRef):
                return _RESIDUAL
        return holders.pop() if len(holders) == 1 else _RESIDUAL

    def process_batch(
        self,
        mqps: Sequence[MutantQueryPlan],
        now: float = 0.0,
        avoid: Collection[str] = (),
    ) -> list[ProcessingResult]:
        """:meth:`process` over ``mqps``, in order.  No caller in ``src/``:
        the benchmark tracer patches this name (``benchmarks/e2e/trace.py``),
        and the next change to the benchmark deletes both."""
        return [self.process(mqp, now=now, avoid=avoid) for mqp in mqps]

    # ------------------------------------------------------------------ #
    # Stage 1: URN binding via the catalog
    # ------------------------------------------------------------------ #

    def _bind_urns(
        self,
        mqp: MutantQueryPlan,
        now: float,
        route_candidates: list[str],
        routes: dict[str, list[str]],
    ) -> int:
        bound = 0
        for ref in list(mqp.plan.urn_refs()):
            parsed = parse_urn_cached(ref.urn)
            replacement: PlanNode | None = None
            staleness = 0.0
            if isinstance(parsed, NamedURN):
                replacement = self._bind_named(parsed, route_candidates)
            elif isinstance(parsed, InterestAreaURN):
                replacement, staleness = self._bind_area(parsed, mqp, route_candidates, routes)
            if replacement is None:
                continue
            mqp.plan.replace_node(ref, replacement)
            mqp.provenance.add(
                self.address,
                ProvenanceAction.BOUND,
                now,
                detail=ref.urn,
                staleness_minutes=staleness,
            )
            bound += 1
        return bound

    def _lookup_named(self, urn: NamedURN):
        """Look a named URN up under both its full form and its bare name."""
        return self.catalog.lookup_named(str(urn)) or self.catalog.lookup_named(urn.name)

    def _bind_named(self, urn: NamedURN, route_candidates: list[str]) -> PlanNode | None:
        entry = self._lookup_named(urn)
        if entry is None:
            route_candidates.extend(self._known_indexers())
            return None
        route_candidates.extend(entry.resolver_servers)
        if not entry.collections:
            return None
        leaves: list[PlanNode] = [
            URLRef(collection.url, collection.path) for collection in entry.collections
        ]
        return leaves[0] if len(leaves) == 1 else Union(leaves)

    def _bind_area(
        self,
        urn: InterestAreaURN,
        mqp: MutantQueryPlan,
        route_candidates: list[str],
        routes: dict[str, list[str]],
    ) -> tuple[PlanNode | None, float]:
        binding = self.binder.bind_area(urn.area)
        if binding is None:
            if self._answers_for(urn.area, mqp):
                # The complete answer is empty: say so, instead of routing a
                # plan nobody can continue until it comes home stuck.
                return VerbatimData.from_items([], tag="result"), 0.0
            route_candidates.extend(self._routes_for(urn, routes))
            return None, 0.0
        alternative = self.policy.choose_alternative(binding, mqp.preferences)
        for source in alternative.sources:
            if not source.is_concrete:
                route_candidates.append(source.server)
        if not alternative.is_concrete:
            # Partially routable alternative: keep the URN so a downstream
            # server can finish the binding, but remember where to go.
            route_candidates.extend(self._routes_for(urn, routes))
            return None, 0.0
        return alternative.to_plan_node(str(urn)), alternative.max_delay_minutes

    def _answers_for(self, area: InterestArea, mqp: MutantQueryPlan) -> bool:
        """True when this server's word on ``area`` is final.

        An authority whose area *covers* the query has every overlapping
        source registered with it; one that merely overlaps does not, and
        routes on.  Index servers below it (or replicas beside it) that the
        plan has not asked yet may still know sources, so they are asked
        first — the plan ends here once none is left.
        """
        if self.authority is None or not self.authority.covers(area):
            return False
        asked = {self._canonical_address, *mqp.provenance.visited_servers()}
        return all(
            entry.address in asked
            for entry in self.catalog.servers_overlapping(area, roles=(ServerRole.INDEX,))
        )

    def _known_indexers(self) -> list[str]:
        """Every index / meta-index server this catalog knows about."""
        # Role buckets in the catalog index make this O(indexers), not
        # O(catalog) — the seed scanned every server entry per stuck URN.
        return [
            entry.address
            for entry in self.catalog.servers_with_roles(
                (ServerRole.INDEX, ServerRole.META_INDEX)
            )
            if entry.address != self.address
        ]

    def _routes_for(self, urn: InterestAreaURN, routes: dict[str, list[str]]) -> list[str]:
        """The routing servers of ``urn``'s area, looked up once per
        :meth:`process` call (``routes``, keyed by the area's URN text)."""
        found = routes.get(urn.specific)
        if found is None:
            found = routes[urn.specific] = self._routing_servers_for(urn.area)
        return found

    def _routing_servers_for(self, area: InterestArea) -> list[str]:
        """Where a plan over ``area`` can go, best first, from one table.

        The shard map's owners lead (on the sharded tier); then the
        catalog's authorities covering ``area``, the most specific area
        first — every source under it has registered there (§3.3), and the
        narrowest one spares the high-level servers (§3.4); then every
        index and meta-index server overlapping ``area``.
        """
        candidates: list[str] = []
        if self.shard_map is not None:
            # The owning replica group leads the candidate list: the
            # shard's primary first (deterministic rotation), surviving
            # siblings next.  Failover costs nothing extra — the caller's
            # ``avoid`` set filters suspected members in _order_candidates,
            # leaving the next group member as the first viable hop.
            candidates.extend(self.shard_map.owners(area))
        # A stable sort: authorities of equal specificity keep address order.
        authorities = self.catalog.authoritative_servers(area)
        for entry in sorted(authorities, key=lambda entry: -entry.area.specificity()):
            candidates.append(entry.address)
        for entry in self.catalog.servers_overlapping(
            area, roles=(ServerRole.INDEX, ServerRole.META_INDEX)
        ):
            candidates.append(entry.address)
        return [address for address in candidates if address != self._canonical_address]

    # ------------------------------------------------------------------ #
    # Stages 2-4: optimize, policy, evaluate, reduce
    # ------------------------------------------------------------------ #

    def _is_leaf_hop(self, mqp: MutantQueryPlan) -> bool:
        """True when every leaf of the plan's body is here.

        Since the scatter almost every hop is such a piece —
        ``display(select(url))`` at the one holder of that URL — and for it
        the full pipeline can only decide one thing.  There is no URN to
        bind; ``consolidation`` and ``absorption`` fire only next to an
        unavailable leaf; with no ``ConjointOr`` and every leaf available
        the one maximal evaluable sub-plan is the body itself; and the
        policy never defers the body (:meth:`PolicyManager.choose_subplans`).
        A free rider evaluates nothing, and a bare leaf has nothing to
        reduce: both take the full pipeline.
        """
        if self.free_ride:
            return False
        body = mqp.plan.body
        if isinstance(body, LeafNode):
            return False
        for node in body.iter_nodes():
            if isinstance(node, LeafNode):
                if not self._leaf_available(node):
                    return False
            elif isinstance(node, ConjointOr):
                return False
        return True

    def _reduce_leaf_hop(self, mqp: MutantQueryPlan, now: float) -> int:
        """Stages 2-4 of a leaf hop: the standard rules, then the whole body.

        The rules run on the one engine every server shares
        (:data:`~repro.optimizer.STANDARD_REWRITES`); no cost is estimated,
        since nothing is left to choose.  A rewrite may collapse the body
        to a bare leaf (``union(url)``), which :meth:`_reduce` pins.
        """
        self._adopt(mqp, STANDARD_REWRITES.rewrite_plan(mqp.plan), now)
        body = mqp.plan.body
        return self._reduce(mqp, [] if isinstance(body, LeafNode) else [body], now)

    def _optimize_and_evaluate(self, mqp: MutantQueryPlan, now: float) -> int:
        if self.free_ride:
            # Forward-only peers skip the whole optimize/evaluate stage:
            # nothing is reduced, no provenance is added, the plan moves on
            # exactly as it arrived.
            return 0
        outcome = self.optimizer.optimize(mqp.plan, self._leaf_available)
        self._adopt(mqp, outcome.rewrites, now)
        return self._reduce(mqp, self.policy.choose_subplans(outcome).evaluate, now)

    def _adopt(self, mqp: MutantQueryPlan, rewrites: RewriteResult, now: float) -> None:
        """Take the rewritten plan, logging the rules that fired."""
        if rewrites.fired_rules:
            mqp.provenance.add(
                self.address,
                ProvenanceAction.REOPTIMIZED,
                now,
                detail=",".join(rewrites.fired_rules),
            )
        mqp.plan = rewrites.plan

    def _reduce(self, mqp: MutantQueryPlan, subplans: list[PlanNode], now: float) -> int:
        """Evaluate ``subplans`` and substitute their results into the plan."""
        engine = QueryEngine(
            resolver=self._resolve_local_leaf,
            max_buffered_items=self.max_buffered_items,
        )
        evaluated = 0
        for subplan in subplans:
            # The reduction step: the evaluated sub-plan is replaced by its
            # result as verbatim data (paper §2).
            leaf = self._evaluate_subplan(engine, subplan)
            mqp.plan.replace_node(subplan, leaf)
            mqp.provenance.add(
                self.address,
                ProvenanceAction.EVALUATED,
                now,
                detail=f"{subplan.operator}->{leaf.cardinality()} items",
            )
            evaluated += 1
        if self._is_bare_union_plan(mqp):
            evaluated += self._pin_local_leaves(mqp, now)
        self.subplans_evaluated += evaluated
        return evaluated

    @staticmethod
    def _is_bare_union_plan(mqp: MutantQueryPlan) -> bool:
        """True for the predicate-less shape: only unions over leaves.

        Selective plans (any operator other than Union/Display above the
        leaves) reduce through ``evaluable_subplans`` and ship only their
        — typically much smaller — evaluated results; pinning whole local
        collections into them would balloon the wire form for nothing.
        """
        return all(
            isinstance(node, (Display, Union, LeafNode))
            for node in mqp.plan.iter_nodes()
        )

    def _pin_local_leaves(self, mqp: MutantQueryPlan, now: float) -> int:
        """Substitute locally held bare URL leaves with their verbatim data.

        Fixes the predicate-less area plan (a bare union of URLs): no
        operator sits above the leaves, so ``evaluable_subplans`` — which
        only reports reducible *operators* — never selects anything, and
        the plan bounces between data holders until ``max_hops``.  Pinning
        each locally available leaf as verbatim XML at the first server
        that holds it lets the union complete at the last holder visited.
        Applied only to the bare-union shape (:meth:`_is_bare_union_plan`).
        """
        pinned = 0
        for ref in list(mqp.plan.url_refs()):
            if not self._is_local_url(ref):
                continue
            items = self._resolve_local_leaf(ref)
            assert items is not None  # _is_local_url just said so
            mqp.plan.substitute_result(ref, items)
            mqp.provenance.add(
                self.address,
                ProvenanceAction.EVALUATED,
                now,
                detail=f"{ref.operator}->{len(items)} items",
            )
            pinned += 1
        return pinned

    def _evaluate_subplan(self, engine: QueryEngine, subplan: PlanNode) -> VerbatimData:
        """Reduce one sub-plan to its result leaf, evaluating each shape once.

        Structurally identical sub-plans reduce to the same items over the
        same local collections, so evaluation, statistics and serialization
        run once per distinct shape between two local writes: each plan
        gets a copy of the one cached leaf, sharing its items and wire text
        (nothing downstream mutates them).
        """
        key = EvaluationMemo.key_for(subplan)
        leaf = self.evaluations.lookup(key)
        if leaf is None:
            leaf = self.evaluations.store(key, self._result_leaf(engine.materialize(subplan)))
        return leaf

    def _result_leaf(self, items: list[XMLElement]) -> VerbatimData:
        leaf = VerbatimData.from_items(items, tag="result", copy_items=False)
        # The size annotated is measured on the text that will be shipped.
        statistics = CollectionStatistics(len(items), leaf.items_size())
        for key, value in statistics.to_annotations().items():
            leaf.annotate(key, value)
        return leaf

    # ------------------------------------------------------------------ #
    # Stage 5: routing candidates for whatever is left
    # ------------------------------------------------------------------ #

    def _candidates_for_remaining(
        self, mqp: MutantQueryPlan, routes: dict[str, list[str]]
    ) -> tuple[list[str], list[str]]:
        """Candidates split into (URN-routing servers, data-holding servers).

        Data-holding servers may be revisited: a leaf that was not reducible
        on the first visit (because other inputs were still abstract) can be
        reduced once the plan has accumulated the missing data — the
        round-trip of Figure 4.
        """
        urn_candidates: list[str] = []
        data_candidates: list[str] = []
        for ref in mqp.plan.url_refs():
            if not self._is_local_url(ref):
                data_candidates.append(canonical_address(ref.url))
        for ref in mqp.plan.urn_refs():
            parsed = parse_urn_cached(ref.urn)
            if isinstance(parsed, InterestAreaURN):
                urn_candidates.extend(self._routes_for(parsed, routes))
            elif isinstance(parsed, NamedURN):
                entry = self._lookup_named(parsed)
                if entry is not None:
                    urn_candidates.extend(entry.resolver_servers)
                    data_candidates.extend(collection.url for collection in entry.collections)
                else:
                    urn_candidates.extend(self._known_indexers())
        return urn_candidates, data_candidates

    def _order_candidates(
        self, candidates: list[str], avoid: Collection[str] = ()
    ) -> list[str]:
        ordered: list[str] = []
        seen = {self._canonical_address, *avoid}
        for candidate in candidates:
            address = canonical_address(candidate)
            if address not in seen:
                seen.add(address)
                ordered.append(address)
        return ordered
