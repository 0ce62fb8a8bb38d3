"""Traditional coordinator-based distributed query execution (paper §2, §5.2).

"Traditional distributed query processing depends on coordinators, servers
that must know all about data replication and statistics, to optimize a
query."  This baseline implements that model over the same simulated
network the MQP peers use:

* every base server registers its collections (with statistics) at the
  coordinator, giving it the global catalog MQPs deliberately avoid;
* a client sends its whole query to the coordinator;
* the coordinator decomposes the plan, pushes selections to the owning
  servers as sub-queries, collects all partial results centrally, finishes
  the join/aggregation work locally, and returns the answer to the client.

The comparison benchmark measures messages, bytes moved, and completion
time against MQP execution ([PM02a]'s preliminary comparison), and the
failure benchmark shows the coordinator as the single point whose loss
stalls every query.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from ..algebra import QueryPlan
from ..algebra.expressions import parse_predicate
from ..algebra.operators import PlanNode, Select, URLRef
from ..algebra.serialization import parse_plan, serialize_plan
from ..engine import QueryEngine
from ..network import Message, NetworkNode
from ..network.transport.codec import register_extension
from ..routing.baseline import reply_size
from ..xmlmodel import XMLElement, parse_xml, serialize_xml

__all__ = ["CoordinatorServer", "SubordinateServer", "CoordinatorClient"]

_query_counter = itertools.count(1)


@dataclass
class _SubQuery:
    """A selection (or bare scan) pushed down to one subordinate."""

    query_id: str
    url: str
    path: str | None
    predicate_text: str | None


register_extension(
    18, _SubQuery, lambda q: (q.query_id, q.url, q.path, q.predicate_text), lambda v: _SubQuery(*v)
)


@dataclass
class _PendingQuery:
    """Coordinator-side bookkeeping for one in-flight query."""

    query_id: str
    client: str
    plan: QueryPlan
    outstanding: int = 0
    partials: dict[int, list[XMLElement]] = field(default_factory=dict)
    leaf_order: dict[int, PlanNode] = field(default_factory=dict)


class SubordinateServer(NetworkNode):
    """A base server in the coordinator model: stores data, answers sub-queries."""

    def __init__(self, address: str) -> None:
        super().__init__(address)
        self.collections: dict[str, list[XMLElement]] = {}

    def add_collection(self, path: str, items: list[XMLElement]) -> None:
        """Store a named collection."""
        key = path if path.startswith("/") else f"/{path}"
        self.collections[key] = list(items)

    def handle_message(self, message: Message) -> None:
        if message.kind != "subquery":
            return
        subquery: _SubQuery
        leaf_id, subquery = message.payload
        items = self._evaluate(subquery)
        trace = self.metrics.trace(subquery.query_id)
        trace.visited.append(self.address)
        result = (subquery.query_id, leaf_id, items)
        trace.charge(self.send(message.sender, "subresult", result, size_bytes=reply_size(items)))

    def _evaluate(self, subquery: _SubQuery) -> list[XMLElement]:
        if subquery.path is not None:
            items = list(self.collections.get(subquery.path, []))
        else:
            items = [item for collection in self.collections.values() for item in collection]
        if subquery.predicate_text:
            predicate = parse_predicate(subquery.predicate_text)
            items = [item for item in items if predicate.matches(item)]
        return [item.copy() for item in items]


class CoordinatorServer(NetworkNode):
    """The omniscient coordinator."""

    def __init__(self, address: str) -> None:
        super().__init__(address)
        self.pending: dict[str, _PendingQuery] = {}
        self.queries_completed = 0

    def handle_message(self, message: Message) -> None:
        if message.kind == "coord-query":
            self._handle_query(message)
        elif message.kind == "subresult":
            self._handle_subresult(message)

    # -- decomposition --------------------------------------------------------------- #

    def _handle_query(self, message: Message) -> None:
        query_id, plan_document = message.payload
        pending = _PendingQuery(query_id, message.sender, parse_plan(plan_document))
        self.pending[query_id] = pending
        self.metrics.trace(query_id).visited.append(self.address)
        dispatched = self._dispatch_leaves(pending)
        if dispatched == 0:
            self._finish(pending)

    def _dispatch_leaves(self, pending: _PendingQuery) -> int:
        """Push every remote leaf (with any selection directly above it) down."""
        dispatched = 0
        for node in list(pending.plan.iter_nodes()):
            leaf, predicate_text = self._pushable_unit(pending.plan, node)
            if leaf is None:
                continue
            leaf_id = id(node)
            pending.leaf_order[leaf_id] = node
            subquery = _SubQuery(pending.query_id, leaf.url, leaf.path, predicate_text)
            server = leaf.url.removeprefix("http://")
            sent = self.send(server, "subquery", (leaf_id, subquery), size_bytes=240)
            self.metrics.trace(pending.query_id).charge(sent)
            pending.outstanding += 1
            dispatched += 1
        return dispatched

    @staticmethod
    def _pushable_unit(plan: QueryPlan, node: PlanNode) -> tuple[URLRef | None, str | None]:
        """Return (leaf, predicate) when ``node`` is a URL leaf or Select-over-URL."""
        if isinstance(node, URLRef):
            parent = plan.parent_of(node)
            if isinstance(parent, Select):
                return None, None  # handled when we visit the Select itself
            return node, None
        if isinstance(node, Select) and isinstance(node.child, URLRef):
            return node.child, node.predicate.to_text()
        return None, None

    # -- collection & completion --------------------------------------------------------- #

    def _handle_subresult(self, message: Message) -> None:
        query_id, leaf_id, items = message.payload
        pending = self.pending.get(query_id)
        if pending is None:
            return
        pending.partials[leaf_id] = items
        pending.outstanding -= 1
        if pending.outstanding <= 0:
            self._finish(pending)

    def _finish(self, pending: _PendingQuery) -> None:
        # Substitute the collected partial results and evaluate the remainder here.
        for leaf_id, node in pending.leaf_order.items():
            items = pending.partials.get(leaf_id, [])
            pending.plan.substitute_result(node, items)
        engine = QueryEngine()
        items = engine.materialize(pending.plan)
        document = serialize_xml(
            XMLElement("result", {"query-id": pending.query_id}, [item.copy() for item in items])
        )
        result = (pending.query_id, document)
        sent = self.send(pending.client, "coord-result", result, size_bytes=len(document))
        self.metrics.trace(pending.query_id).charge(sent)
        self.queries_completed += 1
        del self.pending[pending.query_id]


class CoordinatorClient(NetworkNode):
    """A client of the coordinator model."""

    def __init__(self, address: str, coordinator: str) -> None:
        super().__init__(address)
        self.coordinator = coordinator
        self.results: dict[str, list[XMLElement]] = {}

    def issue_query(self, plan: QueryPlan, query_id: str | None = None) -> str:
        """Ship the whole plan to the coordinator."""
        query_id = query_id or f"cq{next(_query_counter)}"
        document = serialize_plan(plan)
        trace = self.metrics.trace(query_id)
        trace.issued_at = self.now
        trace.visited.append(self.address)
        query = (query_id, document)
        trace.charge(self.send(self.coordinator, "coord-query", query, size_bytes=len(document)))
        return query_id

    def results_for(self, query_id: str) -> list[XMLElement]:
        """Result items received for a query."""
        return self.results.get(query_id, [])

    def handle_message(self, message: Message) -> None:
        if message.kind != "coord-result":
            return
        query_id, document = message.payload
        parsed = parse_xml(document)
        self.results[query_id] = list(parsed.children)
        trace = self.metrics.trace(query_id)
        trace.completed_at = self.now
        trace.answers = len(parsed.children)
