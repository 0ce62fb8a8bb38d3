"""Query plan graphs: traversal, validation, and sub-plan surgery (paper §2).

:class:`QueryPlan` wraps the root :class:`~repro.algebra.operators.PlanNode`
and provides the structural operations the mutant-query-plan machinery
needs: finding URN/URL leaves, locating the maximal locally-evaluable
sub-plans, substituting evaluated results back into the graph, and checking
whether the plan has been reduced to a constant piece of XML data.
"""

from __future__ import annotations

from typing import Callable, Iterator

from ..errors import PlanError
from ..xmlmodel import XMLElement
from .operators import (
    ConjointOr,
    Display,
    LeafNode,
    PlanNode,
    URLRef,
    URNRef,
    VerbatimData,
)

__all__ = ["QueryPlan"]


class QueryPlan:
    """A rooted logical query plan.

    The root is normally a :class:`Display` pseudo-operator carrying the
    target address; plans without a Display root are allowed for unit
    testing and for representing detached sub-plans.
    """

    def __init__(self, root: PlanNode) -> None:
        if not isinstance(root, PlanNode):
            raise PlanError(f"plan root must be a PlanNode, got {type(root).__name__}")
        self.root = root
        self.validate()

    # -- basic structure -------------------------------------------------- #

    @property
    def target(self) -> str | None:
        """The plan's target address, when the root is a Display operator."""
        if isinstance(self.root, Display):
            return self.root.target
        return None

    @property
    def body(self) -> PlanNode:
        """The plan below the Display pseudo-operator (or the root itself)."""
        if isinstance(self.root, Display):
            return self.root.child
        return self.root

    def iter_nodes(self) -> Iterator[PlanNode]:
        """Yield every node of the plan, pre-order."""
        return self.root.iter_nodes()

    def size(self) -> int:
        """Number of nodes in the plan."""
        return sum(1 for _ in self.iter_nodes())

    def copy(self) -> "QueryPlan":
        """Deep-copy the whole plan."""
        return QueryPlan(self.root.copy())

    def validate(self) -> None:
        """Check structural invariants.

        * at most one Display, and only at the root;
        * every node reachable exactly once (the graph is a tree here —
          DAG sharing is expressed by repeating equivalent sub-plans).
        """
        seen: set[int] = set()
        for node in self.iter_nodes():
            if id(node) in seen:
                raise PlanError("plan graph contains a shared/duplicated node instance")
            seen.add(id(node))
            if isinstance(node, Display) and node is not self.root:
                raise PlanError("Display may only appear at the plan root")

    # -- leaf discovery ----------------------------------------------------- #

    def urn_refs(self) -> list[URNRef]:
        """Every abstract resource name still present in the plan."""
        return [node for node in self.iter_nodes() if isinstance(node, URNRef)]

    def url_refs(self) -> list[URLRef]:
        """Every resource location still present in the plan."""
        return [node for node in self.iter_nodes() if isinstance(node, URLRef)]

    def verbatim_leaves(self) -> list[VerbatimData]:
        """Every constant-data leaf in the plan."""
        return [node for node in self.iter_nodes() if isinstance(node, VerbatimData)]

    def is_fully_evaluated(self) -> bool:
        """True when the plan has been reduced to a constant piece of XML data."""
        return isinstance(self.body, VerbatimData)

    def result(self) -> XMLElement:
        """Return the result collection of a fully evaluated plan."""
        body = self.body
        if not isinstance(body, VerbatimData):
            raise PlanError("plan is not fully evaluated")
        return body.collection

    # -- graph surgery ------------------------------------------------------ #

    def parent_of(self, node: PlanNode) -> PlanNode | None:
        """Return the parent of ``node`` (identity comparison), or ``None`` for the root."""
        if node is self.root:
            return None
        for candidate in self.iter_nodes():
            for child in candidate.children:
                if child is node:
                    return candidate
        raise PlanError("node is not part of this plan")

    def replace_node(self, old: PlanNode, new: PlanNode) -> None:
        """Replace ``old`` (identity comparison) with ``new`` anywhere in the plan."""
        parent = self.parent_of(old)
        if parent is None:
            self.root = new
        else:
            parent.replace_child(old, new)

    def substitute_result(
        self,
        subplan: PlanNode,
        items: list[XMLElement],
        name: str | None = None,
    ) -> VerbatimData:
        """Replace an evaluated sub-plan with its result as verbatim data.

        This is the *reduction* step of mutant query processing: "the server
        substitutes the resulting XML fragments as verbatim XML data in the
        place of the evaluated sub-plans".
        """
        leaf = VerbatimData.from_items(items, name=name, tag="result")
        self.replace_node(subplan, leaf)
        return leaf

    # -- locally evaluable sub-plans ---------------------------------------- #

    def evaluable_subplans(
        self, leaf_available: Callable[[LeafNode], bool] | None = None
    ) -> list[PlanNode]:
        """Return the maximal locally-evaluable sub-plans.

        A sub-plan is locally evaluable "if all its leaves are verbatim XML
        data, URLs, or resolvable URNs" (paper §2).  ``leaf_available``
        decides whether a URL/URN leaf counts as available on this server;
        by default only verbatim data does.  ConjointOr nodes are never
        considered evaluable themselves (a branch must be chosen first), and
        bare leaves are not reported (there is nothing to reduce).
        """

        def available(leaf: LeafNode) -> bool:
            if isinstance(leaf, VerbatimData):
                return True
            if leaf_available is None:
                return False
            return bool(leaf_available(leaf))

        def fully_available(node: PlanNode) -> bool:
            if isinstance(node, ConjointOr):
                return False
            if isinstance(node, LeafNode):
                return available(node)
            return all(fully_available(child) for child in node.children)

        found: list[PlanNode] = []

        def walk(node: PlanNode) -> None:
            if isinstance(node, Display):
                for child in node.children:
                    walk(child)
                return
            if not isinstance(node, LeafNode) and fully_available(node):
                found.append(node)
                return
            for child in node.children:
                walk(child)

        walk(self.root)
        return found

    # -- description -------------------------------------------------------- #

    def explain(self) -> str:
        """Return an indented, human-readable rendering of the plan."""
        lines: list[str] = []

        def describe(node: PlanNode) -> str:
            label = node.operator
            if isinstance(node, VerbatimData):
                label += f"[{node.cardinality()} items]"
            elif isinstance(node, URLRef):
                label += f"[{node.url}{node.path or ''}]"
            elif isinstance(node, URNRef):
                label += f"[{node.urn}]"
            elif isinstance(node, Display):
                label += f"[target={node.target}]"
            elif hasattr(node, "predicate"):
                label += f"[{node.predicate.to_text()}]"  # type: ignore[attr-defined]
            return label

        def walk(node: PlanNode, depth: int) -> None:
            lines.append("  " * depth + describe(node))
            for child in node.children:
                walk(child, depth + 1)

        walk(self.root, 0)
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"QueryPlan(nodes={self.size()}, target={self.target!r})"
