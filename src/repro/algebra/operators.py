"""Logical query-plan operators and leaves (paper §2).

A mutant query plan is "an algebraic query plan graph, encoded in XML, that
may also include verbatim XML-encoded data, references to resource
locations (URLs), and references to abstract resource names (URNs)".  This
module defines those node types:

Leaves
    :class:`VerbatimData` (constant XML), :class:`URLRef` (a resource
    location), :class:`URNRef` (an abstract resource name).

Operators
    :class:`Select`, :class:`Project`, :class:`Join`, :class:`Union`,
    :class:`Difference`, :class:`Aggregate`, :class:`OrderBy`,
    :class:`TopN`, the *conjoint union* :class:`ConjointOr` introduced in
    §4.2 for intensional-statement bindings, and the :class:`Display`
    pseudo-operator carrying the plan's target address.

Nodes carry an ``annotations`` dictionary used for the catalog/statistics
information §5.1 proposes to accumulate as a plan travels (cardinalities,
result sizes, provenance hints).
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Sequence

from ..errors import PlanError
from ..xmlmodel import XMLElement, XMLSpan, parse_xml, serialize_collection, utf8_len
from .expressions import Expression

__all__ = [
    "PlanNode",
    "LeafNode",
    "VerbatimData",
    "URLRef",
    "URNRef",
    "Select",
    "Project",
    "Join",
    "Union",
    "ConjointOr",
    "Difference",
    "Aggregate",
    "OrderBy",
    "TopN",
    "Display",
    "AGGREGATE_FUNCTIONS",
]

_node_counter = itertools.count(1)

AGGREGATE_FUNCTIONS = ("count", "sum", "min", "max", "avg")


class PlanNode:
    """Base class for every node of a logical query plan."""

    operator = "node"

    def __init__(self, children: Iterable["PlanNode"] = ()) -> None:
        self.children: list[PlanNode] = list(children)
        for child in self.children:
            if not isinstance(child, PlanNode):
                raise PlanError(f"plan child must be a PlanNode, got {type(child).__name__}")
        self.annotations: dict[str, str] = {}
        self.node_id: int = next(_node_counter)

    # -- structure ------------------------------------------------------- #

    @property
    def is_leaf(self) -> bool:
        """True for data/reference leaves (no child operators)."""
        return not self.children

    def iter_nodes(self) -> Iterator["PlanNode"]:
        """Yield this node and all descendants, pre-order."""
        pending = [self]
        while pending:
            node = pending.pop()
            yield node
            pending.extend(reversed(node.children))

    def replace_child(self, old: "PlanNode", new: "PlanNode") -> None:
        """Replace a direct child (identity comparison) with another node."""
        for index, child in enumerate(self.children):
            if child is old:
                self.children[index] = new
                return
        raise PlanError(f"{old!r} is not a child of {self!r}")

    def annotate(self, key: str, value: object) -> None:
        """Attach a statistics / catalog annotation (paper §5.1)."""
        self.annotations[str(key)] = str(value)

    # -- copying ---------------------------------------------------------- #

    def copy(self) -> "PlanNode":
        """Deep-copy the subtree rooted at this node (annotations included)."""
        clone = self._copy_shallow([child.copy() for child in self.children])
        clone.annotations = dict(self.annotations)
        return clone

    def _copy_shallow(self, children: list["PlanNode"]) -> "PlanNode":
        raise NotImplementedError

    # -- equality (structural, ignoring node ids and annotations) --------- #

    def signature(self) -> tuple:
        """A structural signature used for equality and hashing."""
        return (self.operator, self._own_signature(), tuple(child.signature() for child in self.children))

    def _own_signature(self) -> tuple:
        return ()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PlanNode):
            return NotImplemented
        return self.signature() == other.signature()

    def __hash__(self) -> int:
        return hash(self.signature())

    def __repr__(self) -> str:
        return f"{type(self).__name__}(id={self.node_id}, children={len(self.children)})"


class LeafNode(PlanNode):
    """Common base for plan leaves."""

    def __init__(self) -> None:
        super().__init__(())


class VerbatimData(LeafNode):
    """Constant XML data embedded directly in the plan.

    ``collection`` is an element whose children are the individual items;
    partial results produced by plan reduction are substituted back into the
    plan as ``VerbatimData`` nodes.

    The leaf owns the collection as a tree, as its wire text (``span``), or
    both: one that arrived in a plan document starts as a span and is parsed
    only by whoever reads ``collection`` / ``items`` / ``cardinality()``; a
    fresh result starts as a tree, serialized once.  Both forms are
    write-once and shared by copies.
    """

    operator = "data"

    def __init__(self, collection: XMLElement | XMLSpan, name: str | None = None) -> None:
        super().__init__()
        self._tree: XMLElement | None = None
        self._span: XMLSpan | None = None
        self._items_size: int | None = None
        if isinstance(collection, XMLSpan):
            self._span = collection
        elif isinstance(collection, XMLElement):
            self._tree = collection
        else:
            raise PlanError("VerbatimData needs an XMLElement collection")
        self.name = name

    @classmethod
    def from_items(
        cls,
        items: Sequence[XMLElement],
        name: str | None = None,
        tag: str = "collection",
        copy_items: bool = True,
    ) -> "VerbatimData":
        """Wrap a list of item elements into a collection leaf.

        ``copy_items=False`` embeds the items by reference — used where
        a sub-plan is reduced: many plans at one peer share the cached
        result of the same sub-plan and nothing downstream mutates items
        in place (forwarding serializes, delivery copies).
        """
        children = [item.copy() for item in items] if copy_items else list(items)
        return cls(XMLElement(tag, {}, children), name)

    @property
    def collection(self) -> XMLElement:
        """The collection element (parsed from the span on first use)."""
        if self._tree is None:
            assert self._span is not None
            self._tree = parse_xml(self._span.source)
        return self._tree

    @property
    def span(self) -> XMLSpan:
        """The collection as wire text (serialized on first use)."""
        if self._span is None:
            self.items_size()  # one serialization yields both the text and the size
        assert self._span is not None
        return self._span

    @property
    def items(self) -> list[XMLElement]:
        """The individual data items of the collection."""
        return list(self.collection.children)

    def cardinality(self) -> int:
        """Number of items in the collection."""
        return len(self.collection.children)

    def serialized_size(self) -> int:
        """UTF-8 bytes of the collection on the wire."""
        return utf8_len(self.span.source)

    def items_size(self) -> int:
        """UTF-8 bytes of the items alone (``stats.bytes``), as ``span`` ships them."""
        if self._items_size is None:
            text, self._items_size = serialize_collection(self.collection)
            if self._span is None:
                self._span = XMLSpan(text)
        return self._items_size

    def _copy_shallow(self, children: list[PlanNode]) -> PlanNode:
        clone = VerbatimData(self.span if self._tree is None else self._tree, self.name)
        clone._tree, clone._span, clone._items_size = self._tree, self._span, self._items_size
        return clone

    def _own_signature(self) -> tuple:
        return (self.name, hash(self.collection))


class URLRef(LeafNode):
    """A reference to data at a concrete resource location.

    ``url`` addresses the peer holding the data (host/port in the paper's
    examples); ``path`` is the XPath-lite identifier of the collection on
    that peer, e.g. ``/data[id=245]``.
    """

    operator = "url"

    def __init__(self, url: str, path: str | None = None) -> None:
        super().__init__()
        if not url:
            raise PlanError("URLRef needs a non-empty URL")
        self.url = url
        self.path = path

    def _copy_shallow(self, children: list[PlanNode]) -> PlanNode:
        return URLRef(self.url, self.path)

    def _own_signature(self) -> tuple:
        return (self.url, self.path)


class URNRef(LeafNode):
    """A reference to an abstract resource name (to be resolved via catalogs)."""

    operator = "urn"

    def __init__(self, urn: str) -> None:
        super().__init__()
        if not urn.startswith("urn:"):
            raise PlanError(f"not a URN: {urn!r}")
        self.urn = urn

    def _copy_shallow(self, children: list[PlanNode]) -> PlanNode:
        return URNRef(self.urn)

    def _own_signature(self) -> tuple:
        return (self.urn,)


class Select(PlanNode):
    """Filter items of the child collection by a predicate."""

    operator = "select"

    def __init__(self, child: PlanNode, predicate: Expression) -> None:
        super().__init__([child])
        self.predicate = predicate

    @property
    def child(self) -> PlanNode:
        return self.children[0]

    def _copy_shallow(self, children: list[PlanNode]) -> PlanNode:
        return Select(children[0], self.predicate)

    def _own_signature(self) -> tuple:
        return (self.predicate.to_text(),)


class Project(PlanNode):
    """Construct new items keeping only the listed fields.

    ``columns`` is a sequence of ``(path, output_tag)`` pairs; each output
    item is an element named ``item_tag`` whose children are text elements
    holding the selected values.
    """

    operator = "project"

    def __init__(
        self,
        child: PlanNode,
        columns: Sequence[tuple[str, str]],
        item_tag: str = "item",
    ) -> None:
        super().__init__([child])
        if not columns:
            raise PlanError("Project needs at least one column")
        self.columns = tuple((str(path), str(tag)) for path, tag in columns)
        self.item_tag = item_tag

    @property
    def child(self) -> PlanNode:
        return self.children[0]

    def _copy_shallow(self, children: list[PlanNode]) -> PlanNode:
        return Project(children[0], self.columns, self.item_tag)

    def _own_signature(self) -> tuple:
        return (self.columns, self.item_tag)


class Join(PlanNode):
    """Equality join between two collections.

    Items from the left and right inputs are matched when the values reached
    by ``left_path`` and ``right_path`` are equal.  The output item wraps
    copies of both matching items under ``output_tag`` so later operators
    can navigate into either side.  ``join_type`` may be ``inner`` or
    ``left_outer`` (the outer variant backs the size-reducing rewrites of
    §2).
    """

    operator = "join"

    JOIN_TYPES = ("inner", "left_outer")

    def __init__(
        self,
        left: PlanNode,
        right: PlanNode,
        left_path: str,
        right_path: str,
        join_type: str = "inner",
        output_tag: str = "tuple",
    ) -> None:
        super().__init__([left, right])
        if join_type not in self.JOIN_TYPES:
            raise PlanError(f"unsupported join type {join_type!r}")
        self.left_path = left_path
        self.right_path = right_path
        self.join_type = join_type
        self.output_tag = output_tag

    @property
    def left(self) -> PlanNode:
        return self.children[0]

    @property
    def right(self) -> PlanNode:
        return self.children[1]

    def _copy_shallow(self, children: list[PlanNode]) -> PlanNode:
        return Join(
            children[0], children[1], self.left_path, self.right_path, self.join_type, self.output_tag
        )

    def _own_signature(self) -> tuple:
        return (self.left_path, self.right_path, self.join_type, self.output_tag)


class Union(PlanNode):
    """Bag union of any number of input collections."""

    operator = "union"

    def __init__(self, children: Sequence[PlanNode]) -> None:
        if len(children) < 1:
            raise PlanError("Union needs at least one input")
        super().__init__(children)

    def _copy_shallow(self, children: list[PlanNode]) -> PlanNode:
        return Union(children)


class ConjointOr(PlanNode):
    """The "or" (``|``) operator of §4.2: either input holds the needed data.

    Semantically governed by the rewrite rules ``A | B → A`` and
    ``A | B → B``; the policy manager picks which branch to
    keep.  Evaluating an unrewritten ConjointOr falls back to its first
    branch.
    """

    operator = "or"

    def __init__(self, children: Sequence[PlanNode]) -> None:
        if len(children) < 2:
            raise PlanError("ConjointOr needs at least two alternatives")
        super().__init__(children)

    def _copy_shallow(self, children: list[PlanNode]) -> PlanNode:
        return ConjointOr(children)


class Difference(PlanNode):
    """Set difference: items of the left input not present in the right input.

    Membership is decided by the value at ``key_path`` when given, otherwise
    by deep structural equality of the items.
    """

    operator = "difference"

    def __init__(self, left: PlanNode, right: PlanNode, key_path: str | None = None) -> None:
        super().__init__([left, right])
        self.key_path = key_path

    @property
    def left(self) -> PlanNode:
        return self.children[0]

    @property
    def right(self) -> PlanNode:
        return self.children[1]

    def _copy_shallow(self, children: list[PlanNode]) -> PlanNode:
        return Difference(children[0], children[1], self.key_path)

    def _own_signature(self) -> tuple:
        return (self.key_path,)


class Aggregate(PlanNode):
    """Grouped aggregation over a value path.

    ``function`` is one of :data:`AGGREGATE_FUNCTIONS`.  When ``group_path``
    is ``None`` a single output item is produced.
    """

    operator = "aggregate"

    def __init__(
        self,
        child: PlanNode,
        function: str,
        value_path: str | None = None,
        group_path: str | None = None,
        output_tag: str = "aggregate",
    ) -> None:
        super().__init__([child])
        if function not in AGGREGATE_FUNCTIONS:
            raise PlanError(f"unsupported aggregate function {function!r}")
        if function != "count" and value_path is None:
            raise PlanError(f"aggregate {function!r} needs a value path")
        self.function = function
        self.value_path = value_path
        self.group_path = group_path
        self.output_tag = output_tag

    @property
    def child(self) -> PlanNode:
        return self.children[0]

    def _copy_shallow(self, children: list[PlanNode]) -> PlanNode:
        return Aggregate(children[0], self.function, self.value_path, self.group_path, self.output_tag)

    def _own_signature(self) -> tuple:
        return (self.function, self.value_path, self.group_path, self.output_tag)


class OrderBy(PlanNode):
    """Sort items by the value at ``path`` (numeric when possible)."""

    operator = "orderby"

    def __init__(self, child: PlanNode, path: str, descending: bool = False) -> None:
        super().__init__([child])
        self.path = path
        self.descending = descending

    @property
    def child(self) -> PlanNode:
        return self.children[0]

    def _copy_shallow(self, children: list[PlanNode]) -> PlanNode:
        return OrderBy(children[0], self.path, self.descending)

    def _own_signature(self) -> tuple:
        return (self.path, self.descending)


class TopN(PlanNode):
    """Keep the first ``limit`` items ordered by ``path`` (top-n queries, §3.4)."""

    operator = "topn"

    def __init__(self, child: PlanNode, limit: int, path: str, descending: bool = True) -> None:
        super().__init__([child])
        if limit < 1:
            raise PlanError("TopN limit must be positive")
        self.limit = int(limit)
        self.path = path
        self.descending = descending

    @property
    def child(self) -> PlanNode:
        return self.children[0]

    def _copy_shallow(self, children: list[PlanNode]) -> PlanNode:
        return TopN(children[0], self.limit, self.path, self.descending)

    def _own_signature(self) -> tuple:
        return (self.limit, self.path, self.descending)


class Display(PlanNode):
    """Pseudo-operator carrying the plan's target address (paper Figure 3).

    Once the plan below it is fully evaluated, the result is shipped to
    ``target``.
    """

    operator = "display"

    def __init__(self, child: PlanNode, target: str) -> None:
        super().__init__([child])
        if not target:
            raise PlanError("Display needs a target address")
        self.target = target

    @property
    def child(self) -> PlanNode:
        return self.children[0]

    def _copy_shallow(self, children: list[PlanNode]) -> PlanNode:
        return Display(children[0], self.target)

    def _own_signature(self) -> tuple:
        return (self.target,)
