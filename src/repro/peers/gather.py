"""Gathering a scattered query at its target: pieces in, one result out.

A hop that holds a union sends each group of branches on as its own small
mutant query plan (:meth:`repro.mqp.processor.MQPProcessor._scatter`), so the
answer comes home as many *pieces*.  Every piece names its **branch path**
and carries an exact **credit** — the share of the query's unit credit its
plan was given when the plan was split (weight throwing: a split divides the
parent's credit among the pieces as a rational, so nested splits need no
coordinator and nobody has to know how many pieces exist).  The target

* keeps pieces per branch path: a duplicate is dropped, and a complete piece
  supersedes a partial one for the same path (the "a complete result is
  terminal" rule, per branch);
* keeps one *lineage* per split: a path is ``(tag, index)`` pairs, one pair
  per split, and ``tag`` digests how the splitting server grouped the
  branches.  A plan rerouted after its acks were lost may be split twice, by
  servers with different catalogs; pieces of the second grouping — or an
  answer for a whole subtree whose pieces already arrived, or the reverse —
  cover data already counted and are dropped, first claim wins;
* calls the result final — items in branch-path order, ``partial`` if any
  piece is — the moment the credits of the kept paths sum to exactly 1.

The gather is also where the answer *stays*: ``results`` holds the
cumulative record per query, and ``watch`` / ``watchers`` register who is
waiting for it (how :class:`repro.api.QueryHandle` completes) — so "what has
come home and who is waiting for it" is one object.

Everything here is plain bookkeeping on one peer: no network, no clock
beyond the ``now`` handed in, which is what lets it be tested on its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

from ..errors import PeerError, PlanError
from ..mqp.plan import parse_branch
from ..mqp.processor import PARTIAL_REASONS
from ..xmlmodel import XMLElement, parse_xml
from .parts import Watchers, insert_capped

__all__ = [
    "QueryResult", "ResultItems", "ResultPiece", "ResultGather", "insert_capped", "worst_reason",
]

Path = tuple[int, ...]


def worst_reason(first: str | None, second: str | None) -> str | None:
    """The graver of two partial-answer reasons (``None`` is no reason)."""
    if first is None or second is None:
        return first or second
    return max(first, second, key=PARTIAL_REASONS.index)


class _Delivery:
    """One delivery's items: the document they arrived in until first read."""

    __slots__ = ("count", "content")

    def __init__(self, count: int, content: "str | list[XMLElement]") -> None:
        self.count = count
        self.content = content  # the document's text, then (once read) its items

    def read(self) -> list[XMLElement]:
        if isinstance(self.content, str):
            elements = list(parse_xml(self.content).children)
            if len(elements) != self.count:
                raise PeerError(
                    f"a document announced {self.count} item(s) and holds {len(elements)}"
                )
            self.content = elements
        return self.content


class ResultItems(Sequence[XMLElement]):
    """A result's (or a delta's) items in order; what arrived as a document
    stays text until read.

    ``len`` never parses, so an answer that is only counted costs its text,
    not a tree several times that size.  Reading an element parses each
    delivery once; deliveries are shared between the arrival handed to
    watchers and the cumulative record, so both see the same elements.
    """

    __slots__ = ("_deliveries", "_count", "_read")

    def __init__(self, elements: Iterable[XMLElement] = ()) -> None:
        listed = list(elements)
        self._deliveries = [_Delivery(len(listed), listed)] if listed else []
        self._count = len(listed)
        self._read: list[XMLElement] | None = None

    @classmethod
    def of_document(cls, document: str, count: object = None) -> "ResultItems":
        """The children of ``document``'s root — left unparsed when the
        sender said how many there are (``count``, off a result or a
        ``delta-chunk`` envelope)."""
        if not isinstance(count, int) or count < 0:
            return cls(parse_xml(document).children)
        items = cls()
        items._deliveries.append(_Delivery(count, document))
        items._count = count
        return items

    @classmethod
    def joined(cls, parts: Iterable[Sequence[XMLElement]]) -> "ResultItems":
        items = cls()
        for part in parts:
            items.extend(part)
        return items

    def extend(self, more: Sequence[XMLElement]) -> None:
        more = more if isinstance(more, ResultItems) else ResultItems(more)
        self._deliveries.extend(more._deliveries)
        self._count += more._count
        self._read = None

    def _elements(self) -> list[XMLElement]:
        if self._read is None:
            self._read = [item for each in self._deliveries for item in each.read()]
        return self._read

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[XMLElement]:
        return iter(self._elements())

    def __getitem__(self, index):  # type: ignore[override]
        return self._elements()[index]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Sequence) and self._elements() == list(other)

    def __repr__(self) -> str:
        return f"ResultItems({self._count} item(s))"


@dataclass
class QueryResult:
    """What a client records when a result (or partial result) arrives.

    A complete result (``partial`` false) holds the whole answer.  A partial
    one handed to result watchers holds the items of the piece that *just
    arrived* — so a query scattered into n pieces costs its watchers
    O(answer), not n cumulative snapshots — while ``QueryPeer.results``
    keeps the cumulative answer so far.  ``reason`` says why a partial
    answer is partial (:data:`repro.mqp.processor.PARTIAL_REASONS`; the
    gravest over the pieces gathered), and stays ``None`` while pieces are
    simply still on their way.
    """

    query_id: str
    items: Sequence[XMLElement]
    partial: bool = False
    received_at: float = 0.0
    provenance_hops: int = 0
    max_staleness_minutes: float = 0.0
    reason: str | None = None

    @property
    def count(self) -> int:
        """Number of result items."""
        return len(self.items)


@dataclass
class ResultPiece:
    """One arrived result envelope, reduced to what gathering needs."""

    branch: Path
    credit: Fraction
    items: Sequence[XMLElement]
    partial: bool = False
    reason: str | None = None
    hops: int = 0
    staleness: float = 0.0

    @classmethod
    def from_envelope(cls, envelope: dict, items: Sequence[XMLElement]) -> "ResultPiece | None":
        """The piece a result envelope off the network describes.

        ``None`` when its branch, credit, reason or counters cannot be read:
        the caller drops the frame instead of raising in a message handler.
        """
        try:
            piece = cls(
                branch=parse_branch(envelope.get("branch", "")),
                credit=Fraction(envelope.get("credit", 1)),
                items=items,
                partial=bool(envelope.get("partial", False)),
                reason=envelope.get("reason"),
                hops=int(envelope.get("hops", 0)),
                staleness=float(envelope.get("staleness", 0.0)),
            )
        except (PlanError, ValueError, TypeError, AttributeError, ZeroDivisionError):
            return None
        readable = (
            len(piece.branch) % 2 == 0
            and 0 < piece.credit <= 1
            and piece.reason in (None, *PARTIAL_REASONS)
        )
        return piece if readable else None


@dataclass
class _Gathering:
    """The pieces of one query kept so far."""

    pieces: dict[Path, ResultPiece] = field(default_factory=dict)
    # Split point (a kept path minus its last pairs) -> the tag its kept
    # children carry.  Its keys are exactly the proper prefixes of kept paths.
    lineage: dict[Path, int] = field(default_factory=dict)
    credit: Fraction = Fraction(0)
    partial_pieces: int = 0
    record: QueryResult | None = None  # the cumulative answer, arrival order

    def admits(self, piece: ResultPiece) -> bool:
        """May ``piece`` join (or replace its namesake among) the kept pieces?"""
        path = piece.branch
        held = self.pieces.get(path)
        if held is not None:
            return held.partial and not piece.partial
        if path in self.lineage:
            return False  # pieces of this subtree already answered for it
        for cut in range(0, len(path), 2):
            if path[:cut] in self.pieces:
                return False  # an ancestor answered for the whole subtree
            if self.lineage.get(path[:cut], path[cut]) != path[cut]:
                return False  # a rival grouping of the same split point
        return True


class ResultGather:
    """Per-query piece tables of one target peer, bounded to ``memory`` queries.

    A query whose table is evicted mid-gather degrades to partial: its
    cumulative record stays what it was, and the caller must not offer its
    later pieces (``query_id in gather`` says whether a table is alive).
    """

    def __init__(self, memory: int = 1024) -> None:
        self.memory = memory
        self.dropped = 0
        self._queries: dict[str, _Gathering] = {}
        # The answer so far per query (cumulative; see QueryResult).
        self.results: dict[str, QueryResult] = {}
        self.watchers = Watchers()

    def __contains__(self, query_id: object) -> bool:
        return query_id in self._queries

    def __len__(self) -> int:
        return len(self._queries)

    def discard(self, query_id: str) -> None:
        """Forget a query (cancelled, or answered by other means)."""
        self._queries.pop(query_id, None)

    def pending(self) -> list[str]:
        """Queries still owed credit: some piece has not come home yet."""
        return [qid for qid, state in self._queries.items() if state.credit != 1]

    def is_answered(self, query_id: str) -> bool:
        """True once nothing more may be recorded for the query.

        That is: a complete (non-partial) result is recorded — or a partial
        one whose piece table is gone (evicted mid-gather: the pieces that
        were counted are forgotten, so later ones could only double-count).
        """
        recorded = self.results.get(query_id)
        return recorded is not None and (not recorded.partial or query_id not in self._queries)

    # -- who is waiting (how repro.api.QueryHandle completes) ------------------- #

    def watch(self, query_id: str, callback: Callable[[QueryResult], None]) -> None:
        """Invoke ``callback`` for every arrival announced under ``query_id``.

        If a result is already recorded (delivery beat the watcher), the
        callback fires immediately — registration can never miss the
        completion it is waiting for.  A partial record is replayed as a
        frozen copy of the answer so far: the live record keeps growing as
        pieces arrive, and the latecomer is told of those separately.
        Watchers of an already-final query are not retained (a final result
        is terminal), and a query's watcher list is dropped the moment its
        final result is announced.  Watchers of a query that never records a
        final result (the plan died en route, or only partials arrived) stay
        registered until ``watchers.remove`` — :class:`repro.api.QueryHandle`
        calls it from its terminal paths (``close()``), so long-running
        peers do not accumulate entries for dead queries.
        """
        existing = self.results.get(query_id)
        if existing is not None and not existing.partial:
            callback(existing)  # terminal: replay without registering
            return
        self.watchers.add(query_id, callback)
        if existing is not None:
            callback(replace(existing, items=ResultItems.joined([existing.items])))

    def offer(
        self, query_id: str, piece: ResultPiece | None, now: float = 0.0
    ) -> tuple[QueryResult, QueryResult] | None:
        """Take one arrived piece; ``None`` when it adds nothing (a duplicate,
        a rival claim, or an envelope ``from_envelope`` could not read — each
        dropped and counted in ``dropped``).

        Otherwise ``(arrival, recorded)``: what to tell the query's result
        watchers, and the answer so far, now kept in ``results``.
        Once every piece is home and complete both are the one final
        result, and the query's table is gone.
        """
        state = self._queries.get(query_id)
        if state is None:
            state = _Gathering()
        if piece is None or len(piece.branch) % 2 or not state.admits(piece):
            self.dropped += 1
            return None
        superseded = state.pieces.get(piece.branch)
        state.pieces[piece.branch] = piece
        for cut in range(0, len(piece.branch), 2):
            state.lineage[piece.branch[:cut]] = piece.branch[cut]
        record = state.record
        if superseded is None:
            state.credit += piece.credit
            state.partial_pieces += piece.partial
        else:
            state.partial_pieces -= 1  # only a complete piece replaces, only a partial one
        if record is None or superseded is not None or state.credit == 1:
            # First piece, a replaced one, or the last: (re)build the record,
            # in branch-path order once nothing more is owed.
            paths = sorted(state.pieces) if state.credit == 1 else list(state.pieces)
            kept = [state.pieces[path] for path in paths]
            record = state.record = QueryResult(
                query_id, ResultItems.joined(each.items for each in kept)
            )
            for each in kept:
                self._fold(record, each)
        else:
            record.items.extend(piece.items)  # type: ignore[attr-defined]  # a ResultItems
            self._fold(record, piece)
        record.received_at = now
        record.partial = state.credit != 1 or state.partial_pieces > 0
        self.results[query_id] = record
        if not record.partial:
            self._queries.pop(query_id, None)
            return record, record
        insert_capped(self._queries, query_id, state, self.memory)
        arrival = QueryResult(
            query_id,
            piece.items,
            partial=True,
            received_at=now,
            provenance_hops=piece.hops,
            max_staleness_minutes=piece.staleness,
            reason=piece.reason,
        )
        return arrival, record

    @staticmethod
    def _fold(record: QueryResult, piece: ResultPiece) -> None:
        record.provenance_hops = max(record.provenance_hops, piece.hops)
        record.max_staleness_minutes = max(record.max_staleness_minutes, piece.staleness)
        record.reason = worst_reason(record.reason, piece.reason)
