"""The gather class on its own: no network, no peers, just pieces in and results out."""

from fractions import Fraction
from itertools import permutations

import pytest

from repro.errors import PeerError, XMLParseError
from repro.peers.gather import ResultGather, ResultItems, ResultPiece, worst_reason
from repro.xmlmodel import XMLElement, serialize_xml, text_element

TAG = 77  # a split's lineage tag; any integer, equal among the pieces of one split


def item(title: str) -> XMLElement:
    return XMLElement("item", {}, [text_element("title", title)])


def piece(path, credit, *titles, partial=False, reason=None, hops=0) -> ResultPiece:
    return ResultPiece(
        tuple(path), Fraction(credit), [item(title) for title in titles],
        partial=partial, reason=reason, hops=hops,
    )


def titles(result) -> list[str]:
    return [entry.child_text("title") for entry in result.items]


def nested_split() -> list[ResultPiece]:
    """A 3-way split whose middle piece was split again, 2 ways, downstream."""
    return [
        piece((TAG, 0), "1/3", "a0", "a1"),
        piece((TAG, 1, 5, 0), "1/6", "b0"),
        piece((TAG, 1, 5, 1), "1/6", "b1", "b2"),
        piece((TAG, 2), "1/3", "c0"),
    ]


class TestCredit:
    def test_credits_of_a_nested_split_sum_to_one(self):
        gather = ResultGather()
        pieces = nested_split()
        assert sum(each.credit for each in pieces) == 1
        for each in pieces[:-1]:
            arrival, recorded = gather.offer("q", each, now=1.0)
            assert arrival.partial and recorded.partial and recorded.reason is None
            assert "q" in gather and gather.pending() == ["q"]
        final, recorded = gather.offer("q", pieces[-1], now=2.0)
        assert final is recorded and not final.partial and final.received_at == 2.0
        assert titles(final) == ["a0", "a1", "b0", "b1", "b2", "c0"]
        assert "q" not in gather and len(gather) == 0

    def test_arrival_order_does_not_change_the_final_item_order(self):
        finals = set()
        for order in permutations(nested_split()):
            gather = ResultGather()
            outcomes = [gather.offer("q", each) for each in order]
            assert all(outcome is not None for outcome in outcomes)
            finals.add(tuple(titles(outcomes[-1][0])))
        assert finals == {("a0", "a1", "b0", "b1", "b2", "c0")}

    def test_partial_arrivals_are_deltas_and_the_record_is_cumulative(self):
        gather = ResultGather()
        first, recorded = gather.offer("q", piece((TAG, 1), "1/2", "late"))
        assert titles(first) == ["late"] and titles(recorded) == ["late"]
        assert first is not recorded
        second, final = gather.offer("q", piece((TAG, 0), "1/2", "early"))
        assert second is final and titles(final) == ["early", "late"]

    def test_an_unsplit_plan_is_the_one_piece_case(self):
        gather = ResultGather()
        final, recorded = gather.offer("q", piece((), 1, "only", hops=4))
        assert final is recorded and not final.partial
        assert final.provenance_hops == 4 and titles(final) == ["only"]
        assert len(gather) == 0

    def test_a_malformed_path_is_dropped(self):
        gather = ResultGather()
        assert gather.offer("q", piece((TAG,), 1, "x")) is None  # not (tag, index) pairs
        assert gather.dropped == 1 and "q" not in gather


class TestEnvelopes:
    """``ResultPiece.from_envelope``: what comes off the network is read once."""

    def test_a_well_formed_envelope_becomes_its_piece(self):
        envelope = {"query_id": "q", "branch": "77.1.5.0", "credit": "1/6", "partial": True,
                    "reason": "stuck", "hops": 3, "staleness": 1.5}
        expected = piece((TAG, 1, 5, 0), "1/6", "b0", partial=True, reason="stuck", hops=3)
        expected.staleness = 1.5
        assert ResultPiece.from_envelope(envelope, [item("b0")]) == expected
        whole = ResultPiece.from_envelope({"query_id": "q"}, [])  # an unsplit plan's defaults
        assert whole.branch == () and whole.credit == 1 and not whole.partial

    @pytest.mark.parametrize("field, value", [
        ("branch", "77.x"), ("branch", "77"), ("branch", 7),
        ("credit", "1/0"), ("credit", "a third"), ("credit", None), ("credit", "0"),
        ("credit", "3/2"), ("credit", "-1/3"),
        ("reason", "because"), ("hops", "many"), ("staleness", "old"),
    ])
    def test_a_malformed_envelope_is_dropped_and_counted(self, field, value):
        envelope = {"query_id": "q", "branch": "77.0", "credit": "1/3", field: value}
        assert ResultPiece.from_envelope(envelope, []) is None
        gather = ResultGather()
        assert gather.offer("q", ResultPiece.from_envelope(envelope, [])) is None
        assert gather.dropped == 1 and "q" not in gather


def document(*names: str) -> str:
    return serialize_xml(XMLElement("result", {"query-id": "q"}, [item(name) for name in names]))


class TestUnreadItems:
    """``ResultItems``: an arrived document is counted at once and parsed on first read."""

    def test_counting_never_parses_and_reading_parses_once(self, monkeypatch):
        parsed = []
        real = ResultItems.of_document.__globals__["parse_xml"]
        monkeypatch.setitem(
            ResultItems.of_document.__globals__, "parse_xml", lambda text: parsed.append(1) or real(text)
        )
        items = ResultItems.of_document(document("a", "b"), 2)
        assert len(items) == 2 and not parsed
        assert [entry.child_text("title") for entry in items] == ["a", "b"] and parsed == [1]
        assert items[1].child_text("title") == "b" and items[0] is items[0] and parsed == [1]
        assert items == [item("a"), item("b")] and items != [item("a")]

    def test_the_arrival_and_the_record_share_one_parse(self):
        gather = ResultGather()
        first = ResultPiece((TAG, 0), Fraction(1, 2), ResultItems.of_document(document("a"), 1))
        second = ResultPiece((TAG, 1), Fraction(1, 2), [item("b")])  # a local piece: a list
        arrival, recorded = gather.offer("q", first)
        assert len(recorded.items) == 1
        final, _ = gather.offer("q", second)
        assert len(final.items) == 2 and titles(final) == ["a", "b"]
        assert arrival.items[0] is final.items[0]  # what items() dedupes on

    def test_a_document_that_lies_about_its_count_or_is_malformed_fails_at_the_read(self):
        short = ResultItems.of_document(document("a"), 3)
        assert len(short) == 3
        with pytest.raises(PeerError):
            list(short)
        with pytest.raises(XMLParseError):
            list(ResultItems.of_document("<result><item></result>", 1))


class TestPerPathRules:
    def test_duplicate_adds_neither_items_nor_credit(self):
        gather = ResultGather()
        gather.offer("q", piece((TAG, 0), "1/2", "a"))
        assert gather.offer("q", piece((TAG, 0), "1/2", "a")) is None
        assert gather.dropped == 1 and gather.pending() == ["q"]
        final, _ = gather.offer("q", piece((TAG, 1), "1/2", "b"))
        assert titles(final) == ["a", "b"]

    def test_complete_supersedes_partial(self):
        gather = ResultGather()
        gather.offer("q", piece((TAG, 1), "1/2", "b"))
        _, recorded = gather.offer(
            "q", piece((TAG, 0), "1/2", "carried", partial=True, reason="stuck")
        )
        # Every credit is home, but a piece is partial: so is the result.
        assert recorded.partial and recorded.reason == "stuck"
        assert titles(recorded) == ["carried", "b"] and gather.pending() == []
        assert "q" in gather  # kept: the complete piece may still supersede
        final, recorded = gather.offer("q", piece((TAG, 0), "1/2", "carried", "rest"))
        assert final is recorded and not final.partial and final.reason is None
        assert titles(final) == ["carried", "rest", "b"]
        assert "q" not in gather

    def test_partial_never_replaces_anything(self):
        gather = ResultGather()
        gather.offer("q", piece((TAG, 0), "1/2", "a"))
        assert gather.offer("q", piece((TAG, 0), "1/2", partial=True, reason="stuck")) is None
        gather.offer("q", piece((TAG, 1), "1/2", "b", partial=True, reason="hop-budget"))
        late = piece((TAG, 1), "1/2", partial=True, reason="unreachable")
        assert gather.offer("q", late) is None
        assert gather.dropped == 2

    def test_the_gravest_reason_is_reported(self):
        assert worst_reason(None, "stuck") == "stuck"
        assert worst_reason("unreachable", "time-budget") == "unreachable"
        assert worst_reason("hop-budget", "stuck") == "stuck"
        gather = ResultGather()
        gather.offer("q", piece((TAG, 0), "1/3", partial=True, reason="hop-budget"))
        gather.offer("q", piece((TAG, 1), "1/3", partial=True, reason="unreachable"))
        _, recorded = gather.offer("q", piece((TAG, 2), "1/3", "c"))
        assert recorded.partial and recorded.reason == "unreachable"


class TestLineages:
    """A plan split twice (a rerouted copy, another catalog) is counted once."""

    def test_a_rival_grouping_of_the_same_split_point_is_dropped(self):
        gather = ResultGather()
        gather.offer("q", piece((TAG, 0), "1/3", "x"))
        # Another server grouped the same plan two ways: its piece 1 holds
        # what pieces 1 and 2 of the first grouping hold.
        assert gather.offer("q", piece((TAG + 1, 1), "1/2", "y", "z")) is None
        gather.offer("q", piece((TAG, 1), "1/3", "y"))
        final, _ = gather.offer("q", piece((TAG, 2), "1/3", "z"))
        assert titles(final) == ["x", "y", "z"]

    def test_an_answer_for_a_subtree_already_answered_by_its_pieces_is_dropped(self):
        gather = ResultGather()
        gather.offer("q", piece((TAG, 0, 9, 0), "1/4", "x"))
        # The sender of piece (TAG, 0) lost every ack, rerouted it, and the
        # copy came home stuck — for a subtree whose pieces are arriving.
        stuck = piece((TAG, 0), "1/2", partial=True, reason="unreachable")
        assert gather.offer("q", stuck) is None
        # ... and the other way round: the whole subtree first, a piece after.
        gather.offer("q", piece((TAG, 1), "1/2", "whole"))
        assert gather.offer("q", piece((TAG, 1, 9, 0), "1/4", "part")) is None
        assert gather.dropped == 2


class TestBounds:
    def test_eviction_degrades_to_partial(self):
        gather = ResultGather(memory=2)
        for query in ("q0", "q1", "q2"):
            gather.offer(query, piece((TAG, 0), "1/2", query))
        assert "q0" not in gather and len(gather) == 2  # the oldest table went
        # q0's second half starts from nothing: its credit can never reach 1.
        outcome = gather.offer("q0", piece((TAG, 1), "1/2", "late"))
        assert outcome is not None and outcome[1].partial
        final, _ = gather.offer("q2", piece((TAG, 1), "1/2", "done"))
        assert not final.partial

    def test_an_arriving_piece_refreshes_recency(self):
        gather = ResultGather(memory=2)
        gather.offer("q0", piece((TAG, 0), "1/3", "a"))
        gather.offer("q1", piece((TAG, 0), "1/3", "a"))
        gather.offer("q0", piece((TAG, 1), "1/3", "b"))
        gather.offer("q2", piece((TAG, 0), "1/3", "a"))
        assert "q0" in gather and "q1" not in gather

    def test_discard_forgets_a_query(self):
        gather = ResultGather()
        gather.offer("q", piece((TAG, 0), "1/2", "a"))
        gather.discard("q")
        gather.discard("q")  # idempotent
        assert len(gather) == 0


@pytest.mark.parametrize("fanout", [1, 2, 7, 191])
def test_work_per_piece_does_not_depend_on_pieces_held(fanout):
    """Partial arrivals hand watchers the piece's own list, never a copy of the rest."""
    gather = ResultGather()
    pieces = [piece((TAG, index), Fraction(1, fanout), f"i{index}") for index in range(fanout)]
    for each in pieces[:-1]:
        arrival, _ = gather.offer("q", each)
        assert arrival.items is each.items
    final, _ = gather.offer("q", pieces[-1])
    assert final.count == fanout and not final.partial


class TestWatching:
    def test_a_latecomer_is_replayed_a_frozen_copy_of_the_answer_so_far(self):
        gather = ResultGather()
        first, second, third = nested_split()[:3]
        gather.offer("q", first, now=1.0)
        seen = []
        gather.watch("q", seen.append)
        [replayed] = seen
        assert replayed.partial and titles(replayed) == ["a0", "a1"]
        assert replayed is not gather.results["q"]
        _, record = gather.offer("q", second, now=2.0)
        assert titles(record) == ["a0", "a1", "b0"]  # the live record grew ...
        assert titles(replayed) == ["a0", "a1"] and replayed.received_at == 1.0  # ... the copy not
        assert "q" in gather.watchers  # still registered: the query is not answered

    def test_a_final_result_is_replayed_without_registering(self):
        gather = ResultGather()
        for each in nested_split():
            gather.offer("q", each)
        seen = []
        gather.watch("q", seen.append)
        assert seen == [gather.results["q"]] and not gather.watchers
        assert gather.is_answered("q") and not gather.is_answered("other")

    def test_a_partial_record_whose_table_was_evicted_counts_as_answered(self):
        gather = ResultGather(memory=1)
        gather.offer("q1", nested_split()[0])
        gather.offer("q2", nested_split()[0])  # evicts q1's piece table
        assert gather.results["q1"].partial and gather.is_answered("q1")
        assert not gather.is_answered("q2")
