"""Streaming execution end-to-end: iterator engine, chunked delivery, cancel.

Covers the streaming contract ``docs/engine.md`` documents:

* the pull-based operators produce byte-identical item sequences (and wire
  XML) to the list evaluator of ``tests/oracles/list_engine.py``, proven
  over a randomized differential workload;
* pipeline breakers account their buffers against ``max_buffered_items``
  and fail with :class:`~repro.errors.ResourceBudgetExceeded` instead of
  growing without bound, while fully streaming operators buffer nothing;
* the chunked result protocol (``result-chunk`` / ``result-end``) delivers
  the same answers as the single-frame seed protocol on both transports,
  reassembles out-of-order chunks by sequence number, and streams items
  into :meth:`repro.api.QueryHandle.items` as chunks arrive;
* cancellation tears down open producer streams and propagates along the
  plan's forwarding chain;
* the result-watcher registry survives reentrant edits from inside a
  watcher callback;
* predicate-less plans (bare unions of URLs) complete at the last data
  holder instead of ping-ponging to ``max_hops``.
"""

from __future__ import annotations

import random
import tracemalloc

import pytest

from repro.algebra.expressions import parse_predicate
from repro.algebra.operators import (
    Aggregate,
    Difference,
    Join,
    OrderBy,
    PlanNode,
    Project,
    Select,
    TopN,
    Union,
    VerbatimData,
)
from repro.engine import BufferBudget, QueryEngine
from repro.engine import operators as physical
from repro.errors import QueryCancelled, ResourceBudgetExceeded
from repro.peers import QueryResult
from repro.peers.forwarding import PlanForwarding
from repro.peers.gather import ResultGather
from repro.peers.parts import Cancellations
from repro.peers.streams import ResultInbox, ResultStream, ResultStreams
from repro.peers.transfers import Transfers
from repro.perf import overrides
from repro.workloads import GarageSaleConfig, GarageSaleWorkload
from repro.xmlmodel import XMLElement, serialize_xml, text_element
from oracles import list_engine
from recording_node import RecordingNode, frame
from tests.test_api import portland_area, small_cluster

TRANSPORTS = ("sim", "aio")


def make_items(count: int, price_of=lambda i: i % 97, tag: str = "item") -> list[XMLElement]:
    return [
        XMLElement(
            tag,
            {},
            [text_element("title", f"thing-{i}"), text_element("price", price_of(i))],
        )
        for i in range(count)
    ]


def _bare_receiver(memory: int = 1024) -> ResultInbox:
    """The receiving half of the chunked-result protocol, on a node with no network."""
    node = RecordingNode("client:9020")
    return ResultInbox(node, Transfers(node), ResultGather(), Cancellations(), memory=memory)


def _chunk_frame(query_id: str, stream: str, seq: int, title: str):
    document = serialize_xml(
        XMLElement("result-chunk", {}, [XMLElement("item", {}, [text_element("title", title)])])
    )
    envelope = {"document": document, "query_id": query_id, "stream": stream, "seq": seq}
    return frame("result-chunk", envelope, sender="seller:9020")


def _titles(items) -> list[str]:
    return [item.child_text("title") for item in items]


# --------------------------------------------------------------------------- #
# Operator-level streaming semantics
# --------------------------------------------------------------------------- #


class TestStreamingOperators:
    def test_select_buffers_nothing(self):
        budget = BufferBudget(limit=1)
        items = make_items(5_000)
        predicate = parse_predicate("price < 50")
        streamed = list(physical.stream_select(iter(items), predicate))
        assert streamed == list_engine.evaluate_select(items, predicate)
        assert budget.peak == 0  # select never touched a budget

    def test_budget_peak_excludes_rejected_charges(self):
        """The high-water mark only counts items actually held at once."""
        budget = BufferBudget(limit=3)
        budget.charge(3)
        with pytest.raises(ResourceBudgetExceeded):
            budget.charge(1)
        assert budget.buffered == 3
        assert budget.peak == 3  # the rejected item was never buffered

    def test_order_by_charges_and_releases(self):
        budget = BufferBudget(limit=100)
        items = make_items(100)
        streamed = list(physical.stream_order_by(iter(items), "price", budget=budget))
        assert streamed == list_engine.evaluate_order_by(items, "price")
        assert budget.peak == 100
        assert budget.buffered == 0  # released on exhaustion

    def test_order_by_over_budget_raises(self):
        budget = BufferBudget(limit=99)
        with pytest.raises(ResourceBudgetExceeded):
            list(physical.stream_order_by(iter(make_items(100)), "price", budget=budget))
        assert budget.buffered == 0  # the finally released the partial buffer

    def test_join_budget_counts_right_side_only(self):
        budget = BufferBudget(limit=10)
        left = make_items(1_000)
        right = make_items(10)
        streamed = list(
            physical.stream_join(iter(left), iter(right), "price", "price", budget=budget)
        )
        assert streamed == list_engine.evaluate_join(left, right, "price", "price")
        assert budget.peak == 10  # the hash index, never the streamed left input
        assert budget.buffered == 0

    def test_top_n_truncation_releases_budget(self):
        budget = BufferBudget(limit=500)
        stream = physical.stream_top_n(iter(make_items(500)), 3, "price", budget=budget)
        top = list(stream)
        assert len(top) == 3
        assert budget.buffered == 0  # closing the truncated sort freed its buffer

    def test_closing_a_stream_mid_flight_releases_budget(self):
        budget = BufferBudget(limit=200)
        stream = physical.stream_order_by(iter(make_items(200)), "price", budget=budget)
        next(stream)
        assert budget.buffered == 200
        stream.close()
        assert budget.buffered == 0

    def test_difference_budget_counts_right_side(self):
        budget = BufferBudget(limit=5)
        left = make_items(100)
        right = make_items(5)
        streamed = list(
            physical.stream_difference(iter(left), iter(right), "title", budget=budget)
        )
        assert streamed == list_engine.evaluate_difference(left, right, "title")
        assert budget.peak == 5

    def test_budget_rejects_nonpositive_limit(self):
        with pytest.raises(Exception):
            BufferBudget(limit=0)


# --------------------------------------------------------------------------- #
# Randomized differential: the streaming engine vs the list-engine oracle
# --------------------------------------------------------------------------- #


PREDICATES = ("price < 40", "price > 15", "quantity > 1", "price >= 20")
NUMERIC_PATHS = ("price", "quantity")


def _random_source(rng: random.Random, collections: list[list[XMLElement]]) -> PlanNode:
    picks = rng.sample(collections, k=rng.randint(1, min(3, len(collections))))
    leaves: list[PlanNode] = [VerbatimData.from_items(items) for items in picks]
    if len(leaves) == 1:
        return leaves[0]
    return Union(leaves)


def _random_plan(rng: random.Random, collections: list[list[XMLElement]]) -> PlanNode:
    node = _random_source(rng, collections)
    for _ in range(rng.randint(1, 3)):
        choice = rng.random()
        if choice < 0.30:
            node = Select(node, parse_predicate(rng.choice(PREDICATES)))
        elif choice < 0.45:
            node = OrderBy(node, rng.choice(NUMERIC_PATHS), descending=rng.random() < 0.5)
        elif choice < 0.60:
            node = TopN(node, rng.randint(1, 12), rng.choice(NUMERIC_PATHS))
        elif choice < 0.72:
            node = Join(
                node,
                _random_source(rng, collections),
                "city",
                "city",
                join_type=rng.choice(("inner", "left_outer")),
            )
            # Joined tuples nest the original items; keep follow-up
            # operators on paths that still resolve.
            node = Project(node, [("item/title", "title"), ("item/price", "price")])
        elif choice < 0.84:
            node = Difference(node, _random_source(rng, collections), "title")
        else:
            node = Aggregate(
                node,
                rng.choice(("count", "sum", "min", "max", "avg")),
                value_path=rng.choice(NUMERIC_PATHS),
                group_path="city" if rng.random() < 0.5 else None,
            )
            break  # aggregate output has no price/quantity fields to chain on
    return node


class TestStreamingDifferential:
    @pytest.fixture(scope="class")
    def collections(self) -> list[list[XMLElement]]:
        workload = GarageSaleWorkload(
            GarageSaleConfig(sellers=12, mean_items_per_seller=6, seed=23)
        )
        return [seller.items for seller in workload.sellers if seller.items]

    def test_random_plans_agree_item_for_item(self, collections):
        rng = random.Random(1746)
        for round_number in range(60):
            plan = _random_plan(rng, collections)
            engine = QueryEngine()
            streamed = [serialize_xml(item) for item in engine.stream(plan)]
            evaluated = [serialize_xml(item) for item in engine.evaluate(plan)]
            streamed_wire = serialize_xml(engine.evaluate_collection(plan))
            expected = list_engine.evaluate(plan)
            materialized = [serialize_xml(item) for item in expected]
            oracle_wire = serialize_xml(
                XMLElement("result", {}, [item.copy() for item in expected])
            )
            assert streamed == materialized, f"diverged on round {round_number}"
            assert evaluated == materialized, f"evaluate() diverged on round {round_number}"
            assert streamed_wire == oracle_wire, f"wire diverged on round {round_number}"

    def test_engine_counters_match_across_modes(self, collections):
        plan = Select(
            Union([VerbatimData.from_items(items) for items in collections]),
            parse_predicate("price < 40"),
        )
        streaming = QueryEngine()
        for _ in streaming.stream(plan):
            pass
        draining = QueryEngine()
        draining.evaluate(plan)
        assert streaming.operators_evaluated == draining.operators_evaluated
        assert streaming.items_produced == draining.items_produced
        assert draining.items_produced == len(list_engine.evaluate(plan))

    def test_select_over_large_collection_stays_under_budget(self):
        items = make_items(20_000)
        plan = Select(VerbatimData.from_items(items, copy_items=False), parse_predicate("price < 30"))
        engine = QueryEngine(max_buffered_items=8)
        consumed = sum(1 for _ in engine.stream(plan))
        assert consumed > 0
        assert engine.peak_buffered_items == 0  # a pure pipeline buffers nothing
        assert engine.peak_buffered_items <= 8

    def test_breaker_over_engine_budget_raises(self):
        items = make_items(256)
        plan = OrderBy(VerbatimData.from_items(items, copy_items=False), "price")
        engine = QueryEngine(max_buffered_items=64)
        with pytest.raises(ResourceBudgetExceeded):
            list(engine.stream(plan))

    def test_breaker_at_its_engine_budget_completes(self):
        items = make_items(256)
        plan = OrderBy(VerbatimData.from_items(items, copy_items=False), "price")
        engine = QueryEngine(max_buffered_items=len(items))
        assert sum(1 for _ in engine.stream(plan)) == len(items)
        assert engine.peak_buffered_items == len(items)

    def test_streaming_peak_memory_below_materialized(self):
        """Consuming a projection one item at a time allocates far less than
        materializing every projected item first."""
        items = make_items(6_000)
        plan = Project(
            VerbatimData.from_items(items, copy_items=False),
            [("title", "title"), ("price", "price")],
        )
        engine = QueryEngine()

        tracemalloc.start()
        for _ in engine.stream(plan):
            pass
        _, streamed_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()

        tracemalloc.start()
        engine.evaluate(plan)
        _, materialized_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()

        assert streamed_peak < materialized_peak / 5


# --------------------------------------------------------------------------- #
# Chunked result delivery
# --------------------------------------------------------------------------- #


def _chunked_cluster(transport: str, chunk_items: int = 1):
    cluster = small_cluster(transport)
    for session in cluster.sessions():
        session.peer.streams.chunk_items = chunk_items
    return cluster


class TestChunkedDelivery:
    @pytest.fixture(params=TRANSPORTS)
    def transport(self, request):
        return request.param

    def test_items_stream_as_chunks_arrive(self, transport):
        with overrides(streaming_results=True):
            with _chunked_cluster(transport) as cluster:
                client = cluster.session("client:9020")
                handle = (
                    client.query()
                    .area(portland_area(cluster))
                    .where("price < 20")
                    .expecting(3)
                    .submit()
                )
                titles = [item.child_text("title") for item in handle.items(timeout=240_000)]
                assert sorted(titles) == ["Abbey Road", "Blue Train", "Kind of Blue"]
                result = handle.result(timeout=240_000)
                assert not result.partial
                # items() streams the two sellers' pieces as they land; the
                # final result orders them by branch path.
                assert sorted(item.child_text("title") for item in result.items) == sorted(titles)
                # Reassembly state is fully drained after the final result.
                inbox = client.peer.inbox
                assert not inbox.buffers and not inbox.assemblies

    def test_chunked_answer_equals_single_frame_answer(self, transport):
        def answer(streaming: bool) -> list[str]:
            with overrides(streaming_results=streaming):
                with _chunked_cluster(transport, chunk_items=2) as cluster:
                    client = cluster.session("client:9020")
                    handle = (
                        client.query()
                        .area(portland_area(cluster))
                        .where("price < 20")
                        .expecting(3)
                        .submit()
                    )
                    result = handle.result(timeout=240_000)
                    assert not result.partial
                    return [serialize_xml(item) for item in result.items]

        assert answer(streaming=True) == answer(streaming=False)

    def test_sequence_numbers_frame_every_chunk(self, transport):
        seen: list[tuple[str, int]] = []
        with overrides(streaming_results=True):
            with _chunked_cluster(transport) as cluster:
                client = cluster.session("client:9020")
                receive = client.peer.receive

                def spy(message):
                    if message.kind == "result-chunk":
                        seen.append((message.payload["stream"], message.payload["seq"]))
                    receive(message)

                client.peer.receive = spy  # this one client's arrivals, not the class
                handle = (
                    client.query()
                    .area(portland_area(cluster))
                    .where("price < 20")
                    .expecting(3)
                    .submit()
                )
                handle.result(timeout=240_000)
        assert seen
        streams = {stream for stream, _ in seen}
        assert len(streams) == 2  # one delivery — one stream token — per seller's piece
        for stream in streams:
            seqs = sorted(seq for token, seq in seen if token == stream)
            assert seqs == list(range(len(seqs)))

    def test_partial_answers_stream_too(self, transport):
        with overrides(streaming_results=True):
            with _chunked_cluster(transport) as cluster:
                cluster.session("seller2:9020").crash()
                client = cluster.session("client:9020")
                handle = (
                    client.query()
                    .area(portland_area(cluster))
                    .where("price < 10")
                    .expecting(2)
                    .submit()
                )
                result = handle.result(timeout=240_000)
                assert result.partial
                assert {item.child_text("title") for item in result.items} == {"Abbey Road"}

    def test_empty_result_streams_as_bare_end_frame(self, transport):
        with overrides(streaming_results=True):
            with _chunked_cluster(transport) as cluster:
                client = cluster.session("client:9020")
                handle = (
                    client.query()
                    .area(portland_area(cluster))
                    .where("price < 1")
                    .submit()
                )
                result = handle.result(timeout=240_000)
                assert result.count == 0

    def test_items_falls_back_to_the_single_frame(self, transport):
        # Chunking off: items() still yields every item, from the result frame.
        with _chunked_cluster(transport) as cluster:
            client = cluster.session("client:9020")
            handle = (
                client.query()
                .area(portland_area(cluster))
                .where("price < 20")
                .expecting(3)
                .submit()
            )
            titles = [item.child_text("title") for item in handle.items(timeout=240_000)]
            assert sorted(titles) == ["Abbey Road", "Blue Train", "Kind of Blue"]

    @pytest.mark.parametrize("streaming", [False, True])
    def test_items_landing_between_next_calls_are_still_yielded(self, transport, streaming):
        # The caller advances the clock itself while the generator is
        # suspended at a yield: the other piece and the final result land
        # behind items()' back and must still be drained.
        with overrides(streaming_results=streaming):
            with _chunked_cluster(transport) as cluster:
                client = cluster.session("client:9020")
                handle = (
                    client.query()
                    .area(portland_area(cluster))
                    .where("price < 20")
                    .expecting(3)
                    .submit()
                )
                stream = handle.items(timeout=240_000)
                titles = [next(stream).child_text("title")]
                cluster.run_until_idle()
                assert handle.done()
                titles.extend(item.child_text("title") for item in stream)
                assert sorted(titles) == ["Abbey Road", "Blue Train", "Kind of Blue"]

    def test_a_malformed_result_envelope_is_dropped_not_raised(self, transport):
        with small_cluster(transport) as cluster:
            peer = cluster.session("client:9020").peer
            for bad in ({"credit": "1/0"}, {"branch": "7.x"}, {"credit": "nope"}):
                envelope = {"query_id": "q9", "document": "<result><item/></result>", **bad}
                peer.handle_message(frame("result", envelope, sender="seller:9020"))
            assert peer.gather.dropped == 3 and "q9" not in peer.results

    def test_out_of_order_chunks_are_reassembled(self):
        """Chunk 1 delivered before chunk 0: released to watchers in order."""
        inbox = _bare_receiver()
        batches: list[list[str]] = []
        inbox.watchers.add("q7", lambda items, stream: batches.append(_titles(items)))

        inbox.on_frame(_chunk_frame("q7", "s/1", 1, "second"))
        assert batches == []  # out of order: held back
        inbox.on_frame(_chunk_frame("q7", "s/1", 0, "first"))
        assert batches == [["first"], ["second"]]
        assert _titles(inbox.items("q7")) == ["first", "second"]

    def test_interleaved_streams_reassemble_independently(self):
        """Two deliveries for one query (partial, then complete) never mix.

        Chunks carry a stream token; assemblies are keyed by (query, stream),
        so a chunk from a second delivery arriving mid-reassembly neither
        clobbers nor inherits the first delivery's state.
        """
        inbox = _bare_receiver()
        batches: list[list[str]] = []
        inbox.watchers.add("q8", lambda items, stream: batches.append(_titles(items)))

        # Stream s/1 releases seq 0, then s/2 opens with its own seq 0 while
        # s/1 is still mid-delivery, then s/1 finishes with seq 1.
        inbox.on_frame(_chunk_frame("q8", "s/1", 0, "partial-a"))
        inbox.on_frame(_chunk_frame("q8", "s/2", 0, "full-a"))
        inbox.on_frame(_chunk_frame("q8", "s/1", 1, "partial-b"))
        assert batches == [["partial-a"], ["full-a"], ["partial-b"]]
        by_stream = {key[1]: assembly for key, assembly in inbox.assemblies.items()}
        assert _titles(by_stream["s/1"].items) == ["partial-a", "partial-b"]
        assert _titles(by_stream["s/2"].items) == ["full-a"]
        # The arrival buffer mirrors the delivery that released last —
        # one stream's in-order items, never the interleaved union.
        assert _titles(inbox.items("q8")) == ["partial-a", "partial-b"]

    def test_new_delivery_supersedes_a_closed_partials_buffer(self):
        """The arrival buffer mirrors the latest delivery, not their union.

        A stuck branch streams a partial answer; its close keeps the buffer
        (so ``chunk_items`` serves the degraded outcome) but retires the
        assembly.  When the complete answer then opens a fresh stream, the
        partial's items must not prefix the new delivery's — that double
        count is exactly what ``QueryHandle.items()`` would re-yield.
        """
        inbox = _bare_receiver()
        streams: list[str] = []
        inbox.watchers.add("q9", lambda items, stream: streams.append(stream))

        inbox.on_frame(_chunk_frame("q9", "s/1", 0, "partial-a"))
        # A partial result-end keeps the buffer but retires the assembly.
        inbox.assemblies.pop(("q9", "s/1"))
        assert _titles(inbox.items("q9")) == ["partial-a"]

        inbox.on_frame(_chunk_frame("q9", "s/2", 0, "full-a"))
        inbox.on_frame(_chunk_frame("q9", "s/2", 1, "full-b"))
        assert _titles(inbox.items("q9")) == ["full-a", "full-b"]
        assert streams == ["s/1", "s/2", "s/2"]  # watchers can spot the switch

    def test_assembly_memory_evicts_oldest_incomplete_delivery(self):
        """Reassembly state from producers that died mid-stream is bounded."""
        inbox = _bare_receiver(memory=2)
        for n in range(4):
            inbox.on_frame(_chunk_frame(f"q{n}", "s/1", 0, f"item-{n}"))
        assert [key[0] for key in inbox.assemblies] == ["q2", "q3"]
        # The evicted queries' arrival buffers went with their assemblies.
        assert set(inbox.buffers) == {"q2", "q3"}
        # A chunk arrival refreshes recency: the actively reassembling q2
        # survives the next eviction, the now-stalest q3 goes instead.
        inbox.on_frame(_chunk_frame("q2", "s/1", 1, "item-2b"))
        inbox.on_frame(_chunk_frame("q4", "s/1", 0, "item-4"))
        assert [key[0] for key in inbox.assemblies] == ["q2", "q4"]
        assert _titles(inbox.items("q2")) == ["item-2", "item-2b"]

    def test_straggler_chunks_after_the_answer_are_dropped(self):
        """A superseded stream's in-flight chunk can't corrupt an answered query.

        Once the complete result is recorded, late chunk/end frames from a
        torn-down delivery must neither repopulate the arrival buffer with
        stale items nor strand an orphan assembly.
        """
        inbox = _bare_receiver()
        inbox.gather.results["q10"] = QueryResult(
            query_id="q10",
            items=make_items(2),
            partial=False,
            received_at=1.0,
            provenance_hops=3,
            max_staleness_minutes=0.0,
        )
        inbox.on_frame(_chunk_frame("q10", "s/1", 0, "stale"))
        assert not inbox.assemblies and not inbox.buffers
        inbox.on_frame(frame("result-end", {"query_id": "q10", "stream": "s/1", "seq": 1}))
        assert not inbox.assemblies

    def test_straggling_partial_result_frame_does_not_overwrite_the_answer(self):
        """Single-frame path: a late partial can't clobber the complete result."""
        inbox = _bare_receiver()
        final = QueryResult(
            query_id="q11",
            items=make_items(2),
            partial=False,
            received_at=1.0,
            provenance_hops=2,
            max_staleness_minutes=0.0,
        )
        inbox.gather.results["q11"] = final
        late = {"query_id": "q11", "partial": True, "document": "<result/>"}
        inbox.on_result(frame("partial-result", late))
        assert inbox.gather.results["q11"] is final

    def test_cancel_notice_sent_once_per_producer(self):
        """Straggler frames of a cancelled query don't each re-notify."""
        inbox = _bare_receiver()
        inbox.cancelled.add("q12")
        for _ in range(3):
            inbox.on_frame(_chunk_frame("q12", "s/1", 0, "late"))
        assert [(m.recipient, m.kind) for m in inbox.port.sent] == [
            ("seller:9020", "cancel-query")
        ]

    def test_stale_pump_event_does_not_drive_a_superseding_stream(self):
        """A torn-down stream's scheduled pump must not pump its successor.

        Pump events carry their stream token; one delivery pumps one chunk
        per logical event — the backpressure invariant the aio bounded
        inboxes rely on — even when a newer delivery superseded the stream
        that scheduled the event.
        """
        node = RecordingNode()
        streams = ResultStreams(node, Transfers(node))
        streams.open[("q13", "")] = ResultStream(
            query_id="q13",
            target="client:9020",
            iterator=iter(make_items(3)),
            stream="me/2",
            closing={"query_id": "q13", "branch": "", "credit": "1"},
        )
        streams.pump(("q13", ""), "me/1")  # event from the superseded stream
        assert not node.sent
        assert streams.open[("q13", "")].seq == 0

    def test_degraded_partial_buffers_are_bounded(self):
        """Kept buffers of partial answers don't grow without bound.

        A partial close keeps the arrival buffer (serving ``chunk_items``)
        while retiring the assembly; an issuer whose queries keep degrading
        to partials must not retain every such item list forever.
        """
        inbox = _bare_receiver(memory=2)
        for n in range(5):
            inbox.on_frame(_chunk_frame(f"q{n}", "s/1", 0, f"item-{n}"))
            inbox.assemblies.pop((f"q{n}", "s/1"))  # as a partial close does
        assert set(inbox.buffers) == {"q3", "q4"}
        assert _titles(inbox.items("q4")) == ["item-4"]

    def test_cancel_and_forward_memory_are_bounded(self):
        """Per-query bookkeeping on a long-running relay evicts oldest-first."""
        cancelled = Cancellations(memory=3)
        for n in range(5):
            cancelled.add(f"q{n}")
        assert list(cancelled) == ["q2", "q3", "q4"]
        assert [cancelled.first_notice(f"q{n}", "hop:1") for n in (1, 1, 2, 3, 4, 1)] == [
            True, False, True, True, True, True,  # the oldest "told" entry was evicted too
        ]
        forwarding = PlanForwarding(RecordingNode(), None, None, None, None, memory=3)
        for n in range(4):
            forwarding.remember(f"q{n}", "hop:1", "<piece/>")
        forwarding.remember("q1", "hop:2", "<piece/>")  # re-forwarding refreshes recency
        forwarding.remember("q4", "hop:1", "<piece/>")
        assert list(forwarding.custody) == ["q3", "q1", "q4"]
        # Every next hop is kept: a cancel must reach each piece of a scatter.
        assert list(forwarding.custody["q1"]) == ["hop:1", "hop:2"]
        # Fire-and-forget keeps no custody of the pieces; reliable delivery does.
        assert forwarding.custody["q1"] == {"hop:1": [], "hop:2": []}
        with overrides(reliable_delivery=True):
            forwarding.remember("q1", "hop:2", "<piece/>")
        assert forwarding.custody["q1"] == {"hop:1": [], "hop:2": ["<piece/>"]}

    def test_aio_counts_individually_framed_chunks(self):
        with overrides(streaming_results=True):
            with _chunked_cluster("aio") as cluster:
                client = cluster.session("client:9020")
                handle = (
                    client.query()
                    .area(portland_area(cluster))
                    .where("price < 20")
                    .expecting(3)
                    .submit()
                )
                handle.result(timeout=240_000)
                stats = cluster.network.transport.stats()
                # 3 items at 1 item/chunk: at least 3 chunk frames + 1 end frame.
                assert stats["chunk_frames"] >= 4


class TestCancellation:
    def test_cancel_mid_stream_tears_down_producers(self):
        with overrides(streaming_results=True):
            with _chunked_cluster("sim") as cluster:
                client = cluster.session("client:9020")
                handle = (
                    client.query()
                    .area(portland_area(cluster))
                    .where("price < 20")
                    .expecting(3)
                    .submit()
                )
                first = None
                for item in handle.items(timeout=240_000):
                    first = item.child_text("title")
                    handle.cancel()
                assert first is not None
                assert handle.cancelled()
                with pytest.raises(QueryCancelled):
                    handle.result(timeout=1_000)
                with pytest.raises(QueryCancelled):
                    list(handle.items())
                with pytest.raises(QueryCancelled):
                    list(handle)  # __iter__ refuses too, not a quiet empty stream
                cluster.network.run_until_idle()
                for session in cluster.sessions():
                    assert not session.peer.streams.open

    def test_unreachable_chunk_frame_tears_down_the_open_stream(self):
        """A bounced chunk closes the producer's stream for the dead target.

        A stream can still be open when the bounce returns (the producer
        parked mid-delivery); the unreachable notice must close its
        iterator instead of letting later pumps keep producing for a
        consumer that no longer exists.
        """
        with small_cluster("sim") as cluster:
            seller = cluster.session("seller1:9020").peer
            closed: list[bool] = []

            def items_then_mark():
                try:
                    yield from make_items(5)
                finally:
                    closed.append(True)

            iterator = items_then_mark()
            next(iterator)
            seller.streams.open[("q-dead", "")] = ResultStream(
                query_id="q-dead",
                target="client:9020",
                iterator=iterator,
                stream="seller1:9020/9",
                closing={"query_id": "q-dead", "branch": "", "credit": "1"},
            )

            def bounce_of(stream: str, seq: int):
                envelope = {"query_id": "q-dead", "stream": stream, "seq": seq}
                original = frame("result-chunk", envelope, sender=seller.address)
                seller.handle_message(frame("peer-unreachable", original, sender="client:9020"))
                return original

            # A stale bounce from a superseded delivery leaves the live
            # stream alone (token mismatch — the hazard pump() guards too).
            bounce_of("seller1:9020/8", 3)
            assert not closed and ("q-dead", "") in seller.streams.open

            original = bounce_of("seller1:9020/9", 1)
            assert closed  # the producing iterator was closed
            assert ("q-dead", "") not in seller.streams.open
            assert seller.dead_letters[-1] is original

    def test_local_stuck_delivery_does_not_overwrite_the_answer(self):
        """A duplicate plan going stuck at the issuer can't clobber the result."""
        from repro.algebra import PlanBuilder
        from repro.mqp import MutantQueryPlan

        with small_cluster("sim") as cluster:
            client = cluster.session("client:9020")
            handle = (
                client.query()
                .area(portland_area(cluster))
                .where("price < 20")
                .expecting(3)
                .submit()
            )
            final = handle.result(timeout=240_000)
            assert not final.partial
            plan = (
                PlanBuilder.url("seller1:9020", "/cds")
                .select("price < 10")
                .display("client:9020")
            )
            duplicate = MutantQueryPlan(plan, query_id=handle.query_id)
            client.peer.forwarding.deliver(duplicate, "stuck")
            recorded = client.peer.results[handle.query_id]
            assert not recorded.partial
            assert recorded.count == final.count

    def test_cancel_after_completion_is_a_noop(self):
        """Standard future semantics: cancelling a done handle changes nothing."""
        with small_cluster("sim") as cluster:
            client = cluster.session("client:9020")
            handle = (
                client.query()
                .area(portland_area(cluster))
                .where("price < 20")
                .expecting(3)
                .submit()
            )
            result = handle.result(timeout=240_000)
            handle.cancel()
            assert not handle.cancelled()
            assert handle.result(timeout=1_000).count == result.count
            assert handle.query_id not in client.peer.cancelled_queries

    def test_cancel_propagates_along_the_forwarding_chain(self):
        with small_cluster("sim") as cluster:
            client = cluster.session("client:9020")
            handle = (
                client.query()
                .area(portland_area(cluster))
                .where("price < 20")
                .submit()
            )
            handle.cancel()
            cluster.network.run_until_idle()
            cancelled_at = [
                session.peer.address
                for session in cluster.sessions()
                if handle.query_id in session.peer.cancelled_queries
            ]
            # The notice walked the chain beyond the issuing client.
            assert len(cancelled_at) > 1
            dropped = sum(session.peer.forwarding.plans_cancelled for session in cluster.sessions())
            del dropped  # plan may already have finished a hop; drop count is best-effort

    def test_cancelled_peer_drops_arriving_plan(self):
        from repro.mqp import MutantQueryPlan
        from repro.algebra import PlanBuilder

        with small_cluster("sim") as cluster:
            seller = cluster.session("seller1:9020").peer
            seller.cancel_query("q-dead")
            plan = PlanBuilder.url("seller1:9020", "/cds").select("price < 10").display(
                "client:9020"
            )
            mqp = MutantQueryPlan(plan, query_id="q-dead")
            before = seller.forwarding.plans_cancelled
            seller.forwarding.process(mqp)
            assert seller.forwarding.plans_cancelled == before + 1
            assert "q-dead" not in seller.results


# --------------------------------------------------------------------------- #
# Watcher reentrancy (satellite)
# --------------------------------------------------------------------------- #


def _result(query_id: str, partial: bool = False) -> QueryResult:
    return QueryResult(query_id=query_id, items=[], partial=partial)


def _announce(gather: ResultGather, result: QueryResult) -> None:
    """What the inbox does once the gather has taken a piece."""
    gather.watchers.notify(result.query_id, result, last=not result.partial)


class TestWatcherReentrancy:
    """The gather's watcher registry, no peer and no network around it."""

    @pytest.fixture()
    def peer(self):
        return ResultGather()

    def test_self_unregistering_watcher_does_not_skip_siblings(self, peer):
        fired: list[str] = []

        def selfish(result: QueryResult) -> None:
            fired.append("selfish")
            peer.watchers.remove("q1", selfish)

        peer.watch("q1", selfish)
        peer.watch("q1", lambda result: fired.append("sibling-a"))
        peer.watch("q1", lambda result: fired.append("sibling-b"))
        _announce(peer, _result("q1", partial=True))
        assert fired == ["selfish", "sibling-a", "sibling-b"]
        # A second partial only reaches the still-registered siblings.
        _announce(peer, _result("q1", partial=True))
        assert fired == ["selfish", "sibling-a", "sibling-b", "sibling-a", "sibling-b"]

    def test_watcher_unwatching_a_sibling_mid_dispatch_skips_it(self, peer):
        fired: list[str] = []

        def victim(result: QueryResult) -> None:
            fired.append("victim")

        def assassin(result: QueryResult) -> None:
            fired.append("assassin")
            peer.watchers.remove("q2", victim)

        peer.watch("q2", assassin)
        peer.watch("q2", victim)
        _announce(peer, _result("q2", partial=True))
        assert fired == ["assassin"]

    def test_unwatch_during_terminal_dispatch_works(self, peer):
        fired: list[str] = []

        def first(result: QueryResult) -> None:
            fired.append("first")
            peer.watchers.remove("q3", second)

        def second(result: QueryResult) -> None:
            fired.append("second")

        peer.watch("q3", first)
        peer.watch("q3", second)
        _announce(peer, _result("q3", partial=False))
        assert fired == ["first"]
        assert "q3" not in peer.watchers and not peer.watchers._closing

    def test_watcher_issuing_a_new_query_mid_dispatch(self):
        """A watcher that starts a brand-new query — whose own delivery can
        recurse into the dispatcher — corrupts nothing."""
        with small_cluster("sim") as cluster:
            client = cluster.session("client:9020")
            peer = client.peer
            outcomes: list[str] = []

            first = client.query().area(portland_area(cluster)).where("price < 10").expecting(2)
            handle = first.submit()

            def chained(result: QueryResult) -> None:
                outcomes.append(f"first:{result.partial}")
                nested = (
                    client.query()
                    .area(portland_area(cluster))
                    .where("price < 20")
                    .expecting(3)
                    .submit()
                )
                outcomes.append(f"second:{nested.result(timeout=240_000).count}")

            peer.watch_results(handle.query_id, chained)
            handle.result(timeout=240_000)
            assert any(entry.startswith("second:") for entry in outcomes)
            # The registry survived the recursion intact: nothing is left
            # registered for the answered queries.
            assert not peer.gather.watchers

    def test_reentrant_partial_during_terminal_dispatch_keeps_siblings(self, peer):
        """A watcherless partial dispatched from inside a final dispatch
        (a straggler surfacing while a watcher drives the network) must not
        release the terminal list the outer dispatch is still walking."""
        fired: list[str] = []

        def meddler(result: QueryResult) -> None:
            fired.append("meddler")
            _announce(peer, _result("q5", partial=True))

        peer.watch("q5", meddler)
        peer.watch("q5", lambda result: fired.append("sibling"))
        _announce(peer, _result("q5", partial=False))
        assert fired == ["meddler", "sibling"]
        assert not peer.watchers._closing

    def test_watcher_registering_new_watcher_mid_dispatch(self, peer):
        fired: list[str] = []

        def registrar(result: QueryResult) -> None:
            fired.append("registrar")
            peer.watch("q4", lambda r: fired.append("late"))

        peer.watch("q4", registrar)
        peer.results["q4"] = _result("q4", partial=True)  # replayed to the newcomer
        _announce(peer, _result("q4", partial=True))
        # The newcomer saw the replay immediately but not the in-flight
        # dispatch (its snapshot predates the registration).
        assert fired == ["registrar", "late"]


# --------------------------------------------------------------------------- #
# Bare-union plans: local leaves are pinned so the union completes
# --------------------------------------------------------------------------- #


class TestEagerAreaPlans:
    def test_a_bare_union_completes_at_the_data_holders(self):
        """A predicate-less area query completes, well short of ``max_hops``."""
        with small_cluster("sim") as cluster:
            client = cluster.session("client:9020")
            handle = client.query().area(portland_area(cluster)).submit()
            result = handle.result(timeout=4_000_000)
            assert not result.partial
            assert sorted(item.child_text("title") for item in result.items) == [
                "Abbey Road",
                "Blue Train",
                "Kind of Blue",
            ]
            assert result.provenance_hops < 32

    def test_selective_plans_are_not_pinned(self):
        """Pinning targets only the bare-union shape.

        A plan with any real operator above its leaves reduces through
        ``evaluable_subplans`` and ships its (smaller) evaluated results;
        pinning whole local collections into it would balloon the wire form.
        """
        from repro.algebra import PlanBuilder
        from repro.mqp import MutantQueryPlan
        from repro.mqp.processor import MQPProcessor

        selective = (
            PlanBuilder.url("seller1:9020", "/cds")
            .select("price < 10")
            .display("client:9020")
        )
        assert not MQPProcessor._is_bare_union_plan(MutantQueryPlan(selective))
        bare = (
            PlanBuilder.url("seller1:9020", "/cds")
            .union(PlanBuilder.url("seller2:9020", "/cds"))
            .display("client:9020")
        )
        assert MQPProcessor._is_bare_union_plan(MutantQueryPlan(bare))

    def test_a_bare_union_streams_the_completed_answer(self):
        with overrides(streaming_results=True):
            with _chunked_cluster("sim") as cluster:
                client = cluster.session("client:9020")
                handle = client.query().area(portland_area(cluster)).submit()
                titles = [item.child_text("title") for item in handle.items(timeout=4_000_000)]
                assert sorted(titles) == ["Abbey Road", "Blue Train", "Kind of Blue"]
