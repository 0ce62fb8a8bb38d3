"""Chunked results on their own: the producer and the inbox, no network."""

import pytest

from recording_node import RecordingNode, frame
from repro.errors import PeerError
from repro.peers.gather import ResultGather
from repro.peers.parts import Cancellations
from repro.peers.streams import ResultInbox, ResultStreams
from repro.peers.transfers import Transfers
from repro.xmlmodel import XMLElement, parse_xml, serialize_xml, text_element


def items(*titles: str) -> list[XMLElement]:
    return [XMLElement("item", {}, [text_element("title", title)]) for title in titles]


def closing(query_id: str = "q", branch: str = "", credit: str = "1") -> dict:
    return {"query_id": query_id, "partial": False, "branch": branch, "credit": credit}


def chunk(query_id: str, stream: str, seq: int, *titles: str):
    document = serialize_xml(XMLElement("result-chunk", {}, items(*titles)))
    envelope = {"document": document, "query_id": query_id, "stream": stream, "seq": seq}
    return frame("result-chunk", envelope)


def end(query_id: str, stream: str, seq: int, total: int, **more):
    envelope = {**closing(query_id), "stream": stream, "seq": seq, "items_total": total, **more}
    return frame("result-end", envelope)


@pytest.fixture()
def node():
    return RecordingNode()


@pytest.fixture()
def inbox(node):
    return ResultInbox(node, Transfers(node), ResultGather(), Cancellations())


class TestProducer:
    def test_one_chunk_per_event_then_an_end_frame_that_counts_them(self, node):
        streams = ResultStreams(node, Transfers(node), chunk_items=2)
        streams.start(closing("q", branch="7.0", credit="1/2"), items("a", "b", "c"), "them:9020")
        assert node.kinds() == ["result-chunk"] and ("q", "7.0") in streams.open
        node.fire()
        node.fire()
        assert node.kinds() == ["result-chunk", "result-chunk", "result-end"]
        assert not streams.open and not node.timers
        first, second, last = (message.payload for message in node.sent)
        assert (first["seq"], second["seq"], last["seq"]) == (0, 1, 2)
        assert len(parse_xml(first["document"]).children) == 2
        assert last["items_total"] == 3 and last["credit"] == "1/2" and last["branch"] == "7.0"
        assert first["stream"] == second["stream"] == last["stream"] == "me:9020/1"
        assert node.metrics.trace("q").messages == 3

    def test_a_newer_delivery_of_the_same_piece_supersedes_the_open_stream(self, node):
        streams = ResultStreams(node, Transfers(node), chunk_items=1)
        closed = []

        def partial_items():
            try:
                yield from items("p0", "p1")
            finally:
                closed.append(True)

        streams.start(closing(), partial_items(), "them:9020")
        streams.start(closing(), items("full"), "them:9020")
        assert closed and streams.open[("q", "")].stream == "me:9020/2"
        node.fire()  # the superseded stream's pump event: a no-op
        assert [m.payload["stream"] for m in node.sent] == ["me:9020/1", "me:9020/2"]

    def test_cancel_or_going_offline_closes_the_stream_at_the_next_pump(self, node):
        cancelled = set()
        streams = ResultStreams(node, Transfers(node), cancelled, chunk_items=1)
        streams.start(closing("q1"), items("a", "b"), "them:9020")
        streams.start(closing("q2"), items("a", "b"), "them:9020")
        cancelled.add("q1")
        node.fire()
        node.online = False
        node.fire()
        assert not streams.open and node.kinds() == ["result-chunk", "result-chunk"]

    def test_close_all_matches_by_query_and_by_stream_token(self, node):
        streams = ResultStreams(node, Transfers(node), chunk_items=1)
        for query_id in ("q1", "q2", "q3"):
            streams.start(closing(query_id), items("a", "b"), "them:9020")
        streams.close_all("q1", "me:9020/9")  # a stale token: nothing closes
        assert len(streams.open) == 3
        streams.close_all("q1", "me:9020/1")
        streams.close_all("q2")
        assert list(streams.open) == [("q3", "")]
        streams.close_all()
        assert not streams.open


class TestInbox:
    def test_an_end_frame_that_overtakes_its_chunks_waits_for_them(self, inbox):
        inbox.on_frame(end("q", "s/1", 2, 3))
        inbox.on_frame(chunk("q", "s/1", 1, "c"))
        assert "q" not in inbox.gather.results and ("q", "s/1") in inbox.assemblies
        inbox.on_frame(chunk("q", "s/1", 0, "a", "b"))
        recorded = inbox.gather.results["q"]
        assert not recorded.partial and recorded.count == 3
        assert not inbox.assemblies and not inbox.buffers  # answered: nothing kept
        assert inbox.port.metrics.trace("q").answers == 3

    def test_an_end_frame_that_miscounts_its_items_is_an_error(self, inbox):
        inbox.on_frame(chunk("q", "s/1", 0, "a"))
        with pytest.raises(PeerError, match="with 2 item"):
            inbox.on_frame(end("q", "s/1", 1, 2))

    def test_a_partial_delivery_keeps_its_buffer_until_a_complete_one_supersedes_it(self, inbox):
        seen = []
        inbox.gather.watch("q", lambda result: seen.append((result.partial, result.count)))
        inbox.on_frame(chunk("q", "s/1", 0, "stuck"))
        inbox.on_frame(end("q", "s/1", 1, 1, partial=True, reason="stuck"))
        assert inbox.gather.results["q"].reason == "stuck" and not inbox.assemblies
        assert [item.child_text("title") for item in inbox.items("q")] == ["stuck"]
        inbox.on_frame(chunk("q", "s/2", 0, "whole", "answer"))
        inbox.on_frame(end("q", "s/2", 1, 2))
        assert seen == [(True, 1), (False, 2)] and inbox.items("q") == []

    def test_a_cloned_chunk_is_dropped_only_when_faults_are_injected(self, inbox):
        inbox.on_frame(chunk("q", "s/1", 0, "a"))
        with pytest.raises(PeerError, match="duplicate result-chunk 0"):
            inbox.on_frame(chunk("q", "s/1", 0, "a"))
        inbox.port.injecting_faults = True
        inbox.on_frame(chunk("q", "s/1", 0, "a"))
        assert inbox.transfers.duplicates_dropped == 1 and len(inbox.items("q")) == 1

    def test_an_end_frame_of_a_cancelled_query_drops_what_was_held(self, inbox):
        inbox.on_frame(chunk("q", "s/1", 0, "a"))
        inbox.cancelled.add("q")
        inbox.on_frame(end("q", "s/1", 1, 1))
        assert not inbox.assemblies and not inbox.buffers and "q" not in inbox.gather.results
        assert not inbox.port.sent  # only a *chunk* of a cancelled query is answered

    def test_failure_records_on_an_envelope_are_kept_for_the_issuer(self, inbox):
        inbox.on_frame(end("q", "s/1", 0, 0, failures=[{"hop": "a:1", "peer": "b:1"}]))
        assert inbox.transfers.delivery_failures["q"] == [{"hop": "a:1", "peer": "b:1"}]
