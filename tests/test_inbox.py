"""Results arriving home on their own: the inbox over a gather, no network."""

import pytest

from recording_node import RecordingNode, frame
from repro.peers.gather import ResultGather
from repro.peers.inbox import ResultInbox
from repro.peers.parts import Cancellations
from repro.peers.transfers import Transfers


def result(query_id: str = "q", partial: bool = False, **more):
    envelope = {
        "query_id": query_id, "partial": partial, "branch": "", "credit": "1",
        "document": "<result><item/><item/></result>", "items": 2, **more,
    }
    return frame("partial-result" if partial else "result", envelope)


@pytest.fixture()
def inbox():
    node = RecordingNode()
    return ResultInbox(node, Transfers(node), ResultGather(), Cancellations())


class TestInbox:
    def test_a_result_frame_is_gathered_and_announced(self, inbox):
        arrivals = []
        inbox.gather.watch("q", arrivals.append)
        inbox.on_result(result())
        recorded = inbox.gather.results["q"]
        assert not recorded.partial and recorded.count == 2 and arrivals == [recorded]
        trace = inbox.port.metrics.trace("q")
        assert (trace.answers, trace.completed_at) == (2, 0.0)

    def test_a_cancelled_query_records_nothing(self, inbox):
        inbox.cancelled.add("q")
        inbox.on_result(result())
        assert "q" not in inbox.gather.results

    def test_failure_records_on_an_envelope_are_kept_for_the_issuer(self, inbox):
        inbox.on_result(result(failures=[{"hop": "a:1", "peer": "b:1"}]))
        assert inbox.transfers.delivery_failures["q"] == [{"hop": "a:1", "peer": "b:1"}]

    def test_a_partial_frame_is_announced_and_the_watchers_stay(self, inbox):
        arrivals = []
        inbox.gather.watch("q", arrivals.append)
        inbox.on_result(result(partial=True, reason="stuck"))
        assert [(each.partial, each.reason, each.count) for each in arrivals] == [
            (True, "stuck", 2)
        ]
        assert "q" in inbox.gather.watchers  # a partial is not the last word

    def test_a_complete_frame_supersedes_the_partial_of_its_branch(self, inbox):
        inbox.on_result(result(partial=True))
        inbox.on_result(frame("result", {
            "query_id": "q", "branch": "", "credit": "1",
            "document": "<result><item/><item/><item/></result>", "items": 3,
        }))
        recorded = inbox.gather.results["q"]
        assert not recorded.partial and recorded.count == 3
        assert inbox.port.metrics.trace("q").answers == 3

    def test_a_frame_after_the_answer_is_neither_announced_nor_absorbed(self, inbox):
        arrivals = []
        inbox.gather.watch("q", arrivals.append)
        inbox.on_result(result())
        answer = inbox.gather.results["q"]
        inbox.on_result(result(failures=[{"hop": "a:1", "peer": "b:1"}]))
        inbox.on_result(result(partial=True))
        assert inbox.gather.results["q"] is answer and len(arrivals) == 1
        assert "q" not in inbox.transfers.delivery_failures

    def test_two_half_credit_pieces_gather_into_one_answer(self, inbox):
        arrivals = []
        inbox.gather.watch("q", arrivals.append)
        inbox.on_result(result(branch="3.1", credit="1/2"))
        assert inbox.gather.results["q"].partial and inbox.gather.pending() == ["q"]
        inbox.on_result(result(branch="3.0", credit="1/2"))
        recorded = inbox.gather.results["q"]
        assert not recorded.partial and recorded.count == 4
        assert [each.partial for each in arrivals] == [True, False]
        assert inbox.gather.pending() == []

    def test_a_piece_of_a_rival_grouping_is_dropped(self, inbox):
        inbox.on_result(result(branch="3.0", credit="1/2"))
        inbox.on_result(result(branch="4.1", credit="1/2"))
        assert inbox.gather.dropped == 1
        assert inbox.gather.results["q"].partial and inbox.gather.results["q"].count == 2

    @pytest.mark.parametrize(
        "bad",
        [{"credit": "0"}, {"credit": "3/2"}, {"branch": "1"}, {"reason": "bored"}],
        ids=["no-credit", "over-credit", "odd-branch", "unknown-reason"],
    )
    def test_an_unreadable_envelope_is_dropped_and_counted(self, inbox, bad):
        inbox.on_result(result(**bad))
        assert inbox.gather.dropped == 1 and "q" not in inbox.gather.results
        assert inbox.port.metrics.trace("q").completed_at is None

    def test_the_count_comes_from_the_document_when_the_envelope_has_none(self, inbox):
        envelope = {"query_id": "q", "document": "<result><a/><b/><c/></result>"}
        inbox.on_result(frame("result", envelope))
        recorded = inbox.gather.results["q"]
        assert recorded.count == 3 and [item.tag for item in recorded.items] == ["a", "b", "c"]

    def test_the_trace_is_stamped_on_the_ports_clock(self, inbox):
        inbox.port.clock = 42.5
        inbox.on_result(result())
        assert inbox.port.metrics.trace("q").completed_at == 42.5
        assert inbox.gather.results["q"].received_at == 42.5

    @pytest.mark.parametrize("reliable", [False, True], ids=["fire-and-forget", "reliable"])
    def test_the_inbox_sends_nothing_on_either_fabric(self, reliable):
        # Acknowledging a transfer is the peer's job before the frame reaches
        # the inbox; taking a result in sends no frame of its own.
        node = RecordingNode(reliable=reliable)
        inbox = ResultInbox(node, Transfers(node), ResultGather(), Cancellations())
        inbox.on_result(result())
        assert node.sent == [] and node.timers == []
        assert not inbox.gather.results["q"].partial
