"""Reliable transfer on its own: no network, a recording node, timers fired by hand."""

import pytest

from recording_node import RecordingNode, frame
from repro.peers.transfers import Transfers
from repro.perf import overrides


@pytest.fixture()
def node():
    return RecordingNode()


def reliable(node, **kwargs) -> Transfers:
    return Transfers(node, **kwargs)


class TestSending:
    def test_fire_and_forget_keeps_no_state_and_stamps_nothing(self, node):
        transfers = reliable(node)
        sent = transfers.send("them:9020", "mqp", "<plan/>", 7, "q1")
        assert sent.transfer is None and not transfers.pending and not node.timers

    def test_every_attempt_backs_off_and_the_budget_ends_in_one_failure(self, node):
        failures = []
        transfers = reliable(node, failed=lambda dead, message: failures.append((dead, message)))
        budget = transfers.retry_policy.budget
        with overrides(reliable_delivery=True):
            first = transfers.send("them:9020", "result", {"query_id": "q1"}, 40, "q1")
            assert first.transfer == "me:9020#1" and first.attempt == 0
            delays = []
            for attempt in range(1, budget + 1):
                delays.append(node.timers[0].delay)
                node.fire()
                assert node.sent[-1].attempt == attempt
                assert node.sent[-1].transfer == first.transfer
            delays.append(node.timers[0].delay)
            node.fire()  # the budget is spent: no further send
        assert delays == sorted(delays) and len(set(delays)) == len(delays)
        assert transfers.retries_sent == budget and len(node.sent) == budget + 1
        assert transfers.transfers_failed == 1 and not transfers.pending and not node.timers
        [(dead, undelivered)] = failures
        assert dead == "them:9020" and undelivered is node.sent[-1]
        [record] = transfers.delivery_failures["q1"]
        assert record["attempts"] == budget + 1 and record["peer"] == "them:9020"
        assert record["hop"] == "me:9020" and record["kind"] == "result"

    def test_an_ack_stands_the_timer_down_and_a_late_one_is_ignored(self, node):
        transfers = reliable(node)
        with overrides(reliable_delivery=True):
            sent = transfers.send("them:9020", "mqp", "<plan/>", 7, "q1")
        transfers.stand_down(sent.transfer)
        assert not transfers.pending and node.timers[0].cancelled
        transfers.stand_down(sent.transfer)  # the duplicate of the ack
        transfers.stand_down(None)  # a bounced message that carried no transfer id

    def test_cancel_stops_only_the_named_querys_transfers(self, node):
        transfers = reliable(node)
        with overrides(reliable_delivery=True):
            transfers.send("a:1", "mqp", "<plan/>", 7, "q1")
            transfers.send("b:1", "delta-chunk", {}, 7, "sub1")
            transfers.send("c:1", "result", {}, 7, "q1")
        transfers.cancel("q1")
        assert [state.key for state in transfers.pending.values()] == ["sub1"]
        assert [timer.cancelled for timer in node.timers] == [True, False, True]

    def test_a_retry_is_dropped_once_offline_or_cancelled(self, node):
        cancelled = set()
        transfers = reliable(node, cancelled=cancelled)
        with overrides(reliable_delivery=True):
            transfers.send("a:1", "mqp", "<plan/>", 7, "q1")
            transfers.send("b:1", "mqp", "<plan/>", 7, "q2")
            cancelled.add("q1")
            node.fire()
            node.online = False
            node.fire()
        assert len(node.sent) == 2 and not transfers.pending
        assert transfers.retries_sent == 0 and transfers.transfers_failed == 0

    def test_a_traced_send_is_charged_to_the_query_once(self, node):
        transfers = reliable(node)
        with overrides(reliable_delivery=True):
            transfers.send_traced("them:9020", "mqp", "<plan/>", 70, "q1")
            node.fire()  # the retransmission is not charged again
        trace = node.metrics.trace("q1")
        assert (trace.messages, trace.bytes) == (1, 70)


class TestReceiving:
    def test_every_attempt_is_acked_and_only_the_first_copy_accepted(self, node):
        transfers = reliable(node)
        assert transfers.accept(frame("mqp", "<plan/>"))  # unstamped: nothing to do
        assert not node.sent
        assert transfers.accept(frame("mqp", "<plan/>", transfer="them:9020#4"))
        assert not transfers.accept(frame("mqp", "<plan/>", transfer="them:9020#4", attempt=1))
        assert [(m.kind, m.recipient, m.payload) for m in node.sent] == [
            ("delivery-ack", "them:9020", "them:9020#4")
        ] * 2
        assert transfers.acks_sent == 2 and transfers.duplicates_dropped == 1

    def test_the_dedupe_window_forgets_the_oldest_transfer(self, node, monkeypatch):
        monkeypatch.setattr(Transfers, "DEDUPE_MEMORY", 2)
        transfers = reliable(node)
        for name in ("t1", "t2", "t3"):
            assert transfers.accept(frame("mqp", "<plan/>", transfer=name))
        assert list(transfers.seen) == ["t2", "t3"]
        assert not transfers.accept(frame("mqp", "<plan/>", transfer="t2"))  # still remembered
        assert transfers.accept(frame("mqp", "<plan/>", transfer="t1"))  # evicted: taken again


class TestFailureRecordsAndDeadLetters:
    def test_failure_records_travel_with_the_answer_and_are_bounded(self, node, monkeypatch):
        monkeypatch.setattr(Transfers, "FAILURE_MEMORY", 2)
        upstream, target = reliable(node), reliable(node)
        upstream.record_failure("q1", {"hop": "a", "peer": "b"})
        upstream.record_failure("q1", {"hop": "a", "peer": "b"})  # the same hop again
        envelope = {"query_id": "q1"}
        upstream.attach_failures(envelope)
        assert envelope["failures"] == [{"hop": "a", "peer": "b"}]
        target.absorb_failures(envelope)
        target.absorb_failures({"query_id": "q2", "failures": [{"hop": "c"}]})
        target.absorb_failures({"query_id": "q3", "failures": [{"hop": "d"}]})
        assert list(target.delivery_failures) == ["q2", "q3"]  # q1 evicted, oldest first
        untouched = {"query_id": "q9"}
        target.attach_failures(untouched)
        assert "failures" not in untouched

    def test_dead_letters_keep_a_window_and_an_exact_count(self, node):
        transfers = reliable(node)
        transfers.dead_letters.cap = 2
        letters = [frame(kind, None) for kind in ("result", "result", "register-ack")]
        for letter in letters:
            transfers.dead_letter(letter)
        assert len(transfers.dead_letters) == 3 and list(transfers.dead_letters) == letters[1:]
        assert transfers.dead_letters[-1] is letters[-1]
        assert transfers.dead_letters.by_kind == {"result": 2, "register-ack": 1}
        assert node.metrics.dead_letters_by_kind == {"result": 2, "register-ack": 1}
