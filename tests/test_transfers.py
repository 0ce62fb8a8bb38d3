"""Reliable transfer on its own: no network, a recording node, timers fired by hand."""

import pytest

from recording_node import RecordingNode, frame
from repro.peers.transfers import Transfers


@pytest.fixture()
def node():
    return RecordingNode(reliable=True)


class TestSending:
    def test_fire_and_forget_keeps_no_state_and_stamps_nothing(self):
        node = RecordingNode()
        transfers = Transfers(node)
        sent = transfers.send("them:9020", "mqp", "<plan/>", 7, "q1")
        assert sent.transfer is None and not transfers.pending and not node.timers

    def test_every_attempt_backs_off_and_the_budget_ends_in_one_failure(self, node):
        failures = []
        transfers = Transfers(node, failed=lambda dead, message: failures.append((dead, message)))
        budget = transfers.retry_policy.budget
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
        assert delays[:-1] == sorted(delays[:-1]) and len(set(delays)) == len(delays)
        assert node.clock == pytest.approx(transfers.retry_policy.horizon_ms)  # last wait clipped
        assert transfers.retries_sent == budget and len(node.sent) == budget + 1
        assert transfers.transfers_failed == 1 and not transfers.pending and not node.timers
        [(dead, undelivered)] = failures
        assert dead == "them:9020" and undelivered is node.sent[-1]
        [record] = transfers.delivery_failures["q1"]
        assert record["attempts"] == budget + 1 and record["peer"] == "them:9020"
        assert record["hop"] == "me:9020" and record["kind"] == "result"

    def test_an_ack_stands_the_timer_down_and_a_late_one_is_ignored(self, node):
        transfers = Transfers(node)
        sent = transfers.send("them:9020", "mqp", "<plan/>", 7, "q1")
        transfers.stand_down(sent.transfer)
        assert not transfers.pending and node.timers[0].cancelled
        transfers.stand_down(sent.transfer)  # the duplicate of the ack
        transfers.stand_down(None)  # a bounced message that carried no transfer id

    def test_cancel_stops_only_the_named_querys_transfers(self, node):
        transfers = Transfers(node)
        transfers.send("a:1", "mqp", "<plan/>", 7, "q1")
        transfers.send("b:1", "delta-chunk", {}, 7, "sub1")
        transfers.send("c:1", "result", {}, 7, "q1")
        transfers.cancel("q1")
        assert [state.key for state in transfers.pending.values()] == ["sub1"]
        assert [timer.cancelled for timer in node.timers] == [True, False, True]

    def test_a_retry_is_dropped_once_offline_or_cancelled(self, node):
        cancelled = set()
        transfers = Transfers(node, cancelled=cancelled)
        transfers.send("a:1", "mqp", "<plan/>", 7, "q1")
        transfers.send("b:1", "mqp", "<plan/>", 7, "q2")
        cancelled.add("q1")
        node.fire()
        node.online = False
        node.fire()
        assert len(node.sent) == 2 and not transfers.pending
        assert transfers.retries_sent == 0 and transfers.transfers_failed == 0

    def test_a_traced_send_is_charged_to_the_query_once(self, node):
        transfers = Transfers(node)
        transfers.send_traced("them:9020", "mqp", "<plan/>", 70, "q1")
        node.fire()  # the retransmission is not charged again
        trace = node.metrics.trace("q1")
        assert (trace.messages, trace.bytes) == (1, 70)


class TestRetransmissionTimer:
    """RFC 6298 on the logical clock: the first retransmission waits for the
    recipient's measured round trip, the give-up horizon stays where it was."""

    RTT = 50.0

    @staticmethod
    def wait(node) -> float:
        """What the newest timer was armed with."""
        return node.timers[-1].delay

    def acked(self, node, transfers, rtt=RTT, size=1_000, recipient="them:9020") -> float:
        """One transfer acknowledged ``rtt`` (+ its own time on the link) after
        its first attempt; returns the wait it had been given."""
        sent = transfers.send(recipient, "mqp", "<plan/>", size, "q1")
        waited = self.wait(node)
        node.clock += rtt + node.transfer_time(size)
        transfers.acknowledged(sent.transfer)
        return waited

    def test_first_contact_waits_the_policys_timeout(self, node):
        transfers = Transfers(node)
        policy = transfers.retry_policy
        first = self.acked(node, transfers)
        other = self.acked(node, transfers, recipient="stranger:9020")
        for waited in (first, other):  # a round trip learned for one peer says nothing of another
            assert policy.timeout_ms <= waited < policy.timeout_ms + policy.jitter_ms

    def test_the_timeout_converges_on_the_round_trip_from_above(self, node):
        transfers = Transfers(node)
        policy = transfers.retry_policy
        widest = 1.0 + policy.jitter_ms / policy.timeout_ms  # jitter scales with the RTO
        waits = [self.acked(node, transfers) for _ in range(24)][1:]
        on_link = node.transfer_time(1_000)
        # One sample: SRTT = R, RTTVAR = R/2, so RTO = 3R; a steady link's
        # variance then decays and the RTO settles a margin above R.
        assert 3 * self.RTT + on_link <= waits[0] < (3 * self.RTT + on_link) * widest
        floors = [waited / widest for waited in waits]
        assert all(floor > self.RTT + on_link for floor in floors)  # never inside the round trip
        assert waits[-1] < 1.5 * self.RTT and waits[-1] < waits[0] / 2
        assert max(waits) < policy.timeout_ms + policy.jitter_ms

    def test_a_slow_peer_never_waits_longer_than_the_policys_timeout(self, node):
        transfers = Transfers(node)
        policy = transfers.retry_policy
        waits = [self.acked(node, transfers, rtt=10 * policy.timeout_ms) for _ in range(4)]
        assert all(waited < policy.timeout_ms + policy.jitter_ms for waited in waits)

    def test_the_ack_of_a_retransmitted_transfer_is_no_sample(self, node):
        transfers = Transfers(node)
        sent = transfers.send("them:9020", "mqp", "<plan/>", 1_000, "q1")
        node.fire()  # attempt 1 leaves: the ack may answer either copy (Karn)
        node.clock += 10.0
        transfers.acknowledged(sent.transfer)
        assert not transfers.pending and transfers.round_trips == {}

    def test_a_bounce_is_no_sample(self, node):
        transfers = Transfers(node)
        sent = transfers.send("them:9020", "mqp", "<plan/>", 1_000, "q1")
        node.clock += 5.0  # the network's unreachable notice, not an ack
        transfers.stand_down(sent.transfer)
        assert not transfers.pending and transfers.round_trips == {}

    def test_a_large_frame_is_given_its_own_time_on_the_link(self, node):
        transfers = Transfers(node)
        small = [self.acked(node, transfers, size=1_000) for _ in range(24)][-1]
        large = self.acked(node, transfers, size=64_000)
        after = self.acked(node, transfers, size=1_000)
        # The ack of 64 KB cannot be back before the frame is out (64 ms at
        # the modelled link rate) and the round trip has passed.
        assert large > node.transfer_time(64_000) + self.RTT > small
        assert after == pytest.approx(small, rel=0.2)  # and its sample was taken net of that

    def test_the_horizon_is_time_not_a_count(self, node):
        failures = []
        transfers = Transfers(node, failed=lambda dead, message: failures.append(dead))
        policy = transfers.retry_policy
        for _ in range(24):
            self.acked(node, transfers)
        started = node.clock
        transfers.send("them:9020", "result", {"query_id": "q1"}, 1_000, "q1")
        while transfers.pending:
            node.fire()
            if node.clock - started < 4_900.0:  # silent for 4.9 s: still being retried
                assert transfers.pending and not failures
        # Silent for 5.1 s: failed, once, with nothing left armed.
        silent_for = node.clock - started
        assert silent_for == pytest.approx(policy.horizon_ms) and 4_900.0 < silent_for < 5_100.0
        assert failures == ["them:9020"] and transfers.transfers_failed == 1
        assert all(timer.cancelled for timer in node.timers)
        assert node.sent[-1].attempt > policy.budget  # a short RTO: more attempts, not less time

    def test_the_round_trip_table_is_capped(self, node, monkeypatch):
        monkeypatch.setattr(Transfers, "RTT_MEMORY", 2)
        transfers = Transfers(node)
        for recipient in ("a:1", "b:1", "a:1", "c:1"):
            self.acked(node, transfers, recipient=recipient)
        assert list(transfers.round_trips) == ["a:1", "c:1"]  # b:1, the least recently heard, went


class TestReceiving:
    def test_every_attempt_is_acked_and_only_the_first_copy_accepted(self, node):
        transfers = Transfers(node)
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
        transfers = Transfers(node)
        for name in ("t1", "t2", "t3"):
            assert transfers.accept(frame("mqp", "<plan/>", transfer=name))
        assert list(transfers.seen) == ["t2", "t3"]
        assert not transfers.accept(frame("mqp", "<plan/>", transfer="t2"))  # still remembered
        assert transfers.accept(frame("mqp", "<plan/>", transfer="t1"))  # evicted: taken again


class TestFailureRecordsAndDeadLetters:
    def test_failure_records_travel_with_the_answer_and_are_bounded(self, node, monkeypatch):
        monkeypatch.setattr(Transfers, "FAILURE_MEMORY", 2)
        upstream, target = Transfers(node), Transfers(node)
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
        transfers = Transfers(node)
        transfers.dead_letters.cap = 2
        letters = [frame(kind, None) for kind in ("result", "result", "register-ack")]
        for letter in letters:
            transfers.dead_letter(letter)
        assert len(transfers.dead_letters) == 3 and list(transfers.dead_letters) == letters[1:]
        assert transfers.dead_letters[-1] is letters[-1]
        assert transfers.dead_letters.by_kind == {"result": 2, "register-ack": 1}
        assert node.metrics.dead_letters_by_kind == {"result": 2, "register-ack": 1}
