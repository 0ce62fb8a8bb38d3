"""A node with no network: the port the peer components are unit-tested against.

``send`` records the message instead of routing it, ``schedule`` keeps the
timer for the test to fire by hand, ``now`` is a settable number, the link
rate is :class:`~repro.network.latency.LatencyModel`'s default, and
``reliable`` says whether the fabric it stands in for acknowledges and
retransmits query traffic.  Import as
``from recording_node import RecordingNode`` (pytest puts ``tests/`` on
``sys.path``).
"""

from __future__ import annotations

from repro.network.message import Message
from repro.network.metrics import NetworkMetrics
from repro.network.node import NetworkNode


class Timer:
    def __init__(self, delay, callback):
        self.delay, self.callback, self.cancelled = delay, callback, False

    def cancel(self):
        self.cancelled = True


class RecordingNode(NetworkNode):
    reliable = False  # a plain attribute here, settable per node

    def __init__(self, address: str = "me:9020", reliable: bool = False) -> None:
        super().__init__(address)
        self.clock = 0.0
        self.sent: list[Message] = []
        self.timers: list[Timer] = []
        self.reliable = reliable
        self.ledger = NetworkMetrics()

    now = property(lambda self: self.clock)
    connected = property(lambda self: self.online)
    metrics = property(lambda self: self.ledger)

    def send(self, recipient, kind, payload=None, size_bytes=256, hop=0, transfer=None,
             attempt=0):
        message = Message(self.address, recipient, kind, payload, size_bytes,
                          transfer=transfer, attempt=attempt)
        self.sent.append(message)
        return message

    def transfer_time(self, size_bytes):
        return size_bytes / 1_000.0

    def schedule(self, delay, callback):
        self.timers.append(Timer(delay, callback))
        return self.timers[-1]

    def kinds(self) -> list[str]:
        """The kinds sent so far, oldest first."""
        return [message.kind for message in self.sent]

    def fire(self) -> None:
        """Run the oldest timer that is still armed (a cancelled one is skipped)."""
        while self.timers:
            timer = self.timers.pop(0)
            if not timer.cancelled:
                self.clock += timer.delay
                timer.callback()
                return
        raise AssertionError("no timer is armed")


def frame(kind: str, payload, sender: str = "them:9020", transfer=None, attempt=0) -> Message:
    """A message as it arrives at the node under test."""
    return Message(sender, "me:9020", kind, payload, transfer=transfer, attempt=attempt)
