"""Results on their way home: chunked streams out, reassembly and arrival in.

Message kinds handled here:

``result`` / ``partial-result``
    A (possibly partial) result arriving at its target in one frame: the
    answer of one piece, echoing the piece's branch path and credit.  The
    target's :class:`~repro.peers.gather.ResultGather` keeps pieces per
    path and calls the answer final when the credits sum to exactly 1.
``result-chunk`` / ``result-end``
    The chunked result protocol (``flags.streaming_results``): the
    answering peer pumps the result out as a sequence of small framed
    chunks with per-stream sequence numbers, closed by a ``result-end``
    carrying the metadata the single ``result`` frame used to carry.

:class:`ResultStreams` is the producer, :class:`ResultInbox` the receiver.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Container, Iterator, Sequence

from ..errors import PeerError
from ..network.message import Message
from ..network.node import NetworkNode
from ..xmlmodel import XMLElement, parse_xml, serialize_xml, utf8_len
from .gather import ResultGather, ResultItems, ResultPiece
from .parts import Cancellations, InOrder, Watchers, insert_capped
from .transfers import Transfers

__all__ = ["ResultStream", "ResultStreams", "ChunkAssembly", "ResultInbox"]


@dataclass
class ResultStream:
    """Producer-side state of one chunked result delivery."""

    query_id: str
    target: str
    iterator: Iterator[XMLElement]
    stream: str
    closing: dict  # what the result-end frame says once the chunks are out
    seq: int = 0
    sent_items: int = 0


@dataclass(slots=True, eq=False, repr=False)
class ResultStreams:
    """The chunked deliveries this peer is pumping out, keyed (query, branch):
    a peer may be answering several pieces of one scattered query at once."""

    port: NetworkNode
    transfers: Transfers
    cancelled: Container[str] = ()
    chunk_items: int = 64
    open: dict[tuple[str, str], ResultStream] = field(default_factory=dict)
    _counter: int = field(default=0, init=False)

    def start(self, closing: dict, items: Sequence[XMLElement], target: str) -> None:
        """Open a chunked delivery: the result leaves as framed chunks.

        ``closing`` is the metadata the ``result-end`` frame will carry.
        The stream token distinguishes deliveries when one piece of a query
        is answered more than once (a partial from a stuck copy, then the
        complete answer): the receiver reassembles per stream, never mixing
        two deliveries' items.
        """
        key = (closing["query_id"], closing["branch"])
        # A newer delivery supersedes any stream still pumping for this
        # piece: close its iterator instead of silently truncating it.
        self.close(key)
        self._counter += 1
        state = ResultStream(
            query_id=closing["query_id"],
            target=target,
            iterator=iter(items),
            stream=f"{self.port.address}/{self._counter}",
            closing=closing,
        )
        self.open[key] = state
        self.pump(key, state.stream)

    def pump(self, key: tuple[str, str], stream: str) -> None:
        """Send the next chunk of an open stream, or close it with result-end.

        Each chunk is its own framed message on the wire, and the next pump
        is a fresh event on the logical clock — so a bounded receiving
        inbox (the aio backend) exerts backpressure between chunks, and a
        cancel notice arriving mid-stream tears the iterator down before
        the remaining chunks are produced.
        """
        state = self.open.get(key)
        if state is None or state.stream != stream:
            # A stale pump event: its stream was torn down (or superseded
            # by a newer delivery, which drives its own pump chain — one
            # chunk per logical event, never two).
            return
        query_id = state.query_id
        if not self.port.connected or query_id in self.cancelled:
            self.close(key)
            return
        chunk = list(islice(state.iterator, self.chunk_items))
        if chunk:
            payload = serialize_xml(
                XMLElement("result-chunk", {"query-id": query_id, "seq": str(state.seq)}, chunk)
            )
            envelope = {
                "document": payload,
                "query_id": query_id,
                "stream": state.stream,
                "seq": state.seq,
            }
            self.transfers.send_traced(
                state.target, "result-chunk", envelope, utf8_len(payload), query_id
            )
            state.seq += 1
            state.sent_items += len(chunk)
            self.port.schedule(0.0, lambda: self.pump(key, stream))
            return
        envelope = {
            **state.closing,
            "stream": state.stream,
            "seq": state.seq,
            "items_total": state.sent_items,
        }
        self.transfers.attach_failures(envelope)
        self.transfers.send_traced(state.target, "result-end", envelope, 128, query_id)
        self.open.pop(key, None)

    def close(self, key: tuple[str, str]) -> None:
        """Tear one stream down, closing the iterator that feeds it."""
        state = self.open.pop(key, None)
        if state is not None:
            close = getattr(state.iterator, "close", None)
            if close is not None:
                close()

    def close_all(self, query_id: str | None = None, stream: str | None = None) -> None:
        """Close every open stream — or only a query's, or the one with this token.

        Matching by token matters when the close is triggered by a bounced
        frame: a stale bounce from an already-superseded delivery must not
        kill the live successor (the hazard :meth:`pump` guards too).
        """
        for key, state in list(self.open.items()):
            if query_id in (None, key[0]) and stream in (None, state.stream):
                self.close(key)


class ChunkAssembly(InOrder[list[XMLElement]]):
    """Receiver-side reassembly of one chunked delivery.

    Chunks are released to the arrival buffer (and the chunk watchers)
    strictly in sequence, and a ``result-end`` that overtakes its chunks is
    stashed until the sequence is complete.  Each assembly owns its own
    released-item list, so two deliveries for the same query — even
    interleaved — reassemble independently.
    """

    __slots__ = ("stream", "items", "end")

    def __init__(self, stream: str) -> None:
        super().__init__()
        self.stream = stream
        self.items: list[XMLElement] = []  # released, in order
        self.end: dict | None = None  # a result-end envelope that arrived early


@dataclass(slots=True, eq=False, repr=False)
class ResultInbox:
    """Result frames arriving at their target: reassembled, then gathered.

    ``watchers`` are the chunk watchers (how ``QueryHandle.items()``
    streams): ``callback(items, stream)`` per released chunk, where a
    change of stream token means a new delivery superseded the previous
    one.  ``assemblies`` and ``buffers`` (the released items per query)
    are bounded by ``memory``; a cancelled or answered query keeps neither.
    """

    port: NetworkNode
    transfers: Transfers
    gather: ResultGather
    cancelled: Cancellations
    memory: int = 1024
    watchers: Watchers = field(default_factory=Watchers)
    # Keyed (query, stream): concurrent deliveries for one query (a partial
    # from a stuck branch interleaved with the complete answer) reassemble
    # independently instead of clobbering each other.
    assemblies: dict[tuple[str, str], ChunkAssembly] = field(default_factory=dict)
    buffers: dict[str, list[XMLElement]] = field(default_factory=dict)

    def items(self, query_id: str) -> list[XMLElement]:
        """Every chunk item received so far for ``query_id`` (arrival order)."""
        return list(self.buffers.get(query_id, ()))

    def drop(self, query_id: str) -> None:
        """Forget a query's reassembly state and arrival buffer."""
        self.buffers.pop(query_id, None)
        for key in [key for key in self.assemblies if key[0] == query_id]:
            del self.assemblies[key]

    def on_result(self, message: Message) -> None:
        """A ``result`` / ``partial-result`` frame: one piece, whole."""
        envelope: dict = message.payload
        if envelope["query_id"] in self.cancelled:
            return  # the issuer no longer wants this answer
        # Counted now, parsed when (and if) somebody reads the answer.
        self.record(envelope, ResultItems.of_document(envelope["document"], envelope.get("items")))

    def on_frame(self, message: Message) -> None:
        """A ``result-chunk`` or ``result-end`` frame of a chunked delivery."""
        envelope: dict = message.payload
        query_id = envelope["query_id"]
        ending = message.kind == "result-end"
        if query_id in self.cancelled:
            # Upstream teardown, driven by arriving traffic: tell the
            # producer to close its stream instead of pumping the rest.
            if ending:
                self.drop(query_id)
            elif self.cancelled.first_notice(query_id, message.sender):
                self.port.send(message.sender, "cancel-query", query_id, size_bytes=64)
            return
        if self.gather.is_answered(query_id):
            return
        key = (query_id, str(envelope.get("stream", message.sender)))
        assembly = self.assemblies.get(key) or ChunkAssembly(key[1])
        # Each arrival refreshes recency, so under the cap the eviction
        # victim is always a stream whose producer went quiet mid-delivery.
        # Past it (more than ``memory`` deliveries reassembling at once) the
        # least-recently-fed live stream is abandoned too: bounded memory
        # wins over completeness, and the waiting handle degrades exactly as
        # if the producer had died (idle → partial answer or QueryTimeout).
        insert_capped(self.assemblies, key, assembly, self.memory, self._evicted)
        if ending:
            assembly.end = envelope  # if it overtook its chunks, they close it below
        else:
            seq = int(envelope.get("seq", 0))
            if assembly.seen(seq):
                # Reliable transfers are deduped before dispatch, so only a
                # frame the fault injector cloned gets this far: dropped and
                # counted when faults are on, a protocol error otherwise.
                if not self.port.faulty:
                    raise PeerError(
                        f"{self.port.address}: duplicate result-chunk {seq} for query {query_id!r}"
                    )
                self.transfers.duplicates_dropped += 1
                return
            for items in assembly.push(seq, list(parse_xml(envelope["document"]).children)):
                assembly.items.extend(items)
                if self.buffers.get(query_id) is not assembly.items:
                    # The arrival buffer mirrors whichever delivery released
                    # most recently — always one delivery's in-order items,
                    # never a mix of interleaved streams.  Buffers of degraded
                    # (partial) answers a long-running issuer accumulates are
                    # bounded exactly like the reassembly state.
                    insert_capped(self.buffers, query_id, assembly.items, self.memory)
                self.watchers.notify(query_id, items, assembly.stream)
        end = assembly.end
        if end is None or assembly.next_seq < int(end.get("seq", 0)):
            return
        self.assemblies.pop(key, None)
        announced = int(end.get("items_total", len(assembly.items)))
        if len(assembly.items) != announced:
            raise PeerError(
                f"{self.port.address}: result-end for query {query_id!r} closes stream "
                f"{assembly.stream!r} with {announced} item(s), "
                f"but {len(assembly.items)} arrived"
            )
        self.record(end, assembly.items)

    def _evicted(self, key: tuple[str, str]) -> None:
        if not any(other[0] == key[0] for other in self.assemblies):
            self.buffers.pop(key[0], None)

    def record(self, envelope: dict, items: Sequence[XMLElement]) -> None:
        """Hand one arrived result envelope to the gather and announce its verdict."""
        query_id = envelope["query_id"]
        if self.gather.is_answered(query_id):
            # A complete result is terminal: a straggling partial from a
            # slower relay path (or a duplicate) must not overwrite it.
            return
        self.transfers.absorb_failures(envelope)
        now = self.port.now
        outcome = self.gather.offer(query_id, ResultPiece.from_envelope(envelope, items), now)
        if outcome is None:
            return  # malformed, a duplicate, or a branch already accounted for
        arrival, recorded = outcome
        if not recorded.partial:
            # The query is answered: any delivery still reassembling (a
            # superseded stream the producer tore down) is stale.
            self.drop(query_id)
        trace = self.port.metrics.trace(query_id)
        trace.completed_at = now
        trace.answers = recorded.count
        self.gather.watchers.notify(query_id, arrival, last=not arrival.partial)
