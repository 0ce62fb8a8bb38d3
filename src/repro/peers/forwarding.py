"""Plan forwarding: process an arriving plan, send its pieces on, keep custody.

Message kinds handled here:

``mqp``
    A serialized mutant query plan to process and route onward — whole,
    or, where a hop holds a union, scattered: one small plan per server
    that can reduce a group of its branches, each carrying its branch
    path and its share of the query's credit (and the original plan only
    while it holds a URN).  A complete answer leaves as the text it already
    is, under a new ``<result>`` root (:meth:`PlanForwarding.deliver`).
``referral`` (sent here, handled by the peer)
    The entry of the authoritative index a client's plan was sent on to, so
    the client's next query under that area skips this hop
    (:meth:`PlanForwarding._refer`).
``cancel-query``
    A query was cancelled at its issuer: the peer drops the plan if it
    arrives here, and the notice is passed to every next hop a piece of it
    was sent to (:meth:`PlanForwarding.cancel`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection

from ..algebra.operators import VerbatimData
from ..errors import URNError
from ..mqp import MQPProcessor, MutantQueryPlan, ProcessingResult, ProvenanceAction
from ..mqp.plan import format_branch
from ..namespace import InterestAreaURN, parse_urn
from ..network.message import Message
from ..network.node import NetworkNode
from ..xmlmodel import XMLElement, children_text, quoteattr, serialize_xml, utf8_len
from .parts import insert_capped
from .inbox import ResultInbox
from .transfers import Transfers

__all__ = ["PlanForwarding"]


@dataclass(slots=True, eq=False, repr=False)
class PlanForwarding:
    """One peer's hop of every plan that passes through it — the paper's loop
    (Fig. 2): bind, re-optimize, evaluate what can be evaluated here, send the
    rest on.  ``custody`` (bounded by ``memory`` queries) keeps every next hop a
    query's pieces left for — the fan-out a cancel notice must retrace — and,
    under reliable delivery, the pieces too, so they can be sent again."""

    port: NetworkNode
    processor: MQPProcessor
    transfers: Transfers
    inbox: ResultInbox
    cancelled: Collection[str] = ()
    suspected_dead: Collection[str] = ()
    memory: int = 4096
    plans_processed: int = 0
    plans_forwarded: int = 0
    plans_stuck: int = 0
    plans_rerouted: int = 0
    plans_cancelled: int = 0
    custody: dict[str, dict[str, list[str]]] = field(default_factory=dict)

    # -- arriving plans --------------------------------------------------------- #

    def on_mqp(self, message: Message) -> None:
        """A plan arrived: process it now — no timer sits on a query's path."""
        mqp = MutantQueryPlan.deserialize(message.payload)
        result = self.process(mqp)
        if result is not None and result.next_hop is not None and message.sender == mqp.target:
            self._refer(mqp, message.sender, result.next_hop)

    def process(self, mqp: MutantQueryPlan, rerouted: bool = False) -> ProcessingResult | None:
        """One hop of one plan: bind, optimize, evaluate, send the pieces on
        (``None``: the query was cancelled, the plan is dropped)."""
        if mqp.query_id in self.cancelled:
            self.plans_cancelled += 1
            return None
        if rerouted:
            self.plans_rerouted += 1
        else:
            self.plans_processed += 1
        self.port.metrics.trace(mqp.query_id).visited.append(self.port.address)
        result = self.processor.process(mqp, now=self.port.now, avoid=self.suspected_dead)
        self.processor.learn_from(mqp)
        self._act_on(result)
        return result

    def _refer(self, mqp: MutantQueryPlan, target: str, next_hop: str) -> None:
        """Tell a client whose plan goes on whole where its area is answered.

        ``mqp`` reached this hop straight from its ``target`` and leaves, whole,
        for ``next_hop``.  Where this catalog lists that server as an
        authoritative index covering every area the plan still asks for, the
        target is sent its entry and takes the next such query there itself
        (the paper's routing cache, §3.2).  Nobody keeps a "told" table: a
        client that has learned no longer arrives here first.  Not on the
        sharded tier — the shard map already names the owner, and a plan
        passes between two replicas only on failover or an empty-answer walk.
        """
        entry = self.processor.catalog.servers.get(next_hop)
        if entry is None or not entry.is_authority or self.processor.shard_map is not None:
            return
        try:
            asked = [parse_urn(urn) for urn in mqp.remaining_urns()]
        except URNError:
            return
        if asked and all(
            isinstance(urn, InterestAreaURN) and entry.covers(urn.area) for urn in asked
        ):
            self.port.send(target, "referral", entry, size_bytes=256)

    # -- leaving pieces ----------------------------------------------------------- #

    def _act_on(self, result: ProcessingResult) -> None:
        """Send every outgoing piece on its way: forwarding is a scatter of one."""
        for piece in result.pieces:
            mqp = piece.mqp
            if piece.next_hop is None:
                if piece.reason in ("stuck", "unreachable"):
                    # Deliver whatever partial answer exists rather than dropping.
                    self.plans_stuck += 1
                self.deliver(mqp, piece.reason)
                continue
            self.plans_forwarded += 1
            payload = mqp.serialize()
            self.remember(mqp.query_id, piece.next_hop, payload)
            self.transfers.send_traced(
                piece.next_hop, "mqp", payload, utf8_len(payload), mqp.query_id
            )

    def deliver(self, mqp: MutantQueryPlan, reason: str | None = None) -> None:
        """Ship what ``mqp`` holds to its target; ``reason`` marks it partial."""
        me = self.port.address
        partial = reason is not None
        target = mqp.target or me
        mqp.provenance.add(me, ProvenanceAction.DELIVERED, self.port.now, detail=target)
        items: list[XMLElement] = []
        body = mqp.plan.body
        answer = body if isinstance(body, VerbatimData) else None  # fully evaluated
        if answer is not None:
            items = answer.items
        elif partial:
            items = [item for leaf in mqp.plan.verbatim_leaves() for item in leaf.items]
        envelope = {
            "query_id": mqp.query_id,
            "partial": partial,
            "hops": mqp.provenance.hop_count(),
            "staleness": mqp.provenance.max_staleness(),
            # Which piece of the query this is and the credit it returns:
            # what lets the target know when every piece is home.
            "branch": format_branch(mqp.branch),
            "credit": str(mqp.credit),
        }
        if partial:
            envelope["reason"] = reason
        if target == me:
            # Same guards as an arriving result frame: a duplicate plan copy
            # that goes stuck here must not overwrite a recorded complete
            # answer (and a cancelled query records nothing).
            if mqp.query_id not in self.cancelled:
                self.transfers.attach_failures(envelope)
                self.inbox.record(envelope, items)
            return
        if answer is not None and items and not partial:
            # A complete answer is text already (the evaluation cache's, or
            # the span it arrived as): its children, wrapped again.
            inner = children_text(answer.span.source)
            payload = f"<result query-id={quoteattr(mqp.query_id)}>{inner}</result>"
        else:
            # The wrapper shares the items: it exists only to be serialized
            # here, and serialization never mutates.
            payload = serialize_xml(XMLElement("result", {"query-id": mqp.query_id}, items))
        envelope["document"] = payload
        envelope["items"] = len(items)  # lets the target count the answer without parsing it
        self.transfers.attach_failures(envelope)
        kind = "partial-result" if partial else "result"
        self.transfers.send_traced(target, kind, envelope, utf8_len(payload), mqp.query_id)

    # -- custody and cancellation --------------------------------------------------- #

    def remember(self, query_id: str, next_hop: str, piece: str) -> None:
        """Note where a piece went (and, under reliable delivery, keep it)."""
        hops = self.custody.get(query_id, {})
        custody = hops.setdefault(next_hop, [])
        if self.port.reliable:
            custody.append(piece)
        insert_capped(self.custody, query_id, hops, self.memory)

    def resend(self, holder: str) -> None:
        """Send ``holder`` again every piece it was sent for a remembered query.

        A server registers again when it returns from an outage, and a crash
        takes what it had accepted with it: its ack released the sender, so a
        piece whose result frame was then lost would be gone for good.  What
        did come home the first time the target's gather drops (same path,
        same credit), so the worst case is wasted traffic, never a double
        count; a cancelled query is no longer remembered here.
        """
        for query_id, hops in list(self.custody.items()):
            for piece in hops.get(holder, ()):
                self.transfers.send(holder, "mqp", piece, utf8_len(piece), query_id)

    def cancel(self, query_id: str) -> None:
        """Forget the query's pieces and pass the notice to every next hop."""
        next_hops = self.custody.pop(query_id, ())
        if self.port.connected:
            for next_hop in next_hops:
                self.port.send(next_hop, "cancel-query", query_id, size_bytes=64)
