"""Outside-in span tracing of the ``repro`` layers, and the per-layer ledger.

Nothing under ``src/`` knows about tracing.  :meth:`Tracer.install` patches
timing wrappers around each layer's public entry points at run time: class
attributes for methods, and — because callers ``from x import f`` — every
``repro.*`` module global that *is* the original for module-level functions.
Spans stay in memory (name, start, end, parent, query id) until the child
ends.

Only entry points are wrapped.  Recursive helpers and anything called more
than ~100k times per run (``XMLElement.copy``, ``InterestArea.overlaps``,
``RewriteRule.__call__``) are left alone so the traced run stays within
~1.25x of the untraced one; a re-entrant call of an already-open span name
(``serialized_size`` -> ``serialize_xml``, ``process_batch`` -> ``process``)
counts once.  All wrapped functions are synchronous, so spans nest as a
stack even on the asyncio transport.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter
from typing import Any, Callable

__all__ = ["Tracer", "layer_metrics"]

Work = Callable[[tuple, Any], float]
QueryId = Callable[[tuple, Any], "str | None"]


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._open: list[bool] = []  # per span name: a span of it is on the stack
        self._work: list[float] = []  # per span name: summed work units
        # One entry per span, in start order.
        self.span_name: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.span_parent: list[int] = []
        self.span_query: dict[int, str] = {}
        self._stack: list[int] = []

    # -- wrapping ----------------------------------------------------------- #

    def _name_id(self, span: str) -> int:
        if span not in self._ids:
            self._ids[span] = len(self.names)
            self.names.append(span)
            self._open.append(False)
            self._work.append(0.0)
        return self._ids[span]

    def wrap(
        self, function: Callable, span: str, work: Work | None = None,
        query_id: QueryId | None = None,
    ) -> Callable:
        """Return ``function`` wrapped so that each outermost call records a span."""
        name = self._name_id(span)
        is_open, works = self._open, self._work
        names, starts, ends, parents = (
            self.span_name, self.span_start, self.span_end, self.span_parent
        )
        stack, queries = self._stack, self.span_query

        def traced(*args, **kwargs):
            if is_open[name]:
                return function(*args, **kwargs)
            is_open[name] = True
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(perf_counter())
            try:
                result = function(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()
                is_open[name] = False
            if work is not None:
                works[name] += work(args, result)
            if query_id is not None:
                found = query_id(args, result)
                if found is not None:
                    queries[index] = found
            return result

        traced.__wrapped__ = function  # type: ignore[attr-defined]
        return traced

    def patch_method(self, owner: type, attribute: str, span: str, **options) -> None:
        """Wrap ``owner.attribute`` (plain, class or static method) in place."""
        raw = owner.__dict__[attribute]
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self.wrap(raw.__func__, span, **options))
        else:
            wrapped = self.wrap(raw, span, **options)
        setattr(owner, attribute, wrapped)

    def patch_function(self, function: Callable, span: str, **options) -> None:
        """Rebind every ``repro.*`` module global that is ``function``."""
        wrapped = self.wrap(function, span, **options)
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
                continue
            for attribute, value in list(vars(module).items()):
                if value is function:
                    setattr(module, attribute, wrapped)

    def install(self) -> None:
        """Patch every layer's entry points.  Call once, before the scenario is built."""
        from repro.algebra import serialization
        from repro.algebra.plan import QueryPlan
        from repro.api.cluster import Cluster
        from repro.api.session import Session
        from repro.catalog.binding import Binder
        from repro.catalog.catalog import Catalog
        from repro.engine.evaluate import QueryEngine
        from repro.harness import scaleout  # noqa: F401 - imports every module patched below
        from repro.mqp.plan import MutantQueryPlan
        from repro.mqp.processor import MQPProcessor
        from repro.network import topology
        from repro.network.network import Network
        from repro.network.simulator import Simulator
        from repro.network.transport import wire
        from repro.network.transport.aio import AsyncioTransport
        from repro.network.transport.sim import SimTransport
        from repro.optimizer.planner import Optimizer
        from repro.optimizer.rewrite import RewriteEngine
        from repro.peers.peer import QueryPeer
        from repro.workloads import GarageSaleWorkload, GeneExpressionWorkload, QueryWorkload
        from repro.xmlmodel import parser

        def mqp_of(position: int) -> QueryId:
            return lambda args, result: args[position].query_id

        # xmlmodel
        self.patch_function(parser.parse_xml, "xmlmodel.parse",
                            work=lambda args, result: len(args[0]))
        self.patch_function(parser.serialize_xml, "xmlmodel.serialize",
                            work=lambda args, result: len(result))
        self.patch_function(parser.serialized_size, "xmlmodel.serialize",
                            work=lambda args, result: result)
        # algebra
        self.patch_function(serialization.plan_from_xml, "algebra.from_xml",
                            work=lambda args, result: result.size())
        self.patch_function(serialization.plan_to_xml, "algebra.to_xml")
        self.patch_method(QueryPlan, "copy", "algebra.copy")
        # mqp
        self.patch_method(MutantQueryPlan, "serialize", "mqp.serialize", query_id=mqp_of(0))
        self.patch_method(MutantQueryPlan, "deserialize", "mqp.deserialize",
                          query_id=lambda args, result: result.query_id)
        self.patch_method(MQPProcessor, "process", "mqp.process", query_id=mqp_of(1))
        self.patch_method(MQPProcessor, "process_batch", "mqp.process")
        # optimizer
        self.patch_method(Optimizer, "optimize", "optimizer.optimize")
        self.patch_method(RewriteEngine, "rewrite_plan", "optimizer.rewrite")
        # engine (materialize and evaluate_collection call evaluate)
        self.patch_method(QueryEngine, "evaluate", "engine.evaluate",
                          work=lambda args, result: len(result))
        self.patch_method(QueryEngine, "stream", "engine.evaluate")
        self.patch_method(QueryEngine, "evaluate_collection", "engine.evaluate")
        # catalog
        for lookup in ("servers_overlapping", "servers_covering", "statements_for"):
            self.patch_method(Catalog, lookup, "catalog.lookup")
        self.patch_method(Binder, "bind_area", "catalog.bind")
        for write in ("register_server", "register_named_resource", "register_statement",
                      "prune_server", "forget_server"):
            self.patch_method(Catalog, write, "catalog.write")
        # peers
        self.patch_method(QueryPeer, "handle_message", "peers.handle")
        self.patch_method(Session, "update", "peers.update")
        # network
        self.patch_method(Network, "send", "network.send")
        self.patch_method(Simulator, "step", "network.step")
        # transport
        self.patch_method(wire.FrameEncoder, "encode", "transport.encode")
        self.patch_function(wire.decode_frame, "transport.decode")
        self.patch_method(AsyncioTransport, "send", "transport.send")
        self.patch_method(SimTransport, "send", "transport.send")
        # set-up stages
        self.patch_method(GarageSaleWorkload, "__init__", "setup.population")
        self.patch_method(GarageSaleWorkload, "ground_truth_count", "setup.population")
        self.patch_method(GeneExpressionWorkload, "__init__", "setup.population")
        self.patch_method(GeneExpressionWorkload, "matching_records", "setup.population")
        self.patch_method(QueryWorkload, "batch", "setup.population")
        self.patch_function(topology.build_topology, "setup.topology")
        self.patch_method(Session, "publish", "setup.publish")
        self.patch_method(Cluster, "connect", "setup.connect")
        self.patch_method(Cluster, "wire_topology", "setup.wire_topology")
        self.patch_method(Session, "subscribe", "setup.arm_subscribers")

    # -- reduction ------------------------------------------------------------- #

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: ``self_s`` (duration minus child spans), ``calls``, ``work``."""
        self_s = [end - start for start, end in zip(self.span_start, self.span_end)]
        for index, parent in enumerate(self.span_parent):
            if parent >= 0:
                self_s[parent] -= self.span_end[index] - self.span_start[index]
        totals = {
            name: {"self_s": 0.0, "calls": 0.0, "work": self._work[name_id]}
            for name_id, name in enumerate(self.names)
        }
        for name_id, seconds in zip(self.span_name, self_s):
            entry = totals[self.names[name_id]]
            entry["self_s"] += seconds
            entry["calls"] += 1
        return totals

    def covered_s(self, since: float = 0.0) -> float:
        """Wall time under any span, over the top-level spans started at or after ``since``."""
        return sum(
            end - start
            for start, end, parent in zip(self.span_start, self.span_end, self.span_parent)
            if parent < 0 and start >= since
        )

    def write(self, path: str) -> None:
        """Write the span file: names, then ``[name, start, end, parent, query]`` rows."""
        spans = [
            [name, round(start, 7), round(end, 7), parent, self.span_query.get(index)]
            for index, (name, start, end, parent) in enumerate(
                zip(self.span_name, self.span_start, self.span_end, self.span_parent)
            )
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"names": self.names, "clock": "perf_counter_s", "spans": spans}, handle)


_SELF_TIMES = {
    # metric name -> span name; every ``*_s`` below is a self time.
    "xmlmodel.parse_s": "xmlmodel.parse",
    "xmlmodel.serialize_s": "xmlmodel.serialize",
    "algebra.from_xml_s": "algebra.from_xml",
    "algebra.to_xml_s": "algebra.to_xml",
    "algebra.copy_s": "algebra.copy",
    "mqp.deserialize_self_s": "mqp.deserialize",
    "mqp.serialize_self_s": "mqp.serialize",
    "mqp.process_self_s": "mqp.process",
    "optimizer.optimize_self_s": "optimizer.optimize",
    "optimizer.rewrite_s": "optimizer.rewrite",
    "engine.evaluate_s": "engine.evaluate",
    "catalog.lookup_s": "catalog.lookup",
    "catalog.bind_s": "catalog.bind",
    "catalog.write_s": "catalog.write",
    "peers.handle_self_s": "peers.handle",
    "peers.update_s": "peers.update",
    "network.send_self_s": "network.send",
    "network.step_self_s": "network.step",
    "transport.encode_s": "transport.encode",
    "transport.decode_s": "transport.decode",
    "transport.send_self_s": "transport.send",
    "setup.population_s": "setup.population",
    "setup.topology_s": "setup.topology",
    "setup.publish_s": "setup.publish",
    "setup.connect_s": "setup.connect",
    "setup.wire_topology_s": "setup.wire_topology",
    "setup.arm_subscribers_s": "setup.arm_subscribers",
}

_CALLS = {
    "xmlmodel.parse_calls": "xmlmodel.parse",
    "xmlmodel.serialize_calls": "xmlmodel.serialize",
    "algebra.copy_calls": "algebra.copy",
    "optimizer.calls": "optimizer.optimize",
    "engine.evaluate_calls": "engine.evaluate",
    "catalog.lookup_calls": "catalog.lookup",
    "catalog.bind_calls": "catalog.bind",
    "catalog.write_calls": "catalog.write",
    "peers.messages_handled": "peers.handle",
    "peers.update_calls": "peers.update",
}

_WORK = {
    "xmlmodel.parse_bytes": "xmlmodel.parse",
    "xmlmodel.serialize_bytes": "xmlmodel.serialize",
    "engine.items_out": "engine.evaluate",
}


def layer_metrics(
    tracer: Tracer, scenario, report: dict, ops: int, run_started: float, run_s: float,
    wall_s: float,
) -> dict[str, float]:
    """Every per-layer metric one traced child can compute on its own.

    ``run_started`` is the ``perf_counter`` reading at which set-up ended;
    ``run_s`` and ``wall_s`` are the run-phase and whole-child (set-up + run)
    walls.  The parent adds the three metrics that need a second child:
    ``network.msgs_per_s``, ``trace.overhead_ratio`` and ``run.py_calls_per_op``.
    """
    totals = tracer.totals()
    empty = {"self_s": 0.0, "calls": 0.0, "work": 0.0}

    def total(span: str) -> dict[str, float]:
        return totals.get(span, empty)

    metrics = {name: total(span)["self_s"] for name, span in _SELF_TIMES.items()}
    metrics.update({name: total(span)["calls"] for name, span in _CALLS.items()})
    metrics.update({name: total(span)["work"] for name, span in _WORK.items()})
    parses = total("algebra.from_xml")
    metrics["algebra.nodes_per_plan"] = (
        parses["work"] / parses["calls"] if parses["calls"] else 0.0
    )
    counters = _layer_counters(scenario, report)
    updates = total("peers.update")["calls"]
    published = counters.pop("peers.deltas_published")
    metrics["peers.deltas_per_update"] = published / updates if updates else 0.0
    metrics["network.msgs_per_op"] = counters["network.messages"] / ops
    metrics.update(counters)
    metrics["transport.loop_other_s"] = run_s - tracer.covered_s(since=run_started)
    metrics["trace.spans"] = len(tracer.span_name)
    metrics["trace.unattributed_share"] = 1.0 - tracer.covered_s() / wall_s
    return metrics


def _layer_counters(scenario, report: dict) -> dict[str, float]:
    """Counts the layers keep themselves, read once the run has ended."""
    from repro.peers.peer import QueryPeer

    network = scenario.network
    metrics = network.metrics
    peers = [node for node in network.nodes() if isinstance(node, QueryPeer)]
    processing = report.get("processing", {})
    caches = [
        peer.catalog.answer_cache for peer in peers if peer.catalog.answer_cache is not None
    ]
    cache_lookups = sum(cache.hits + cache.misses for cache in caches)
    subplans = sum(peer.processor.subplans_evaluated for peer in peers)
    mqp_messages = metrics.messages_by_kind.get("mqp", 0)
    retries = sum(peer.retries_sent for peer in peers)
    wire_stats = network.transport.stats()
    frames = wire_stats.get("frames_sent", 0)
    return {
        "mqp.plans_processed": processing.get("plans_processed", 0),
        "mqp.plans_forwarded": processing.get("plans_forwarded", 0),
        "mqp.plans_stuck": processing.get("plans_stuck", 0),
        "mqp.hops_per_op": processing.get("plans_forwarded", 0) / scenario.spec.queries,
        "mqp.plan_bytes_per_hop": (
            metrics.bytes_by_kind.get("mqp", 0) / mqp_messages if mqp_messages else 0.0
        ),
        "mqp.eval_memo_hit_ratio": (
            processing.get("eval_memo_hits", 0) / subplans if subplans else 0.0
        ),
        "catalogtier.cache_hit_ratio": (
            sum(cache.hits for cache in caches) / cache_lookups if cache_lookups else 0.0
        ),
        "catalogtier.cache_invalidations": sum(cache.invalidations for cache in caches),
        "catalogtier.failovers": sum(peer.tier_failovers for peer in peers),
        "catalogtier.reconciliations": sum(peer.reconciliations for peer in peers),
        "peers.retries_sent": retries,
        "peers.retry_ratio": retries / metrics.messages_sent if metrics.messages_sent else 0.0,
        "peers.acks_sent": sum(peer.acks_sent for peer in peers),
        "peers.duplicates_dropped": sum(peer.duplicates_dropped for peer in peers),
        "peers.dead_letters": sum(len(peer.dead_letters) for peer in peers),
        "peers.deltas_published": sum(peer.deltas_published for peer in peers),
        "network.sim_events": network.simulator.processed_events,
        "network.messages": metrics.messages_sent,
        "network.dropped": metrics.dropped_messages,
        "network.faults_lost": sum(metrics.fault_losses_by_kind.values()),
        "transport.frames": frames,
        "transport.frame_bytes_mean": (
            wire_stats.get("bytes_on_wire", 0) / frames if frames else 0.0
        ),
    }
