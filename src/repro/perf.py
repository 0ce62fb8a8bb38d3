"""Runtime switches for the measured hot paths.

Every structural optimization added for the indexed-catalog work keeps the
seed implementation alive next to it: the linear catalog scans remain the
correctness oracle for the trie index, and the validating XML constructors
remain the reference for the trusted fast-copy path.  This module is the
single switchboard — benchmarks flip it to measure *this* build against the
seed algorithms inside one process, and the equivalence tests flip it to
prove both paths return byte-identical results.

The flags are read at call time (not import time), so a context manager can
toggle them mid-run.  They are process-global on purpose: a benchmark
comparing modes must never accidentally mix them within one measurement.

This module imports nothing from the rest of the package so any layer
(xmlmodel, catalog, network) can consult it without cycles.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

__all__ = ["flags", "seed_baseline", "overrides"]


class _Flags:
    """Hot-path feature switches; attribute loads keep the checks cheap.

    * ``indexed_catalog`` — trie-backed catalog lookups vs. the seed's
      linear scans.
    * ``trusted_xml_copies`` — validation-free construction for copies of
      already-validated XML subtrees vs. the seed's re-validating
      constructor.
    * ``lazy_original_plans`` — the immutable original plan carried by an
      MQP is replayed from its wire form and materialized on demand vs. the
      seed's re-encode/re-parse at every hop.
    * ``cached_predicates`` — identical predicate texts share one memoized
      immutable expression AST vs. the seed's per-call tokenizer run.
    * ``streaming_engine`` — pull-based iterator evaluation with bounded
      pipeline-breaker buffers vs. the seed's fully materialized lists.
      Both modes return byte-identical results; the seed path remains the
      correctness oracle for the differential suite.
    * ``streaming_results`` — results leave the answering peer as a
      sequence of ``result-chunk`` frames closed by ``result-end`` vs. the
      seed's single monolithic ``result`` frame.  Off by default: the
      byte-identity gates compare scenario reports against the seed wire
      behaviour, and chunking consumes extra per-message latency draws.
    * ``eager_area_plans`` — a peer holding any URL referenced by a
      predicate-less plan (a bare union of URLs) pins its local data into
      the plan as verbatim XML, so such plans complete instead of
      ping-ponging between data holders to ``max_hops``.  Off by default
      for the same byte-identity reason.
    * ``reliable_delivery`` — per-hop delivery acks with retransmission
      (exponential backoff + deterministic jitter on the logical clock,
      bounded retry budgets, receiver-side dedupe) for MQP and result
      traffic vs. the seed's fire-and-forget forwarding.  Off by default:
      acks and retries are extra wire traffic, and the byte-identity gates
      compare reports against the fire-and-forget wire behaviour.
    * ``continuous_queries`` — standing queries: peers accept
      ``subscribe`` registrations, match mutations against armed plans at
      publish time, and push ``delta-chunk`` envelopes to subscribers vs.
      the seed's answer-once-and-die queries.  Off by default: the
      byte-identity gates compare scenario reports against the
      snapshot-only wire behaviour.
    * ``catalog_tier`` — the sharded, replicated catalog tier: interest
      areas hash to replica groups of index servers, registrations fan out
      to every group member, lookups prefer the owning group with failover
      ordering, index servers keep an LRU answer cache invalidated by
      covering registrations, and rejoining replicas reconcile their
      authoritative sets with surviving group members vs. the seed's flat
      single-catalog routing.  Off by default: the byte-identity gates
      compare scenario reports against the unsharded wire behaviour.
    * ``multiprocess`` — the multicore launcher: a scenario's data peers
      split into contiguous shards across worker processes, cross-shard
      frames relay over localhost TCP with hybrid-logical-clock stamps, and
      the single authoritative simulator relaxes to barrier-coordinated
      simulated-time windows (``repro.multicore``).  Off by default: real
      parallelism re-draws link latencies in a different first-use order,
      so flag-on runs are gated by *sequence* identity (answers, recall,
      schema) instead of report byte-identity.
    """

    __slots__ = (
        "indexed_catalog",
        "trusted_xml_copies",
        "lazy_original_plans",
        "cached_predicates",
        "streaming_engine",
        "streaming_results",
        "eager_area_plans",
        "reliable_delivery",
        "continuous_queries",
        "catalog_tier",
        "multiprocess",
    )

    def __init__(self) -> None:
        self.indexed_catalog = True
        self.trusted_xml_copies = True
        self.lazy_original_plans = True
        self.cached_predicates = True
        self.streaming_engine = True
        self.streaming_results = False
        self.eager_area_plans = False
        self.reliable_delivery = False
        self.continuous_queries = False
        self.catalog_tier = False
        self.multiprocess = False


flags = _Flags()
"""The process-wide switchboard.  Mutate via :func:`seed_baseline` in tests."""


@contextmanager
def seed_baseline() -> Iterator[None]:
    """Run the enclosed block with the seed-era algorithms.

    Inside the block, catalogs answer lookups with the original linear scan
    plus per-call sort, and XML subtree copies re-validate every node — the
    algorithmic shape of the pre-index implementation.  Used by the
    benchmarks to measure the optimized paths against the seed behaviour,
    and by the equivalence tests to diff their results.
    """
    with overrides(**{name: False for name in _Flags.__slots__}):
        yield


@contextmanager
def overrides(**values: bool) -> Iterator[None]:
    """Run the enclosed block with specific flags forced to given values.

    Unlike :func:`seed_baseline` this flips only the named switches — the
    differential suites use it to compare exactly one axis (for example the
    streaming engine against the materialized oracle) with every other
    optimization held constant.
    """
    unknown = [name for name in values if name not in _Flags.__slots__]
    if unknown:
        raise AttributeError(f"unknown perf flag(s): {', '.join(sorted(unknown))}")
    previous = {name: getattr(flags, name) for name in values}
    for name, value in values.items():
        setattr(flags, name, bool(value))
    try:
        yield
    finally:
        for name, value in previous.items():
            setattr(flags, name, value)
