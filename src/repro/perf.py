"""The two runtime switches that choose a wire protocol.

Everything else the stack does has one code path.  These two stay
switchable because each changes what travels on the wire — extra frames,
extra latency draws — and the benchmark runs traffic on both sides of each
(``sharded-lossy`` / ``feed-aio`` run reliable, ``gene-1k`` / ``flash-200``
do not).  The reference implementations the differential tests compare
against live in ``tests/oracles/``, not behind a switch here.

The flags are read at call time (not import time), so a context manager can
toggle them mid-run.  They are process-global on purpose: a benchmark
comparing modes must never accidentally mix them within one measurement.

This module imports nothing from the rest of the package so any layer can
consult it without cycles.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

__all__ = ["flags", "overrides"]


class _Flags:
    """Wire-protocol switches; attribute loads keep the checks cheap.

    * ``streaming_results`` — results leave the answering peer as a
      sequence of ``result-chunk`` frames closed by ``result-end`` vs. a
      single monolithic ``result`` frame.  Off by default: chunking
      consumes extra per-message latency draws, so it changes every
      scenario report.
    * ``reliable_delivery`` — per-hop delivery acks with retransmission
      (exponential backoff + deterministic jitter on the logical clock,
      bounded retry budgets, receiver-side dedupe) for MQP and result
      traffic vs. fire-and-forget forwarding.  Off by default: acks and
      retries are extra wire traffic.

    ``run_scaleout`` pins both to its spec for the run (``reliable``
    follows ``spec.reliable``, streaming stays off), so a report never
    depends on what the caller had switched on.
    """

    __slots__ = ("streaming_results", "reliable_delivery")

    def __init__(self) -> None:
        self.streaming_results = False
        self.reliable_delivery = False


flags = _Flags()
"""The process-wide switchboard.  Mutate via :func:`overrides`."""


@contextmanager
def overrides(**values: bool) -> Iterator[None]:
    """Run the enclosed block with the named flags forced to given values."""
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
