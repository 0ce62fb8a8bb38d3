"""The four end-to-end workloads: specs, op definitions, tails, rationale.

Each workload is one ``ScaleoutSpec`` derived with ``dataclasses.replace``
from a ``repro.harness.cli.SCENARIOS`` preset, so the benchmark measures
exactly what ``repro --scenario ...`` runs.

Two seeds feed a spec, on purpose:

* ``data_seed`` (default 11) is ``ScaleoutSpec.seed``: it pins population,
  topology, catalog and the query set.  One draw of it decides *which*
  queries exist — at other values ``flash-200`` takes anywhere from 2.8 s to
  57 s per run and ``feed-aio`` publishes 5,400 to 27,000 deltas — so it is
  part of the workload's definition, like a database benchmark's data set.
* ``seed`` (the benchmark's ``--seed``) draws the offered load's
  inter-arrival time within ±``ARRIVAL_JITTER`` of the preset's 400 ms.
  Every run with another ``--seed`` meets the same data with a slightly
  different arrival process: batching windows, retry timers and the
  replica outage line up differently, and simulated latencies move by a
  percent or so — but the work per op stays comparable, which is
  what lets ten runs with ten seeds agree within the bounds in
  ``BENCHMARK.json``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from repro.harness.cli import SCENARIOS
from repro.harness.scaleout import ScaleoutSpec

__all__ = ["Workload", "WORKLOADS", "DATA_SEED", "ARRIVAL_JITTER"]

DATA_SEED = 11
ARRIVAL_JITTER = 0.02


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``op`` is ``"query"`` (one client query) or ``"delta"`` (one expected
    delta delivery to one subscriber).  ``expected_ops`` is the op count at
    ``DATA_SEED`` and full size.  ``tail`` is the highest percentile with at
    least ten samples beyond it (``gene-1k`` has only twelve samples, so its
    tail is the maximum).  ``fault_free`` workloads must reach recall 1.0
    with no failed op.
    """

    name: str
    preset: str
    overrides: dict
    quick_overrides: dict
    transport: str
    op: str
    expected_ops: int
    tail: float
    fault_free: bool
    why: str

    @property
    def tail_label(self) -> str:
        return "max" if self.tail >= 1.0 else f"p{self.tail * 100:g}"

    def spec(self, seed: int, data_seed: int = DATA_SEED, quick: bool = False) -> ScaleoutSpec:
        """The ``ScaleoutSpec`` this workload runs for benchmark seed ``seed``."""
        base = SCENARIOS[self.preset]
        jitter = random.Random(seed).uniform(-ARRIVAL_JITTER, ARRIVAL_JITTER)
        spec = replace(
            base,
            name=self.name,
            seed=data_seed,
            query_interval_ms=base.query_interval_ms * (1.0 + jitter),
            **self.overrides,
        )
        return replace(spec, **self.quick_overrides) if quick else spec


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="gene-1k",
            preset="thousand-peers",
            overrides={"churn": "none"},
            quick_overrides={"peers": 60, "queries": 3},
            transport="sim",
            op="query",
            expected_ops=12,
            tail=1.0,
            fault_free=False,
            why=(
                "ROADMAP flagship: 1,000 peers, plans drag 40-75 KB of verbatim results "
                "per hop until max_hops cuts them off; xmlmodel, algebra and optimizer "
                "dominate, recall is 0.29, catalog and wire codec idle."
            ),
        ),
        Workload(
            name="flash-200",
            preset="flash-crowd",
            overrides={"queries": 600},
            quick_overrides={"peers": 40, "queries": 30},
            transport="sim",
            op="query",
            expected_ops=600,
            tail=0.95,
            fault_free=True,
            why=(
                "600 small queries with heavy input overlap (a flash crowd on one hot "
                "query): per-message pipeline cost at small payloads, eval-memo and "
                "batch sharing; recall is already 1.0, only speed can move."
            ),
        ),
        Workload(
            name="feed-aio",
            preset="subscription-feed",
            overrides={
                "peers": 300, "subscribers": 120, "mutation_rounds": 60,
                "queries": 4, "churn": "none",
            },
            quick_overrides={"peers": 40, "subscribers": 8, "mutation_rounds": 3},
            transport="aio",
            op="delta",
            expected_ops=14_400,
            tail=0.99,
            fault_free=True,
            why=(
                "The write path over real sockets: Session.update -> matcher -> "
                "delta-chunk + acks through wire-v2 and asyncio; a planner change should "
                "move nothing here, a codec or socket change only this."
            ),
        ),
        Workload(
            name="sharded-lossy",
            preset="sharded-catalog",
            overrides={"peers": 300, "queries": 160},
            quick_overrides={"peers": 60, "queries": 12},
            transport="sim",
            op="query",
            expected_ops=160,
            tail=0.90,
            fault_free=False,
            why=(
                "Catalog tier under fire: 4x3 replica groups, answer cache, 10% link "
                "loss with retries, a replica outage and rejoin, light churn; catalog "
                "reads beside writes, so a read gain paid for in writes shows."
            ),
        ),
    )
}
