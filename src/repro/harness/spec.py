"""What a scale-out run is: :class:`ScaleoutSpec`, and the checks it passes
before the first peer is built (a bad spec fails whole, never half-run)."""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import SimulationError
from ..mqp import QueryPreferences
from ..network import CHURN_PROFILES, TOPOLOGY_KINDS, FaultPlan
from ..workloads.adversarial import CATALOG_MODES, QUERY_MIXES

__all__ = ["ScaleoutSpec", "WORKLOAD_KINDS", "ROUTING_KINDS"]

WORKLOAD_KINDS = ("garage-sale", "gene-expression")
ROUTING_KINDS = ("mqp", "gnutella", "napster", "routing-index")


@dataclass(frozen=True)
class ScaleoutSpec:
    """Everything that defines a scale-out run (and seeds its determinism).

    ``peers`` counts the *data-serving* peers; the infrastructure the
    routing strategy needs on top (index servers, a meta-index, the client,
    a central Napster index, …) is derived and reported separately.
    """

    name: str = "custom"
    topology: str = "scale-free"
    peers: int = 1000
    workload: str = "gene-expression"
    churn: str = "none"
    routing: str = "mqp"
    queries: int = 12
    seed: int = 11
    churn_window_ms: tuple[float, float] = (200.0, 4_000.0)
    query_interval_ms: float = 400.0
    prefer: str = "complete"
    max_hops: int = 48
    # Adversarial knobs (repro.workloads.adversarial).  At their defaults
    # the scenario is the cooperative one and reports stay byte-identical
    # to pre-adversarial builds (the defaults are elided from the report's
    # scenario block — see repro.harness.report.scenario_dict).
    query_mix: str = "steady"
    free_rider_fraction: float = 0.0
    catalog_mode: str = "honest"
    # Resilience knobs (repro.network.faults + Cluster(reliable=...)).
    # Defaults keep the network fault-free and fire-and-forget — and are
    # elided from the report, preserving pre-resilience byte-identity.
    reliable: bool = False
    fault_loss: float = 0.0
    fault_duplicate: float = 0.0
    fault_delay: float = 0.0
    fault_reorder: float = 0.0
    fault_partition: tuple[float, float] | None = None
    # Continuous-query knobs.  ``subscribers`` standing-query clients are
    # armed over the workload's query areas and ``mutation_rounds`` rounds
    # of publisher mutations drive their delta feeds.  The zero defaults
    # are elided from the report — runs without subscribers stay
    # byte-identical to pre-subscription builds.
    subscribers: int = 0
    mutation_rounds: int = 0
    # Catalog-tier knobs (repro.catalogtier).  With
    # ``catalog_shards > 0`` the authoritative index layer becomes
    # ``catalog_shards`` replica groups of ``catalog_replicas`` servers
    # each, and ``catalog_outages`` replicas of group 0 crash mid-schedule
    # and rejoin (reconciling on the way back).  The zero defaults are
    # elided from the report — unsharded runs stay byte-identical to
    # pre-tier builds.
    catalog_shards: int = 0
    catalog_replicas: int = 0
    catalog_outages: int = 0

    def fault_plan(self) -> FaultPlan:
        """The seeded link-fault plan this spec describes.

        Derived seed ``seed + 8`` continues the adversary convention: fault
        decisions never perturb churn, latency, or adversary draws, so grid
        cells stay comparable across knob combinations.
        """
        return FaultPlan(
            seed=self.seed + 8,
            loss=self.fault_loss,
            duplicate=self.fault_duplicate,
            delay=self.fault_delay,
            reorder=self.fault_reorder,
            partition=self.fault_partition,
        )

    def validate(self) -> None:
        """Fail fast on values the builders cannot honour."""
        if self.topology not in TOPOLOGY_KINDS:
            raise SimulationError(f"unknown topology {self.topology!r}: use one of {TOPOLOGY_KINDS}")
        if self.workload not in WORKLOAD_KINDS:
            raise SimulationError(f"unknown workload {self.workload!r}: use one of {WORKLOAD_KINDS}")
        if self.routing not in ROUTING_KINDS:
            raise SimulationError(f"unknown routing {self.routing!r}: use one of {ROUTING_KINDS}")
        if self.churn not in CHURN_PROFILES:
            raise SimulationError(
                f"unknown churn profile {self.churn!r}: use one of {tuple(sorted(CHURN_PROFILES))}"
            )
        if self.peers < 4:
            raise SimulationError("scale-out scenarios need at least 4 peers")
        if self.queries < 1:
            raise SimulationError("at least one query is required")
        if self.seed < 0:
            raise SimulationError(f"seed must be non-negative, got {self.seed}")
        if not self.query_interval_ms >= 0.0:
            raise SimulationError(
                f"query_interval_ms must be non-negative, got {self.query_interval_ms}"
            )
        if self.prefer not in QueryPreferences.VALID:
            raise SimulationError(
                f"unknown preference {self.prefer!r}: use one of {QueryPreferences.VALID}"
            )
        if self.max_hops < 1:
            raise SimulationError(f"max_hops must be at least 1, got {self.max_hops}")
        if self.query_mix not in QUERY_MIXES:
            raise SimulationError(
                f"unknown query mix {self.query_mix!r}: use one of {QUERY_MIXES}"
            )
        if self.catalog_mode not in CATALOG_MODES:
            raise SimulationError(
                f"unknown catalog mode {self.catalog_mode!r}: use one of {CATALOG_MODES}"
            )
        if not 0.0 <= self.free_rider_fraction <= 1.0:
            raise SimulationError(
                f"free_rider_fraction must be in [0, 1], got {self.free_rider_fraction}"
            )
        if self.free_rider_fraction > 0.0 and self.routing != "mqp":
            raise SimulationError("free riders are an MQP-routing adversary")
        self.fault_plan().validate()
        if self.reliable and self.routing != "mqp":
            raise SimulationError(
                "reliable delivery is the MQP stack's protocol; baselines are fire-and-forget"
            )
        if self.subscribers < 0 or self.mutation_rounds < 0:
            raise SimulationError("subscribers and mutation_rounds must be non-negative")
        if self.subscribers > 0 and self.routing != "mqp":
            raise SimulationError(
                "continuous queries are the MQP stack's protocol; baselines poll"
            )
        if self.mutation_rounds > 0 and self.subscribers == 0:
            raise SimulationError("mutation_rounds without subscribers drives no feed")
        if min(self.catalog_shards, self.catalog_replicas, self.catalog_outages) < 0:
            raise SimulationError("catalog tier knobs must be non-negative")
        if (self.catalog_shards > 0) != (self.catalog_replicas > 0):
            raise SimulationError(
                "catalog_shards and catalog_replicas are set together (or both zero)"
            )
        if self.catalog_shards > 0 and self.routing != "mqp":
            raise SimulationError(
                "the catalog tier shards the MQP stack's catalog; baselines have none"
            )
        if self.catalog_outages > 0:
            if self.catalog_shards == 0:
                raise SimulationError("catalog_outages requires the catalog tier")
            if self.catalog_outages >= self.catalog_replicas:
                raise SimulationError(
                    "catalog_outages must leave at least one surviving replica per group"
                )
