"""Simulated peer-to-peer network substrate (discrete-event, deterministic).

``AsyncioTransport`` is resolved on first access, so a simulated run never
imports asyncio.
"""

from .failures import (
    CHURN_PROFILES,
    ChurnEvent,
    ChurnPlan,
    ChurnProfile,
    FailureEvent,
    FailureInjector,
)
from .faults import FaultInjector, FaultOutcome, FaultPlan, stable_unit
from .latency import LatencyModel
from .message import Message
from .metrics import NetworkMetrics, QueryTrace
from .network import Network
from .node import NetworkNode
from .simulator import Event, Simulator
from .transport import (
    TRANSPORT_KINDS,
    SimTransport,
    Transport,
    TransportError,
    build_transport,
)
from .topology import (
    TOPOLOGY_KINDS,
    Topology,
    build_topology,
    hierarchical_topology,
    random_topology,
    scale_free_topology,
    small_world_topology,
    star_topology,
)

__all__ = [
    "Simulator",
    "Event",
    "Message",
    "LatencyModel",
    "Network",
    "NetworkNode",
    "Transport",
    "TransportError",
    "TRANSPORT_KINDS",
    "build_transport",
    "SimTransport",
    "AsyncioTransport",
    "NetworkMetrics",
    "QueryTrace",
    "Topology",
    "TOPOLOGY_KINDS",
    "build_topology",
    "random_topology",
    "scale_free_topology",
    "small_world_topology",
    "hierarchical_topology",
    "star_topology",
    "FailureInjector",
    "FailureEvent",
    "FaultPlan",
    "FaultInjector",
    "FaultOutcome",
    "stable_unit",
    "ChurnProfile",
    "ChurnEvent",
    "ChurnPlan",
    "CHURN_PROFILES",
]


def __getattr__(name: str):
    if name == "AsyncioTransport":
        from .transport.aio import AsyncioTransport

        return AsyncioTransport
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
