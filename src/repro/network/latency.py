"""Link latency and bandwidth model.

The paper never reports absolute timings, but the tradeoffs it discusses
(latency versus completeness, "their size matters") need a network model
that charges both a per-message propagation delay and a size-dependent
transfer time.  Pairwise latencies are drawn once per (sender, recipient)
pair from a seeded generator so repeated messages between the same peers
see consistent delays and every experiment is reproducible.
"""

from __future__ import annotations

from ..rng import default_rng

__all__ = ["LatencyModel"]


class LatencyModel:
    """Per-link propagation delay plus bandwidth-based transfer time.

    Parameters
    ----------
    base_latency_ms:
        Mean one-way propagation delay between two peers.
    jitter_ms:
        Half-width of the uniform jitter added per link (sampled once per
        directed link, then fixed).
    bandwidth_bytes_per_ms:
        Link throughput used to convert message size into transfer time.
    local_latency_ms:
        Delay applied when a peer "sends" to itself (loopback work).
    seed:
        Seed for the per-link jitter.
    """

    def __init__(
        self,
        base_latency_ms: float = 20.0,
        jitter_ms: float = 10.0,
        bandwidth_bytes_per_ms: float = 1_000.0,
        local_latency_ms: float = 0.1,
        seed: int = 7,
    ) -> None:
        self.base_latency_ms = float(base_latency_ms)
        self.jitter_ms = float(jitter_ms)
        self.bandwidth_bytes_per_ms = float(bandwidth_bytes_per_ms)
        self.local_latency_ms = float(local_latency_ms)
        self._rng = default_rng(seed)
        self._link_latency: dict[tuple[str, str], float] = {}

    def propagation_delay(self, sender: str, recipient: str) -> float:
        """One-way propagation delay for the directed link, stable per pair."""
        if sender == recipient:
            return self.local_latency_ms
        key = (sender, recipient)
        if key not in self._link_latency:
            jitter = self._rng.uniform(-self.jitter_ms, self.jitter_ms)
            self._link_latency[key] = max(0.5, self.base_latency_ms + jitter)
        return self._link_latency[key]

    def transfer_time(self, size_bytes: int) -> float:
        """Serialization/transfer time for a message of the given size."""
        return size_bytes / self.bandwidth_bytes_per_ms

    def delivery_delay(self, sender: str, recipient: str, size_bytes: int) -> float:
        """Total delay charged for delivering one message."""
        return self.propagation_delay(sender, recipient) + self.transfer_time(size_bytes)
