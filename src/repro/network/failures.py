"""Churn: peers going offline and (optionally) coming back.

Fault tolerance is one of the paper's headline motivations for the P2P
model — "failure or unavailability of a single server ... does not disable
the system".  :func:`schedule_churn` puts a profiled plan of leaves,
crashes and rejoins on the shared simulator so experiments can measure
completeness and latency under churn.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import SimulationError
from ..rng import Generator, default_rng
from .network import Network

__all__ = [
    "schedule_churn",
    "ChurnProfile",
    "ChurnEvent",
    "ChurnPlan",
    "CHURN_PROFILES",
]


def schedule_churn(
    network: Network,
    addresses: list[str],
    profile: ChurnProfile | str,
    window_ms: tuple[float, float] = (100.0, 4_000.0),
    seed: int = 13,
    regions: dict[str, str] | None = None,
) -> ChurnPlan:
    """Schedule a full churn plan over ``addresses`` on ``network``'s clock.

    Peers selected by the profile either *leave* gracefully (the node's
    ``leave()`` method runs, letting peers unregister before going
    offline) or *crash* (``go_offline`` with no notice).  A profiled
    fraction of the churned peers rejoin after their outage via
    ``go_online`` — for :class:`~repro.peers.peer.QueryPeer` that
    triggers registration re-propagation.

    A *correlated* profile fails whole regions at once: ``regions`` maps
    each address to a region key, victims are chosen region-by-region
    (seeded) until the profile's churn fraction is covered, and every
    victim of one region fails inside that region's narrow outage
    window — a rack, a metro uplink, an AS path going dark together.
    """
    if isinstance(profile, str):
        try:
            profile = CHURN_PROFILES[profile]
        except KeyError:
            raise SimulationError(
                f"unknown churn profile {profile!r}; "
                f"expected one of {', '.join(sorted(CHURN_PROFILES))}"
            ) from None
    rng = default_rng(seed)
    events: list[ChurnEvent] = []
    if profile.correlated and regions:
        events = _correlated_events(addresses, profile, window_ms, rng, regions)
    else:
        count = int(round(len(addresses) * profile.churn_fraction))
        chosen = sorted(rng.choice(addresses, size=count, replace=False)) if count else []
        for address in chosen:
            graceful = bool(rng.random() < profile.graceful_fraction)
            rejoins = bool(rng.random() < profile.rejoin_fraction)
            fail_at = float(rng.uniform(*window_ms))
            recover_at = (
                fail_at + float(rng.uniform(*profile.outage_ms)) if rejoins else None
            )
            events.append(
                ChurnEvent(address, "leave" if graceful else "crash", fail_at, recover_at)
            )
    for event in events:
        node = network.node(event.address)
        # Graceful leavers announce their departure when the node supports
        # it (QueryPeer.leave unregisters from its indexers); crashes and
        # plain NetworkNodes just drop off.
        depart = getattr(node, "leave", node.go_offline) if event.kind == "leave" else node.go_offline
        network.schedule_at(event.fail_at, depart)
        if event.recover_at is not None:
            network.schedule_at(event.recover_at, node.go_online)
    return ChurnPlan(profile=profile, events=events)


def _correlated_events(
    addresses: list[str],
    profile: ChurnProfile,
    window_ms: tuple[float, float],
    rng: Generator,
    regions: dict[str, str],
) -> list[ChurnEvent]:
    """Regional failure events: whole regions go dark near-simultaneously."""
    by_region: dict[str, list[str]] = {}
    for address in sorted(addresses):
        by_region.setdefault(regions.get(address, "?"), []).append(address)
    target = int(round(len(addresses) * profile.churn_fraction))
    region_order = list(by_region)
    rng.shuffle(region_order)
    events: list[ChurnEvent] = []
    victims = 0
    for region in region_order:
        if victims >= target:
            break
        members = by_region[region]
        # The region's epicenter: every member fails within a tight
        # spread around it (the correlated signature), not uniformly
        # across the whole scenario window.
        epicenter = float(rng.uniform(*window_ms))
        spread_ms = profile.regional_spread_ms
        for address in members:
            graceful = bool(rng.random() < profile.graceful_fraction)
            rejoins = bool(rng.random() < profile.rejoin_fraction)
            fail_at = epicenter + float(rng.uniform(0.0, spread_ms))
            recover_at = (
                fail_at + float(rng.uniform(*profile.outage_ms)) if rejoins else None
            )
            events.append(
                ChurnEvent(address, "leave" if graceful else "crash", fail_at, recover_at)
            )
        victims += len(members)
    return events


@dataclass(frozen=True)
class ChurnProfile:
    """How much and what kind of churn a scale-out scenario applies.

    ``churn_fraction`` of peers depart during the window; of those,
    ``graceful_fraction`` leave politely (unregistering) while the rest
    crash silently, and ``rejoin_fraction`` come back after an outage drawn
    uniformly from ``outage_ms``.

    ``correlated`` profiles fail whole regions together: victims are chosen
    region-by-region (given a region mapping) and each region's members all
    fail within ``regional_spread_ms`` of its epicenter.
    """

    name: str
    churn_fraction: float
    graceful_fraction: float = 0.5
    rejoin_fraction: float = 0.8
    outage_ms: tuple[float, float] = (500.0, 2_000.0)
    correlated: bool = False
    regional_spread_ms: float = 50.0

    def __post_init__(self) -> None:
        for fraction in (self.churn_fraction, self.graceful_fraction, self.rejoin_fraction):
            if not 0.0 <= fraction <= 1.0:
                raise SimulationError(f"churn fractions must be in [0, 1], got {fraction}")


@dataclass(frozen=True)
class ChurnEvent:
    """One peer's scheduled departure (and optional rejoin)."""

    address: str
    kind: str  # "leave" (graceful) or "crash" (silent)
    fail_at: float
    recover_at: float | None = None


@dataclass
class ChurnPlan:
    """Everything :func:`schedule_churn` decided."""

    profile: ChurnProfile
    events: list[ChurnEvent] = field(default_factory=list)

    def summary(self) -> dict[str, object]:
        """Flat description of the plan for experiment reports."""
        return {
            "profile": self.profile.name,
            "events": len(self.events),
            "leaves": sum(1 for event in self.events if event.kind == "leave"),
            "crashes": sum(1 for event in self.events if event.kind == "crash"),
            "rejoins": sum(1 for event in self.events if event.recover_at is not None),
        }


CHURN_PROFILES = {
    "none": ChurnProfile("none", churn_fraction=0.0),
    "light": ChurnProfile("light", churn_fraction=0.05, graceful_fraction=0.7, rejoin_fraction=0.9),
    "moderate": ChurnProfile(
        "moderate", churn_fraction=0.15, graceful_fraction=0.5, rejoin_fraction=0.8
    ),
    "heavy": ChurnProfile(
        "heavy",
        churn_fraction=0.35,
        graceful_fraction=0.3,
        rejoin_fraction=0.6,
        outage_ms=(1_000.0, 5_000.0),
    ),
    # Correlated regional failure: whole populated regions (states, clades)
    # go dark near-simultaneously — mostly crashes, slow recovery.  The
    # adversarial counterpart of "moderate": same order of victim count,
    # zero independence between them.
    "regional": ChurnProfile(
        "regional",
        churn_fraction=0.2,
        graceful_fraction=0.1,
        rejoin_fraction=0.5,
        outage_ms=(2_000.0, 6_000.0),
        correlated=True,
    ),
}
"""Named churn intensities selectable from the experiment CLI."""
