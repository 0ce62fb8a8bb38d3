"""Dependency-free statistics for the experiment matrix.

Every claim the :mod:`repro.experiments` layer makes — "completeness held
under churn", "the adversarial cell is worse than the baseline" — reduces
to proportions over repeated runs: a query either met the completeness
threshold or it did not.  This module provides exactly the two tools such
claims need, implemented on :mod:`math` alone so the experiment layer adds
no dependencies beyond what the simulator already requires:

* :func:`wilson_ci` — the Wilson score interval for a binomial proportion.
  Unlike the naive normal approximation it stays inside ``[0, 1]`` and
  behaves sensibly at ``p = 0`` and ``p = 1`` (exactly the regimes
  completeness gates live in).
* :func:`two_prop_ztest` — the pooled two-proportion z-test, for "is cell A
  actually different from cell B, given this many repeats?".

Degenerate inputs are defined, not errors: zero trials yield the vacuous
interval ``(0, 1)`` and the vacuous verdict ``p = 1`` so a scenario whose
queries all failed to run still produces a well-formed report row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

__all__ = [
    "ConfidenceInterval",
    "ZTestResult",
    "wilson_ci",
    "two_prop_ztest",
    "normal_cdf",
    "z_for_confidence",
    "mean",
]


def normal_cdf(x: float) -> float:
    """Φ(x): the standard normal cumulative distribution function."""
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def z_for_confidence(confidence: float) -> float:
    """The two-sided critical value z such that Φ(z) − Φ(−z) = confidence.

    Solved by bisection on :func:`normal_cdf` — exact enough (±1e−9) for
    interval construction, with no dependency on scipy.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    target = 1.0 - (1.0 - confidence) / 2.0
    low, high = 0.0, 10.0
    for _ in range(80):
        mid = (low + high) / 2.0
        if normal_cdf(mid) < target:
            low = mid
        else:
            high = mid
    return (low + high) / 2.0


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; 0.0 for an empty sequence (report-friendly)."""
    return sum(values) / len(values) if values else 0.0


@dataclass(frozen=True)
class ConfidenceInterval:
    """A binomial proportion with its Wilson score interval."""

    proportion: float
    low: float
    high: float
    successes: int
    trials: int
    confidence: float

    def as_dict(self, precision: int = 4) -> dict[str, object]:
        """Flat JSON-ready form used by experiment report cells."""
        return {
            "proportion": round(self.proportion, precision),
            "ci_low": round(self.low, precision),
            "ci_high": round(self.high, precision),
            "successes": self.successes,
            "trials": self.trials,
            "confidence": self.confidence,
        }


def wilson_ci(
    successes: int, trials: int, confidence: float = 0.95
) -> ConfidenceInterval:
    """Wilson score interval for ``successes`` out of ``trials``.

    ``trials == 0`` returns the vacuous interval ``(0, 1)`` around a
    proportion of 0.0; ``successes`` outside ``[0, trials]`` is an error.
    """
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    if not 0 <= successes <= max(trials, 0):
        raise ValueError(f"successes must be in [0, {trials}], got {successes}")
    if trials == 0:
        return ConfidenceInterval(0.0, 0.0, 1.0, 0, 0, confidence)
    z = z_for_confidence(confidence)
    p = successes / trials
    z2 = z * z
    denominator = 1.0 + z2 / trials
    centre = (p + z2 / (2.0 * trials)) / denominator
    margin = (
        z * math.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials))
    ) / denominator
    return ConfidenceInterval(
        proportion=p,
        low=max(0.0, centre - margin),
        high=min(1.0, centre + margin),
        successes=successes,
        trials=trials,
        confidence=confidence,
    )


@dataclass(frozen=True)
class ZTestResult:
    """Outcome of a pooled two-proportion z-test."""

    z: float
    p_value: float
    proportion_a: float
    proportion_b: float

    @property
    def significant(self) -> bool:
        """Two-sided significance at the conventional 0.05 level."""
        return self.p_value < 0.05

    def as_dict(self, precision: int = 4) -> dict[str, object]:
        """Flat JSON-ready form used by experiment report cells."""
        return {
            "z": round(self.z, precision),
            "p_value": round(self.p_value, precision),
            "proportion_a": round(self.proportion_a, precision),
            "proportion_b": round(self.proportion_b, precision),
            "significant": self.significant,
        }


def two_prop_ztest(
    successes_a: int, trials_a: int, successes_b: int, trials_b: int
) -> ZTestResult:
    """Pooled two-proportion z-test (two-sided).

    Degenerate cells — either sample empty, or a pooled proportion of
    exactly 0 or 1 (no variance) — return the vacuous verdict ``z = 0,
    p = 1`` rather than dividing by zero: with no variation observed there
    is no evidence of a difference.
    """
    for label, successes, trials in (
        ("a", successes_a, trials_a),
        ("b", successes_b, trials_b),
    ):
        if trials < 0:
            raise ValueError(f"trials_{label} must be >= 0, got {trials}")
        if not 0 <= successes <= max(trials, 0):
            raise ValueError(
                f"successes_{label} must be in [0, {trials}], got {successes}"
            )
    if trials_a == 0 or trials_b == 0:
        return ZTestResult(0.0, 1.0, 0.0, 0.0)
    p_a = successes_a / trials_a
    p_b = successes_b / trials_b
    pooled = (successes_a + successes_b) / (trials_a + trials_b)
    variance = pooled * (1.0 - pooled) * (1.0 / trials_a + 1.0 / trials_b)
    if variance <= 0.0:
        return ZTestResult(0.0, 1.0, p_a, p_b)
    z = (p_a - p_b) / math.sqrt(variance)
    p_value = 2.0 * (1.0 - normal_cdf(abs(z)))
    return ZTestResult(z, min(1.0, max(0.0, p_value)), p_a, p_b)
