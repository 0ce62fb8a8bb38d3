"""Shared helpers for the benchmark suite.

Every benchmark reproduces one of the paper's figures or qualitative
claims: it prints the table or series it reproduces and asserts the
claim.  ``pytest-benchmark`` times the core operation when timing is on;
``--benchmark-disable`` runs the suite as plain, untimed checks.  What a
change costs is measured by the end-to-end driver instead
(``benchmarks/e2e/README.md``).
"""

from __future__ import annotations


def emit(title: str, body: str) -> None:
    """Print a reproduced table/series under a recognizable banner."""
    print(f"\n=== {title} ===\n{body}\n")
