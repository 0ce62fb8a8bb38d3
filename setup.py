"""Setuptools entry point.

All metadata lives here (rather than in ``pyproject.toml``) so that
editable installs work in offline environments whose setuptools predates
full PEP 660 support (no ``wheel`` package available).
"""

import pathlib

from setuptools import find_packages, setup

ROOT = pathlib.Path(__file__).parent
README = ROOT / "README.md"

setup(
    name="repro-p2p-mqp",
    version="1.5.0",
    description=(
        "Reproduction of 'Distributed Query Processing and Catalogs for "
        "Peer-to-Peer Systems' (CIDR 2003): mutant query plans, "
        "multi-hierarchic namespaces, a thousand-peer simulation harness, "
        "a pluggable transport layer with a real asyncio TCP backend, and "
        "a first-class client API (repro.api)"
    ),
    long_description=README.read_text(encoding="utf-8") if README.exists() else "",
    long_description_content_type="text/markdown",
    author="paper-repo-growth",
    license="MIT",
    package_dir={"": "src"},
    packages=find_packages("src"),
    # PEP 561: the package ships inline types (py.typed marker).
    package_data={"repro": ["py.typed"]},
    python_requires=">=3.10",
    # Standard library only.  numpy and networkx are the oracles of the
    # differential tests (tests/oracles/), so they are test extras.
    install_requires=[],
    extras_require={
        "test": ["pytest", "hypothesis", "numpy", "networkx>=3"],
        "bench": ["pytest", "pytest-benchmark"],
        # CI toolchain: pinned so lint/typecheck failures mean code
        # changes, not tool drift.  pytest-timeout guards the real-socket
        # transport tests against hung sockets wedging the suite.
        "dev": [
            "pytest",
            "pytest-benchmark",
            "pytest-timeout==2.3.1",
            "hypothesis",
            "numpy",
            "networkx>=3",
            "ruff==0.8.4",
            "mypy==1.13.0",
        ],
    },
    entry_points={
        "console_scripts": [
            "repro = repro.harness.cli:main",
        ],
    },
    classifiers=[
        "Programming Language :: Python :: 3.10",
        "Programming Language :: Python :: 3.11",
        "Programming Language :: Python :: 3.12",
        "Programming Language :: Python :: 3.13",
        "Topic :: Database",
        "Topic :: System :: Distributed Computing",
    ],
)
