"""Shared fixtures for the test suite, plus flaky-test hardening hooks.

``REPRO_TEST_ORDER`` reorders collection to smoke out order-dependent
tests: ``reverse`` runs the suite backwards, ``shuffle`` (or
``shuffle:<seed>``) runs a seeded random permutation.  CI runs the tier-1
suite both ways.  Every failing test also gets a ``repro seeds`` section
naming the RNG seeds its scenario consumed, so a flake reproduces from the
failure output alone.
"""

from __future__ import annotations

import os
import random
from collections import deque

import pytest

from repro.namespace import garage_sale_namespace, gene_expression_namespace
from repro.rng import Generator
from repro.xmlmodel import XMLElement, element, text_element


def pytest_collection_modifyitems(config, items):
    """Honor REPRO_TEST_ORDER=reverse|shuffle[:seed] for order-dependence hunts."""
    order = os.environ.get("REPRO_TEST_ORDER", "")
    if not order:
        return
    if order == "reverse":
        items.reverse()
    elif order.startswith("shuffle"):
        seed = int(order.split(":", 1)[1]) if ":" in order else 0
        random.Random(seed).shuffle(items)
    else:
        raise pytest.UsageError(
            f"REPRO_TEST_ORDER must be 'reverse' or 'shuffle[:seed]', got {order!r}"
        )


_SEEDS = pytest.StashKey[deque]()


@pytest.fixture(autouse=True)
def _record_seeds(request, monkeypatch):
    """Record the seed of every RNG the test builds (the last 16).

    The patch is on the generator itself, so it sees every one however
    it was made — ``make_rng``, ``default_rng`` or the class.
    """
    seeds: deque[int] = deque(maxlen=16)
    request.node.stash[_SEEDS] = seeds
    build = Generator.__init__

    def recording(self, seed=None):
        if seed is not None:
            seeds.append(int(seed))
        build(self, seed)

    monkeypatch.setattr(Generator, "__init__", recording)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    """Attach the RNG seeds to every failed-test report."""
    outcome = yield
    report = outcome.get_result()
    if report.when == "call" and report.failed:
        seeds = list(item.stash.get(_SEEDS, ()))
        if seeds:
            report.sections.append(
                ("repro seeds", f"RNG seeds consumed (oldest first): {seeds}")
            )


@pytest.fixture()
def namespace():
    """The garage-sale Location x Merchandise namespace."""
    return garage_sale_namespace()


@pytest.fixture()
def gene_namespace():
    """The Organism x CellType namespace of Figure 1."""
    return gene_expression_namespace()


def make_item(title: str, price: float, city: str = "USA/OR/Portland",
              category: str = "Music/CDs", seller: str = "seller:9020") -> XMLElement:
    """Build a garage-sale item bundle."""
    return element(
        "item",
        {"id": f"{seller}-{title}"},
        text_element("title", title),
        text_element("price", price),
        text_element("city", city),
        text_element("category", category),
        text_element("seller", seller),
    )


@pytest.fixture()
def cd_items():
    """A small collection of CD items with varied prices."""
    return [
        make_item("Abbey Road", 8.0),
        make_item("Kind of Blue", 12.5),
        make_item("Blue Train", 6.0),
        make_item("Giant Steps", 15.0),
        make_item("Green Onions", 9.5),
    ]


@pytest.fixture()
def furniture_items():
    """A small collection of furniture items in two cities."""
    return [
        make_item("Oak Table", 120.0, category="Furniture/Tables"),
        make_item("Armchair", 60.0, category="Furniture/Chairs/Armchairs"),
        make_item("Desk Chair", 45.0, city="USA/WA/Vancouver", category="Furniture/Chairs/OfficeChairs"),
        make_item("Sofa", 200.0, city="USA/WA/Seattle", category="Furniture/Sofas"),
    ]
