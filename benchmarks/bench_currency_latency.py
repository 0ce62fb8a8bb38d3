"""EXP-CURRENCY — complete versus current versus fast answers (§4.3).

A replicated deployment (one fresh primary R and two mirrors S and T, each
at most 30 minutes behind it, per the paper's example) is bound once.  For
each preference the table reports the servers and the staleness bound of
the alternative :class:`~repro.mqp.PolicyManager` picks — the one every
MQP server binds — the measurable version of §4.3's "fast but possibly
stale versus complete and current" choice.
"""

from __future__ import annotations

import pytest

from repro.catalog import (
    Binder,
    Catalog,
    CollectionRef,
    IntensionalStatement,
    ServerEntry,
    ServerRole,
)
from repro.harness import format_table
from repro.mqp import PolicyManager, QueryPreferences
from repro.namespace import garage_sale_namespace
from conftest import emit


@pytest.fixture(scope="module")
def binding():
    namespace = garage_sale_namespace()
    portland = namespace.area(["USA/OR/Portland", "*"])
    catalog = Catalog("M")
    for address in ("R:9020", "S:9020", "T:9020"):
        catalog.register_server(
            ServerEntry(address, ServerRole.BASE, portland, collections=[CollectionRef(address, "/data")])
        )
    catalog.register_statement(
        IntensionalStatement.parse(
            "base[(USA.OR.Portland,*)]@R:9020 >= base[(USA.OR.Portland,*)]@S:9020{30}"
        )
    )
    catalog.register_statement(
        IntensionalStatement.parse(
            "base[(USA.OR.Portland,*)]@R:9020 >= base[(USA.OR.Portland,*)]@T:9020{30}"
        )
    )
    return Binder(catalog).bind_area(namespace.area(["USA/OR/Portland", "Music/CDs"]))


def test_preference_choice(benchmark, binding):
    policy = PolicyManager()

    def choose_all():
        rows = []
        for prefer in QueryPreferences.VALID:
            alternative = policy.choose_alternative(binding, QueryPreferences(prefer=prefer))
            rows.append(
                {
                    "prefer": prefer,
                    "servers": alternative.server_count,
                    "staleness_min": alternative.max_delay_minutes,
                }
            )
        return rows

    rows = benchmark(choose_all)
    emit("EXP-CURRENCY  Chosen alternative per preference", format_table(rows))
    by_prefer = {row["prefer"]: (row["servers"], row["staleness_min"]) for row in rows}
    # Complete and current ask every server and use no stale replica; fast
    # asks one server fewer and accepts a mirror's 30-minute bound.
    assert by_prefer == {"complete": (3, 0.0), "current": (3, 0.0), "fast": (2, 30.0)}
