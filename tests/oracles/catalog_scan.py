"""Linear catalog scans: the oracle for the catalog's trie-backed ``AreaIndex`` lookups.

Each function answers one ``Catalog`` lookup by walking every entry and
sorting the matches by address — what the catalog did before it was
indexed.  The index must return the identical list, order included.
"""

from __future__ import annotations

from repro.catalog import Catalog, CatalogLevel, IntensionalStatement, ServerEntry, ServerRole
from repro.namespace import InterestArea

Roles = tuple[ServerRole, ...] | None


def _by_address(entries) -> list[ServerEntry]:
    return sorted(entries, key=lambda entry: entry.address)


def scan_overlapping(catalog: Catalog, area: InterestArea, roles: Roles = None) -> list[ServerEntry]:
    return _by_address(
        entry for entry in catalog.servers.values()
        if entry.area.overlaps(area) and (roles is None or entry.role in roles)
    )


def scan_covering(catalog: Catalog, area: InterestArea, roles: Roles = None) -> list[ServerEntry]:
    return _by_address(
        entry for entry in catalog.servers.values()
        if entry.covers(area) and (roles is None or entry.role in roles)
    )


def scan_with_roles(catalog: Catalog, roles: tuple[ServerRole, ...]) -> list[ServerEntry]:
    return _by_address(entry for entry in catalog.servers.values() if entry.role in roles)


def scan_statements(
    catalog: Catalog, level: CatalogLevel, area: InterestArea
) -> list[IntensionalStatement]:
    return [
        statement for statement in catalog.statements
        if statement.lhs.level == level and statement.lhs.area.covers(area)
    ]
