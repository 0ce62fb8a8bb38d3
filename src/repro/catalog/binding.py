"""Binding resource names to sources, using intensional statements (paper §4.2).

Given a query interest area, the binder produces a *binding*: a conjoint
union ("or") of alternatives, where each alternative is a set of sources
whose union covers the requested data.  Without intensional statements the
only alternative is the union of every known overlapping base server (the
"implicit semantics" of §4.1).  Intensional statements add alternatives
that:

* drop redundant servers (Example 1 — ``R = S`` over the query area means
  the plan "could be routed to either R or S, but it need not go to both"),
* trade an index server for the base servers it covers (Example 2),
* trade currency for latency (Example 3 / §4.3 — a single, possibly stale
  replica versus the complete, current union).

Each alternative records the number of servers it contacts and its
staleness bound so the policy manager can choose under the query preferences.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..algebra.operators import PlanNode, Union as UnionOp, URLRef, URNRef
from ..errors import BindingError
from ..namespace import InterestArea
from .catalog import Catalog
from .entries import CollectionRef, ServerRole, WHOLE_SERVER
from .intensional import CatalogLevel, IntensionalStatement, Relation

__all__ = ["BoundSource", "BindingAlternative", "Binding", "Binder"]


@dataclass(frozen=True)
class BoundSource:
    """One source inside a binding alternative.

    ``collection`` is set for concrete data collections at base servers;
    when it is ``None`` the source means "route the plan to ``server`` for
    further resolution" (an index or meta-index server).
    """

    server: str
    collection: CollectionRef | None = None
    delay_minutes: float = 0.0

    @property
    def is_concrete(self) -> bool:
        """True for a directly fetchable collection."""
        return self.collection is not None


@dataclass
class BindingAlternative:
    """A set of sources whose union answers the query (one "or" branch)."""

    sources: list[BoundSource]
    description: str = ""

    @property
    def servers(self) -> list[str]:
        """Distinct servers this alternative contacts, sorted."""
        return sorted({source.server for source in self.sources})

    @property
    def server_count(self) -> int:
        """Number of distinct servers contacted."""
        return len(self.servers)

    @property
    def max_delay_minutes(self) -> float:
        """Staleness bound of the alternative (max across sources)."""
        if not self.sources:
            return 0.0
        return max(source.delay_minutes for source in self.sources)

    @property
    def is_concrete(self) -> bool:
        """True when every source is a directly fetchable collection."""
        return bool(self.sources) and all(source.is_concrete for source in self.sources)

    def to_plan_node(self, fallback_urn: str | None = None) -> PlanNode:
        """Render the alternative as a plan fragment (union of URL leaves).

        Routing sources (no concrete collection) are rendered as the
        original URN so the plan stays resolvable downstream; this needs
        ``fallback_urn``.
        """
        leaves: list[PlanNode] = []
        for source in self.sources:
            if source.collection is not None:
                path = source.collection.path
                # WHOLE_SERVER refs fetch the union of the server's local
                # collections (the catalog only knew the server, not its
                # collection layout).
                leaves.append(URLRef(source.collection.url, None if path == WHOLE_SERVER else path))
            else:
                if fallback_urn is None:
                    raise BindingError(
                        "routing source in alternative but no fallback URN provided"
                    )
                leaves.append(URNRef(fallback_urn))
        if not leaves:
            raise BindingError("cannot render an empty binding alternative")
        if len(leaves) == 1:
            return leaves[0]
        return UnionOp(leaves)


@dataclass
class Binding:
    """The conjoint union of alternatives produced for one resource name."""

    area: InterestArea
    alternatives: list[BindingAlternative] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.alternatives:
            raise BindingError(f"no binding alternatives for area {self.area}")

    @property
    def default(self) -> BindingAlternative:
        """The complete/current alternative (always first)."""
        return self.alternatives[0]

    def fewest_servers(self) -> BindingAlternative:
        """The alternative contacting the fewest servers (ties: most current)."""
        return min(self.alternatives, key=lambda alt: (alt.server_count, alt.max_delay_minutes))

    def most_current(self) -> BindingAlternative:
        """The alternative with the smallest staleness bound (ties: fewest servers)."""
        return min(self.alternatives, key=lambda alt: (alt.max_delay_minutes, alt.server_count))


class Binder:
    """Builds bindings from a catalog, applying intensional statements."""

    def __init__(self, catalog: Catalog) -> None:
        self.catalog = catalog

    # -- public API ------------------------------------------------------------ #

    def bind_area(self, area: InterestArea) -> Binding | None:
        """Bind a query interest area to sources known by this catalog.

        Returns ``None`` when the catalog knows nothing relevant (the
        caller should then route the plan toward an authoritative server).
        """
        default = self._default_alternative(area)
        if default is None:
            return None
        alternatives = [default]
        alternatives.extend(self._statement_alternatives(area, default))
        return Binding(area, self._deduplicate(alternatives))

    # -- building blocks ---------------------------------------------------------- #

    def _default_alternative(self, area: InterestArea) -> BindingAlternative | None:
        sources: list[BoundSource] = []
        for entry in self.catalog.servers_overlapping(area, roles=(ServerRole.BASE,)):
            for collection in entry.collections:
                sources.append(BoundSource(entry.address, collection))
            if not entry.collections:
                sources.append(
                    BoundSource(entry.address, CollectionRef(entry.address, WHOLE_SERVER))
                )
        if not sources:
            return None
        return BindingAlternative(sources, description="union of all overlapping base servers")

    def _statement_alternatives(
        self, area: InterestArea, default: BindingAlternative
    ) -> list[BindingAlternative]:
        alternatives: list[BindingAlternative] = []
        default_servers = set(default.servers)

        for statement in self.catalog.statements_for(CatalogLevel.BASE, area):
            alternatives.extend(
                self._base_level_alternatives(statement, default, default_servers)
            )

        # The level+area statement index answers exactly the "INDEX-level
        # statement whose lhs area covers the query" question, so the seed's
        # full-list scan is replaced by an indexed lookup (same order).
        for statement in self.catalog.statements_for(CatalogLevel.INDEX, area):
            if any(holding.level != CatalogLevel.BASE for holding in statement.rhs):
                continue
            alternatives.extend(self._index_level_alternatives(statement, area))
        return alternatives

    def _base_level_alternatives(
        self,
        statement: IntensionalStatement,
        default: BindingAlternative,
        default_servers: set[str],
    ) -> list[BindingAlternative]:
        lhs_server = statement.lhs.server
        rhs_servers = set(statement.rhs_servers())
        alternatives: list[BindingAlternative] = []

        # Keeping only the left-hand server for the data the rhs would have
        # contributed is valid for both '=' and '>=' statements.
        if rhs_servers & default_servers:
            reduced = [
                source for source in default.sources if source.server not in rhs_servers
            ]
            if not any(source.server == lhs_server for source in reduced):
                reduced.append(self._source_for_server(lhs_server, statement.max_rhs_delay))
            else:
                reduced = [
                    BoundSource(
                        source.server,
                        source.collection,
                        max(source.delay_minutes, statement.max_rhs_delay),
                    )
                    if source.server == lhs_server
                    else source
                    for source in reduced
                ]
            alternatives.append(
                BindingAlternative(
                    reduced,
                    description=f"prefer {lhs_server} over {sorted(rhs_servers)} ({statement.relation.value})",
                )
            )

        # For equality statements the converse also holds: drop the lhs
        # server and keep the right-hand servers (Example 1's "either R or S").
        if statement.relation is Relation.EQUALS and lhs_server in default_servers:
            reduced = [source for source in default.sources if source.server != lhs_server]
            missing = rhs_servers - {source.server for source in reduced}
            for server in sorted(missing):
                reduced.append(self._source_for_server(server, 0.0))
            if reduced:
                alternatives.append(
                    BindingAlternative(
                        reduced,
                        description=f"prefer {sorted(rhs_servers)} over {lhs_server} (=)",
                    )
                )
        return alternatives

    def _index_level_alternatives(
        self, statement: IntensionalStatement, area: InterestArea
    ) -> list[BindingAlternative]:
        # Example 2: the resource can be bound to the index server (routing
        # source) or directly to the base servers it covers.
        route = BindingAlternative(
            [BoundSource(statement.lhs.server, None, statement.lhs.delay_minutes)],
            description=f"route to index server {statement.lhs.server}",
        )
        direct = BindingAlternative(
            [
                self._source_for_server(holding.server, holding.delay_minutes)
                for holding in statement.rhs
            ],
            description=f"directly contact base servers {statement.rhs_servers()}",
        )
        return [route, direct]

    def _source_for_server(self, address: str, delay_minutes: float) -> BoundSource:
        entry = self.catalog.servers.get(address)
        if entry is not None and entry.collections:
            return BoundSource(address, entry.collections[0], delay_minutes)
        return BoundSource(address, CollectionRef(address, WHOLE_SERVER), delay_minutes)

    @staticmethod
    def _deduplicate(alternatives: list[BindingAlternative]) -> list[BindingAlternative]:
        seen: set[tuple] = set()
        unique: list[BindingAlternative] = []
        for alternative in alternatives:
            key = tuple(sorted((source.server, str(source.collection)) for source in alternative.sources))
            if key in seen:
                continue
            seen.add(key)
            unique.append(alternative)
        return unique
