"""Provenance carried inside mutant query plans (paper §5.1).

"An MQP can also carry along a history of all the servers it has visited,
as well as what each one did (provided bindings, provided data, re-optimized
the MQP, evaluated a sub-expression, or merely forwarded the MQP), when it
did it, and how current the information was."

The provenance log is serialized with the plan, so every server (and the
final client) can judge answer quality, detect spoofing, reward helpful
indexers, or improve its own catalog from what it observes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from ..errors import ProvenanceError
from ..xmlmodel import XMLElement, quoteattr

__all__ = ["ProvenanceAction", "ProvenanceRecord", "ProvenanceLog", "number_text"]


def number_text(value: float) -> str:
    """The wire text of a budget or staleness: the short ``:g`` form when it
    reads back as the same float, the exact ``repr`` when it would not."""
    text = f"{value:g}"
    return text if float(text) == value else repr(float(value))


class ProvenanceAction(str, Enum):
    """What a server did to the plan while it held it."""

    BOUND = "bound"          # resolved a URN to URLs / data sources
    RESOLVED = "resolved"    # replaced a URL with its data
    EVALUATED = "evaluated"  # reduced a sub-plan to verbatim data
    REOPTIMIZED = "reoptimized"
    FORWARDED = "forwarded"
    DELIVERED = "delivered"


_ACTIONS = {action.value: action for action in ProvenanceAction}
"""Wire text -> action: a dict lookup, not the enum's call machinery."""


@dataclass(frozen=True)
class ProvenanceRecord:
    """One entry of the provenance log.

    A record is immutable, and so is its ``<visit/>`` text once written
    (:meth:`to_text`): a record that arrived writes back the attributes it
    was parsed from, a new one is written from its fields.  Every log
    holding the record (each piece of a scatter copies the list, not the
    records) shares that one text.
    """

    server: str
    action: ProvenanceAction
    time: float
    detail: str = ""
    staleness_minutes: float = 0.0

    def to_text(self) -> str:
        """The record as one ``<visit/>`` element's text, attributes in name order."""
        text = self.__dict__.get("_text")
        if text is None:
            arrived = self.__dict__.get("_attributes")
            if arrived is not None:
                text = "<visit" + "".join(
                    f" {name}={quoteattr(value)}" for name, value in sorted(arrived.items())
                ) + "/>"
            else:
                detail = f" detail={quoteattr(self.detail)}" if self.detail else ""
                staleness = (
                    f" staleness={quoteattr(number_text(self.staleness_minutes))}"
                    if self.staleness_minutes
                    else ""
                )
                text = (
                    f"<visit action={quoteattr(self.action.value)}{detail}"
                    f' server={quoteattr(self.server)}{staleness} time="{self.time:.3f}"/>'
                )
            object.__setattr__(self, "_text", text)
        return text

    @classmethod
    def from_xml(cls, element: XMLElement) -> "ProvenanceRecord":
        """Parse one ``<visit>`` element, whose attributes the record writes back."""
        server = element.get("server")
        action = _ACTIONS.get(element.get("action"))  # type: ignore[arg-type]
        time = element.get("time")
        if server is None or action is None or time is None:
            raise ProvenanceError(f"malformed <visit> element: {element.attributes}")
        try:
            record = cls(
                server=server,
                action=action,
                time=float(time),
                detail=element.get("detail", "") or "",
                staleness_minutes=float(element.get("staleness", "0") or 0.0),
            )
        except ValueError:
            raise ProvenanceError(f"malformed <visit> element: {element.attributes}") from None
        object.__setattr__(record, "_attributes", element.attributes)
        return record


@dataclass
class ProvenanceLog:
    """The ordered history of everything that happened to a plan."""

    records: list[ProvenanceRecord] = field(default_factory=list)

    def add(
        self,
        server: str,
        action: ProvenanceAction,
        time: float,
        detail: str = "",
        staleness_minutes: float = 0.0,
    ) -> ProvenanceRecord:
        """Append a record and return it."""
        record = ProvenanceRecord(server, action, time, detail, staleness_minutes)
        self.records.append(record)
        return record

    # -- queries ---------------------------------------------------------------- #

    def visited_servers(self) -> list[str]:
        """Every server that handled the plan, in first-visit order."""
        seen: list[str] = []
        for record in self.records:
            if record.server not in seen:
                seen.append(record.server)
        return seen

    def actions_by(self, server: str) -> list[ProvenanceRecord]:
        """Everything one server did to the plan."""
        return [record for record in self.records if record.server == server]

    def evaluations(self) -> list[ProvenanceRecord]:
        """Records of sub-plan evaluations."""
        return [record for record in self.records if record.action is ProvenanceAction.EVALUATED]

    def hop_count(self) -> int:
        """Number of forward hops the plan took."""
        return sum(1 for record in self.records if record.action is ProvenanceAction.FORWARDED)

    def max_staleness(self) -> float:
        """Largest staleness bound among the data used (judging answer currency)."""
        if not self.records:
            return 0.0
        return max(record.staleness_minutes for record in self.records)

    def servers_that_bound(self, resource: str) -> list[str]:
        """Servers that claim to have bound the named resource."""
        return [
            record.server
            for record in self.records
            if record.action is ProvenanceAction.BOUND and resource in record.detail
        ]

    # -- spoof detection (§5.1) ---------------------------------------------------- #

    def suspicious_resources(self, expected_resources: list[str]) -> list[str]:
        """Resources that were expected but never bound or evaluated by anyone.

        In the paper's example, server S binds a competitor's source B to the
        empty set: the provenance then shows the plan never visited any
        server for B, which is the trigger for sending a verification query.
        """
        suspicious = []
        for resource in expected_resources:
            touched = any(
                resource in record.detail
                and record.action in (ProvenanceAction.BOUND, ProvenanceAction.EVALUATED, ProvenanceAction.RESOLVED)
                for record in self.records
            )
            if not touched:
                suspicious.append(resource)
        return suspicious

    # -- serialization -------------------------------------------------------------- #

    def to_text(self) -> str:
        """The whole log as one ``<provenance>`` element's text."""
        if not self.records:
            return "<provenance/>"
        return "<provenance>" + "".join(record.to_text() for record in self.records) + "</provenance>"

    @classmethod
    def from_xml(cls, element: XMLElement) -> "ProvenanceLog":
        """Parse a ``<provenance>`` element."""
        if element.tag != "provenance":
            raise ProvenanceError(f"expected <provenance>, got <{element.tag}>")
        return cls([ProvenanceRecord.from_xml(child) for child in element.find_all("visit")])

    def __len__(self) -> int:
        return len(self.records)
