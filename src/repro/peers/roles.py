"""Conventional role classes built on :class:`QueryPeer` (paper §3.2)."""

from __future__ import annotations

from dataclasses import replace

from ..catalog import ServerRole
from ..namespace import InterestArea, MultiHierarchicNamespace
from .peer import QueryPeer, RegistrationPayload

__all__ = ["BaseServer", "IndexServer", "MetaIndexServer", "ClientPeer"]


class BaseServer(QueryPeer):
    """A peer that "maintains or replicates named collections of data within an interest area"."""

    def __init__(
        self,
        address: str,
        namespace: MultiHierarchicNamespace,
        interest_area: InterestArea,
    ) -> None:
        super().__init__(address, namespace, roles=(ServerRole.BASE,), interest_area=interest_area)


class IndexServer(QueryPeer):
    """A peer that "keeps track of base servers, and other index servers
    with interest areas overlapping its own"."""

    def __init__(
        self,
        address: str,
        namespace: MultiHierarchicNamespace,
        interest_area: InterestArea,
        authoritative: bool = True,
    ) -> None:
        super().__init__(
            address,
            namespace,
            roles=(ServerRole.INDEX,),
            interest_area=interest_area,
            authoritative=authoritative,
        )


class MetaIndexServer(QueryPeer):
    """An index server that maintains only multi-hierarchic namespace indices.

    Meta-index servers "can afford to cover much larger interest areas than
    index servers, because they only maintain multi-hierarchic namespace
    indices": when registrations arrive, the detailed collection lists are
    dropped and only the (address, role, interest area) triple is retained.
    """

    def __init__(
        self,
        address: str,
        namespace: MultiHierarchicNamespace,
        interest_area: InterestArea | None = None,
        authoritative: bool = True,
    ) -> None:
        super().__init__(
            address,
            namespace,
            roles=(ServerRole.META_INDEX,),
            interest_area=interest_area or namespace.top_area(),
            authoritative=authoritative,
        )

    def adopt_registration(self, payload: RegistrationPayload) -> None:
        # A copy: the payload is the sender's own object on ``sim``, and the
        # one a reliable transfer keeps for retransmission.
        entry = replace(payload.entry, collections=[])
        super().adopt_registration(replace(payload, entry=entry))


class ClientPeer(QueryPeer):
    """A peer used (primarily) to issue queries and receive results."""

    def __init__(
        self,
        address: str,
        namespace: MultiHierarchicNamespace,
        interest_area: InterestArea | None = None,
    ) -> None:
        super().__init__(
            address,
            namespace,
            roles=(ServerRole.CLIENT,),
            interest_area=interest_area or namespace.top_area(),
        )
