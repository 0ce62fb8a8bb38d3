"""Exception hierarchy shared by every subsystem of the reproduction.

All library errors derive from :class:`ReproError` so that callers can catch
one base class at API boundaries while still being able to discriminate the
failing subsystem.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` package."""


class XMLParseError(ReproError):
    """Raised when an XML document or fragment cannot be parsed."""


class PathSyntaxError(ReproError):
    """Raised when an XPath-lite expression cannot be parsed."""


class NamespaceError(ReproError):
    """Raised for malformed categories, hierarchies, or interest areas."""


class URNError(NamespaceError):
    """Raised when a URN cannot be encoded or decoded."""


class PlanError(ReproError):
    """Raised for structurally invalid query plans."""


class PlanSerializationError(PlanError):
    """Raised when a plan cannot be serialized to or parsed from XML."""


class EvaluationError(ReproError):
    """Raised when the local query engine cannot evaluate a plan."""


class ResourceBudgetExceeded(EvaluationError):
    """Raised when a pipeline-breaking operator overruns its memory budget.

    The streaming engine bounds the number of items a blocking operator
    (Join, OrderBy, TopN, Aggregate, Difference) may buffer at once.  When
    the bound would be exceeded the engine fails with this error instead of
    growing without limit — callers choose between raising the budget,
    rewriting the plan, or falling back to a partial answer.
    """


class CatalogError(ReproError):
    """Raised for invalid catalog registrations or lookups."""


class IntensionalStatementError(CatalogError):
    """Raised when an intensional statement is malformed or inconsistent."""


class BindingError(CatalogError):
    """Raised when a resource name cannot be bound to any source."""


class RoutingError(ReproError):
    """Raised when a mutant query plan cannot be routed any further."""


class PeerError(ReproError):
    """Raised for protocol violations between peers."""


class RegistrationError(PeerError):
    """Raised when a peer cannot register with the servers it needs."""


class SimulationError(ReproError):
    """Raised for misuse of the discrete-event network simulator."""


class APIError(ReproError):
    """Raised for misuse of the public :mod:`repro.api` surface."""


class QueryTimeout(APIError):
    """Raised when a query produced no answer within its wait window.

    Covers both an explicit deadline passing on the logical clock and the
    network going idle with the answer provably never arriving.
    """


class PeerOffline(APIError):
    """Raised when an operation requires a peer that is not online.

    Issuing a query from an offline peer — or waiting on a result whose
    target peer went offline mid-query — fails loudly with this error
    instead of silently producing no result.
    """


class QueryCancelled(APIError):
    """Raised when a result is requested for a query that was cancelled.

    ``QueryHandle.cancel()`` tears down the handle's watchers, marks the
    query dead at the issuing peer, and propagates a cancel notice along
    the plan's forwarding chain; any later ``result()`` call fails with
    this error instead of waiting for an answer that will be discarded.
    """


class WorkloadError(ReproError):
    """Raised when a workload generator receives invalid parameters."""


class ProvenanceError(ReproError):
    """Raised for malformed provenance records or failed verification."""
