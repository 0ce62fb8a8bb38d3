"""Pluggable message transports: deterministic simulator and real sockets.

:class:`AsyncioTransport` is resolved on first access, so a simulated run
never imports asyncio.
"""

from .base import TRANSPORT_KINDS, Transport, TransportError, build_transport
from .sim import SimTransport
from .wire import decode_frame, encode_frame

__all__ = [
    "Transport",
    "TransportError",
    "TRANSPORT_KINDS",
    "build_transport",
    "SimTransport",
    "AsyncioTransport",
    "encode_frame",
    "decode_frame",
]


def __getattr__(name: str):
    if name == "AsyncioTransport":
        from .aio import AsyncioTransport

        return AsyncioTransport
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
