"""Pluggable message transports: deterministic simulator and real sockets."""

from .aio import AsyncioTransport
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
