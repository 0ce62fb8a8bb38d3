"""Length-prefixed wire framing for real-socket transports (version 3).

A frame is a 4-byte big-endian length followed by a binary body::

    body    := version(u8=3) | envelope | payload
    envelope:= sender | recipient | kind        (u16 length + UTF-8 each)
               message_id(u64) | size_bytes(u64) | sent_at(f64)
               hop(u32) | attempt(u32) | transfer (u16 length + UTF-8,
               0xFFFF = none)
    payload := TEXT(u8=0)     raw UTF-8 to end of frame
             | VALUE(u8=1)    one tagged value (:mod:`.codec`)
             | DOCUMENT(u8=2) tagged metadata value, then the document as
                              raw UTF-8 to end of frame

``str`` payloads — the common case: a mutant query plan travels as its
serialized XML document — ship as raw UTF-8, so what crosses the socket
for an MQP is exactly the paper's wire form.  Result envelopes (dicts
carrying a ``document`` string) ship their metadata as one tagged value
plus the document as raw UTF-8; the frame length bounds both, so neither
needs its own length prefix.  Everything else is a tagged codec value.

Version negotiation is rejection: the decoder accepts exactly version 3
and raises :class:`TransportError` otherwise — a v2 body (one more slot
between envelope and payload) is refused at its first byte, never
half-read.  A v1 (pickled) body began with pickle's ``0x80`` opcode, so a
stale peer is told apart from stream corruption by the error message, not
by guessing.  There is no pickle anywhere on this path — see :mod:`.codec`
for why that is a security property, not just a performance one.

Encoding reuses one persistent buffer per :class:`FrameEncoder` (the
module-level :func:`encode_frame` owns one for the transport thread): the
payload is rendered first, so the whole envelope — length prefix included —
is one ``pack_into`` with a layout compiled once per set of text lengths.
"""

from __future__ import annotations

import struct

from ...errors import SimulationError
from ..message import Message
from .base import TransportError
from .codec import CodecWriter, encode_value, read_value, shared_text

__all__ = [
    "HEADER",
    "MAX_FRAME_BYTES",
    "WIRE_VERSION",
    "FrameEncoder",
    "encode_frame",
    "decode_frame",
]

HEADER = struct.Struct("!I")
"""The length prefix: one unsigned 32-bit big-endian integer."""

MAX_FRAME_BYTES = 64 * 1024 * 1024
"""Sanity cap on a single frame; a larger one indicates stream corruption."""

WIRE_VERSION = 3
"""The one body version this build speaks.  Anything else is rejected."""

_TEXT = 0
_VALUE = 1
_DOCUMENT = 2

_NO_TRANSFER = 0xFFFF

# The fixed-width envelope tail, unpacked in one struct call — the frame path
# is hot enough that per-field pack/unpack calls were the dominant cost, not
# the byte shuffling itself.
_FIXED = struct.Struct("!qqdII")
_ENVELOPE = "!IBH%dsH%dsH%dsqqdIIH%dsB"
"""Length prefix, version, the three length-prefixed texts, the fixed tail,
the transfer id and the payload tag — one ``pack_into`` per frame (``%d``
slots are the text lengths: near-constant within a scenario, so an encoder
keeps the compiled layouts)."""


def _is_document_envelope(payload: object) -> bool:
    return isinstance(payload, dict) and isinstance(payload.get("document"), str)


class FrameEncoder:
    """Reusable frame encoder: one growing buffer, zero per-frame headers.

    Not thread-safe — the asyncio transport encodes from its drive thread
    and owns one.
    """

    LAYOUT_MEMORY = 1024  # compiled envelope layouts kept; dropped whole when full

    __slots__ = ("_writer", "_layouts")

    def __init__(self) -> None:
        self._writer = CodecWriter()
        self._layouts: dict[tuple[int, int, int, int], struct.Struct] = {}

    def encode(self, message: Message) -> bytes:
        """Render ``message`` as one framed blob."""
        sender = message.sender.encode("utf-8")
        recipient = message.recipient.encode("utf-8")
        kind = message.kind.encode("utf-8")
        transfer = b"" if message.transfer is None else message.transfer.encode("utf-8")
        lengths = (len(sender), len(recipient), len(kind), len(transfer))
        if max(lengths) >= _NO_TRANSFER:
            raise SimulationError(f"envelope field too long for the wire ({max(lengths)} bytes)")
        # The payload first: its length is the one part of the prefix that is
        # not known up front, and knowing it means no backfill.
        payload = message.payload
        if type(payload) is str:
            # The common case — a document as raw UTF-8.
            tag, body = _TEXT, payload.encode("utf-8")
        elif _is_document_envelope(payload):
            meta = {key: value for key, value in payload.items() if key != "document"}
            tag, body = _DOCUMENT, encode_value(meta) + payload["document"].encode("utf-8")
        else:
            tag, body = _VALUE, encode_value(payload)
        layout = self._layouts.get(lengths)
        if layout is None:
            if len(self._layouts) >= self.LAYOUT_MEMORY:
                self._layouts.clear()
            layout = self._layouts[lengths] = struct.Struct(_ENVELOPE % lengths)
        end = layout.size + len(body)
        if end - HEADER.size > MAX_FRAME_BYTES:
            raise SimulationError(
                f"frame for message #{message.message_id} exceeds {MAX_FRAME_BYTES} bytes"
            )
        writer = self._writer
        writer.reset()
        writer.reserve(layout.size)
        # Everything up to the payload in one struct call.  An absent transfer
        # id is the length 0xFFFF over no bytes — the slot an empty one packs.
        layout.pack_into(
            writer.buf, 0,
            end - HEADER.size, WIRE_VERSION,
            lengths[0], sender, lengths[1], recipient, lengths[2], kind,
            message.message_id, message.size_bytes, message.sent_at,
            message.hop, message.attempt,
            _NO_TRANSFER if message.transfer is None else lengths[3], transfer, tag,
        )
        writer.raw(body)
        return bytes(memoryview(writer.buf)[:end])


_DEFAULT_ENCODER = FrameEncoder()


def encode_frame(message: Message) -> bytes:
    """Render ``message`` as one length-prefixed frame (shared encoder)."""
    return _DEFAULT_ENCODER.encode(message)


def decode_frame(body: "bytes | memoryview") -> Message:
    """Rebuild a :class:`Message` from one frame body (sans length prefix).

    The original ``message_id`` is preserved — it is the delivery key the
    receiving transport matches logical events against — and the global
    message counter is left untouched.  The envelope's texts, like every
    short string in the payload, come out of the codec's shared table.
    Every malformation raises :class:`TransportError`.
    """
    data = body if type(body) is bytes else bytes(body)
    total = len(data)
    try:
        version = data[0]
        if version != WIRE_VERSION:
            detail = " (a pickled v1 frame?)" if version == 0x80 else ""
            raise TransportError(
                f"unsupported wire version {version}{detail}; this build speaks "
                f"version {WIRE_VERSION} only"
            )
        # Bounds are checked before every slice: slicing a short memoryview
        # silently truncates instead of raising, so a clipped frame would
        # otherwise decode into garbage rather than a TransportError.  The
        # three text reads are unrolled — this is the per-frame hot path.
        pos = 3
        if pos > total:
            raise TransportError("truncated frame envelope")
        end = pos + ((data[1] << 8) | data[2])
        if end > total:
            raise TransportError("truncated frame envelope")
        sender = shared_text(data[pos:end].decode("utf-8"))
        pos = end + 2
        if pos > total:
            raise TransportError("truncated frame envelope")
        end = pos + ((data[end] << 8) | data[end + 1])
        if end > total:
            raise TransportError("truncated frame envelope")
        recipient = shared_text(data[pos:end].decode("utf-8"))
        pos = end + 2
        if pos > total:
            raise TransportError("truncated frame envelope")
        end = pos + ((data[end] << 8) | data[end + 1])
        if end > total:
            raise TransportError("truncated frame envelope")
        kind = shared_text(data[pos:end].decode("utf-8"))
        pos = end
        if pos + _FIXED.size > total:
            raise TransportError("truncated frame envelope")
        message_id, size_bytes, sent_at, hop, attempt = _FIXED.unpack_from(data, pos)
        pos += _FIXED.size
        if pos + 2 > total:
            raise TransportError("truncated frame envelope")
        length = (data[pos] << 8) | data[pos + 1]
        pos += 2
        if length == _NO_TRANSFER:
            transfer = None
        else:
            end = pos + length
            if end > total:
                raise TransportError("truncated frame envelope")
            transfer = shared_text(data[pos:end].decode("utf-8"))
            pos = end
        payload_kind = data[pos]
        pos += 1
        if payload_kind == _TEXT:
            payload: object = _decode_text(data[pos:])
        elif payload_kind == _VALUE:
            payload, pos = read_value(data, pos, total)
            if pos != total:
                raise TransportError(f"{total - pos} trailing bytes after frame payload")
        elif payload_kind == _DOCUMENT:
            payload, pos = read_value(data, pos, total)
            if type(payload) is not dict:
                raise TransportError("document frame metadata is not a mapping")
            payload["document"] = _decode_text(data[pos:])
        else:
            raise TransportError(f"unknown payload encoding {payload_kind}")
    except TransportError:
        raise
    except (struct.error, ValueError, OverflowError, IndexError, RecursionError) as error:
        raise TransportError(f"malformed frame body: {error}") from None
    # Restore the message the way pickle restores any instance — __new__ plus
    # a state dict, skipping __init__.  __post_init__'s only job (clamping
    # size_bytes) is done inline; the counter default must not fire anyway,
    # because the original message_id is the receiver's delivery key.
    message = Message.__new__(Message)
    message.__dict__ = {
        "sender": sender,
        "recipient": recipient,
        "kind": kind,
        "payload": payload,
        "size_bytes": size_bytes if size_bytes > 0 else 1,
        "message_id": message_id,
        "sent_at": sent_at,
        "hop": hop,
        "transfer": transfer,
        "attempt": attempt,
    }
    return message


def _decode_text(raw: bytes) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as error:
        raise TransportError(f"malformed UTF-8 in frame: {error}") from None
